"""Fast validity checks for single-generator partitions.

`check_candidate` and `full_fast_check` both run the counting engine
from `classcount`, the one checking engine.  Checks run in the fixed
order symmetric -> sum_free -> cyclic_basis -> triangle and stop at
the first failure (later flags stay None).
"""

from __future__ import annotations

from .classcount import counting_report
from .partition import CyclotomicPartition
from .report import CheckReport


def full_fast_check(p: CyclotomicPartition) -> CheckReport:
    """All four conditions on an already-built partition.

    The counting engine re-derives the classes from (N, m, x); that is
    sound because the constructor validated they tile Z_N \\ {0}.
    """
    return counting_report(p.N, p.m, p.x)


def check_candidate(N: int, m: int, x: int) -> CheckReport:
    """Report for the construction (N, m, x) without requiring the
    caller to build anything: the partition is never materialized,
    which is what makes million-range moduli cheap.  An x that fails to
    generate the group (so also any composite N), or a modulus of 2^31
    or more, raises ValueError.
    """
    return counting_report(N, m, x)
