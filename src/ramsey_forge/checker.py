"""The checking entry point for single-generator partitions.

`check_candidate` runs the counting engine from `classcount`, the one
checking engine, on (N, m, x).  Checks run in the fixed order
symmetric -> sum_free -> cyclic_basis -> triangle and stop at the first
failure, whose witness is the whole verdict (see `report`).
"""

from __future__ import annotations

from .classcount import counting_report
from .report import CheckReport


def check_candidate(N: int, m: int, x: int) -> CheckReport:
    """Report for the construction (N, m, x) without requiring the
    caller to build anything: the partition is never materialized,
    which is what makes million-range moduli cheap.  An x that fails to
    generate the group (so also any composite N), or a modulus of 2^31
    or more, raises ValueError.
    """
    return counting_report(N, m, x)
