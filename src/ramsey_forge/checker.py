"""The checking entry point for single-generator partitions.

`check_candidate`, the package's one report function, checks x once,
then takes a search's two steps: `classcount._class_zero_witnesses`
and `classcount._triangle_witness`.  Checks run in the fixed order
symmetric -> sum_free -> cyclic_basis -> triangle and stop at the first
failure, whose witness is the whole verdict (see `report`).
"""

from __future__ import annotations

from .classcount import _class_zero_witnesses, _triangle_witness
from .numbertheory import require_generator
from .report import CheckReport


def check_candidate(N: int, m: int, x: int) -> CheckReport:
    """Report for the construction (N, m, x) without requiring the
    caller to build anything: the partition is never materialized,
    which is what makes million-range moduli cheap.  An x that fails to
    generate the group (so also any composite N), or a modulus of 2^31
    or more, raises ValueError."""
    require_generator(N, m, x)
    witness = _class_zero_witnesses([N], m)[0]
    if witness is None:
        witness = _triangle_witness(N, m, x)
    return CheckReport(witness)
