"""Fast validity checks for single-generator partitions.

`check_candidate` and `full_fast_check` both run the counting engine
from `classcount`, the one engine on the run-time path.

The bit-mask functions below compute the same flags and witnesses from
explicit sumsets and are kept as an independent reference that the
test suite holds the counting engine to, bit for bit, on moduli well
past the reach of the naive oracle.  The subgroup structure collapses
their work: class 0 is sum-free iff no two of its elements sum to 1
(divide any violating pair through by the sum to land on 1), and pairs
(0, i) covering everything implies all pairs do, since scaling by x^i
maps one onto the other.  So only one class is screened for sums and
only m - 1 sumsets are formed instead of m^2.

Checks run in the fixed order symmetric -> sum_free -> cyclic_basis ->
triangle and stop at the first failure (later flags stay None).
"""

from __future__ import annotations

from .classcount import counting_report
from .partition import CyclotomicPartition
from .report import CheckReport, Witness
from .residues import ResidueSet, sumset


def _symmetric(p: CyclotomicPartition) -> Witness | None:
    N = p.N
    for i, X in enumerate(p.classes):
        if X != X.negated():
            for a in X:
                if (N - a) % N not in X:
                    return Witness("symmetric", (i,), a)
    return None


def _sum_free(X0: ResidueSet) -> Witness | None:
    N = X0.N
    for a in X0:
        if (1 - a) % N in X0:
            return Witness("sum_free", (0, 0), a)
    return None


def _cyclic_basis(X0: ResidueSet) -> Witness | None:
    S = sumset(X0, X0)
    expected = X0.complement()
    if S == expected:
        return None
    diff = S.bits ^ expected.bits
    z = (diff & -diff).bit_length() - 1
    return Witness("cyclic_basis", (0,), z)


def _triangle(p: CyclotomicPartition) -> Witness | None:
    target = ResidueSet.nonzero(p.N)
    X0 = p.classes[0]
    for i in range(1, p.m):
        S = sumset(X0, p.classes[i])
        if S != target:
            diff = S.bits ^ target.bits
            z = (diff & -diff).bit_length() - 1
            return Witness("triangle", (0, i), z)
    return None


def check_symmetric(p: CyclotomicPartition) -> bool:
    """Every class closed under negation."""
    return _symmetric(p) is None


def check_sum_free_fast(X0: ResidueSet) -> bool:
    """Class 0 sum-free, tested as 1 not in X_0 + X_0.

    Only k membership probes: a + b lands in X_0 for some a, b in X_0
    iff dividing through by that sum writes 1 = a' + b' with a', b' in
    the subgroup X_0.
    """
    return _sum_free(X0) is None


def check_cyclic_basis(X0: ResidueSet) -> bool:
    """X_0 + X_0 equals Z_N minus X_0 exactly.

    Checking class 0 settles every class: scaling by x^i carries the
    class-0 identity onto class i.
    """
    return _cyclic_basis(X0) is None


def check_triangle_fast(p: CyclotomicPartition) -> bool:
    """X_0 + X_i covers all of Z_N \\ {0} for every i >= 1.

    Covers all distinct pairs: X_i + X_j scales down to X_0 + X_{j-i}.
    Vacuously true for m = 1.
    """
    return _triangle(p) is None


def _bitset_report(p: CyclotomicPartition) -> CheckReport:
    w = _symmetric(p)
    if w is not None:
        return CheckReport(False, None, None, None, w)
    w = _sum_free(p.classes[0])
    if w is not None:
        return CheckReport(True, False, None, None, w)
    w = _cyclic_basis(p.classes[0])
    if w is not None:
        return CheckReport(True, True, False, None, w)
    w = _triangle(p)
    if w is not None:
        return CheckReport(True, True, True, False, w)
    return CheckReport.all_passed()


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
    generate the group, or a modulus of 2^31 or more, raises ValueError.
    """
    return counting_report(N, m, x)
