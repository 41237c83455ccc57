"""Bit-mask reference engine that the tests hold the counting engine to.

It computes the four flags and their witnesses from explicit sumsets,
bit for bit the same as `checker.check_candidate`, on moduli well
past the reach of the naive oracle.  It shares no code with the
library: `bitmask_partition` walks the powers of x in plain Python.

A residue set is one Python integer: bit j set means residue j is
present.  That makes union and intersection single `|`/`&`
operations, and a sumset A + B costs |smaller| shifts of N-bit
integers, not |A| * |B| residue additions.

The subgroup structure collapses the engine's work: class 0 is
sum-free iff no two of its elements sum to 1 (divide any violating pair
through by the sum to land on 1), and pairs (0, i) covering everything
implies all pairs do, since scaling by x^i maps one onto the other.
So only one class is screened for sums and only m - 1 sumsets are
formed instead of m^2.  Checks run in the fixed order symmetric ->
sum_free -> cyclic_basis -> triangle and stop at the first failure.

`full_class_index_table` and `full_pair_sum_class_matrix` are the
numpy reference for the engine's folded half table: an N-long table
scattered from `partition.generator_walk`, the builtin-product walk
every partition comes from, which shares no kernel with the engine, and
every pair (a, 1 - a) tallied off the reversed table.
`least_sum_free_violation` finds the engine's sum_free witness from
the definition, with builtin `pow` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ramsey_forge.partition import generator_walk
from ramsey_forge.report import CheckReport, Witness


class ResidueSet:
    """Immutable subset of Z_N = {0, 1, ..., N-1}."""

    __slots__ = ("N", "_bits")

    N: int

    def __init__(self, N: int, bits: int = 0):
        if N < 1:
            raise ValueError(f"modulus must be >= 1, got {N}")
        if bits < 0 or bits >> N:
            raise ValueError(f"bit mask has residues outside Z_{N}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "_bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("ResidueSet is immutable")

    @classmethod
    def empty(cls, N: int) -> "ResidueSet":
        return cls(N, 0)

    @classmethod
    def nonzero(cls, N: int) -> "ResidueSet":
        """The full punctured line {1, ..., N-1}."""
        return cls(N, ((1 << N) - 1) & ~1)

    @classmethod
    def from_elements(cls, N: int, elements: Iterable[int]) -> "ResidueSet":
        buf = bytearray(N // 8 + 1)
        for e in elements:
            if not 0 <= e < N:
                raise ValueError(f"residue {e} outside Z_{N}")
            buf[e >> 3] |= 1 << (e & 7)
        return cls(N, int.from_bytes(buf, "little"))

    @property
    def bits(self) -> int:
        return self._bits

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __contains__(self, j: int) -> bool:
        if not 0 <= j < self.N:
            raise ValueError(f"residue {j} outside Z_{self.N}")
        return (self._bits >> j) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        # one string search per member; peeling bits off the integer
        # itself would copy all N bits at every step
        digits = bin(self._bits)[:1:-1]  # digits[j] is bit j
        j = digits.find("1")
        while j >= 0:
            yield j
            j = digits.find("1", j + 1)

    def elements(self) -> list[int]:
        """Members in ascending order."""
        return list(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return self.N == other.N and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.N, self._bits))

    def _same_modulus(self, other: "ResidueSet") -> None:
        if self.N != other.N:
            raise ValueError(f"modulus mismatch: {self.N} vs {other.N}")

    def __or__(self, other: "ResidueSet") -> "ResidueSet":
        self._same_modulus(other)
        return ResidueSet(self.N, self._bits | other._bits)

    def __and__(self, other: "ResidueSet") -> "ResidueSet":
        self._same_modulus(other)
        return ResidueSet(self.N, self._bits & other._bits)

    def complement(self) -> "ResidueSet":
        return ResidueSet(self.N, ~self._bits & ((1 << self.N) - 1))

    def negated(self) -> "ResidueSet":
        """{-a mod N : a in self}."""
        N = self.N
        return ResidueSet.from_elements(N, ((N - a) % N for a in self))

    def __repr__(self) -> str:
        if len(self) <= 12:
            return f"ResidueSet(N={self.N}, {{{', '.join(map(str, self))}}})"
        return f"ResidueSet(N={self.N}, size={len(self)})"


def sumset(A: ResidueSet, B: ResidueSet) -> ResidueSet:
    """{a + b mod N : a in A, b in B} by shift-and-fold.

    Empty operands give the empty set; {0} is the identity translate.
    """
    A._same_modulus(B)
    N = A.N
    if len(B) < len(A):
        A, B = B, A
    base = B.bits
    mask = (1 << N) - 1
    acc = 0
    for a in A:
        if a == 0:
            acc |= base
        else:
            acc |= ((base << a) | (base >> (N - a))) & mask
    return ResidueSet(N, acc)


@dataclass(frozen=True)
class BitmaskPartition:
    """Z_N \\ {0} split into m classes held as bit masks."""

    N: int
    m: int
    classes: tuple[ResidueSet, ...]


def bitmask_partition(N: int, m: int, x: int) -> BitmaskPartition:
    """classes[i] = {x^(jm + i) : 0 <= j < (N - 1) / m}, from a plain
    Python walk x^0, x^1, ..., x^(N-2).  Like the library's unchecked
    builder it allows odd k; it raises unless m divides N - 1 and x has
    order exactly N - 1.
    """
    if m < 1 or (N - 1) % m != 0:
        raise ValueError(f"class count {m} does not divide {N - 1}")
    walk = [1] * (N - 1)
    for e in range(1, N - 1):
        walk[e] = walk[e - 1] * x % N
    if 1 in walk[1:]:
        raise ValueError(f"x={x} returns to 1 early mod {N}; not a generator")
    if walk[-1] * x % N != 1:
        raise ValueError(f"x={x} is not a generator mod {N}: x^{N - 1} != 1")
    classes = tuple(ResidueSet.from_elements(N, walk[i::m]) for i in range(m))
    return BitmaskPartition(N, m, classes)


def _symmetric(p: BitmaskPartition) -> Witness | None:
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


def _triangle(p: BitmaskPartition) -> Witness | None:
    target = ResidueSet.nonzero(p.N)
    X0 = p.classes[0]
    for i in range(1, p.m):
        S = sumset(X0, p.classes[i])
        if S != target:
            diff = S.bits ^ target.bits
            z = (diff & -diff).bit_length() - 1
            return Witness("triangle", (0, i), z)
    return None


def check_symmetric(p: BitmaskPartition) -> bool:
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


def check_triangle_fast(p: BitmaskPartition) -> bool:
    """X_0 + X_i covers all of Z_N \\ {0} for every i >= 1.

    Covers all distinct pairs: X_i + X_j scales down to X_0 + X_{j-i}.
    Vacuously true for m = 1.
    """
    return _triangle(p) is None


def bitset_report(p: BitmaskPartition) -> CheckReport:
    """The first witness, in check order, or none when all four hold."""
    w = (
        _symmetric(p)
        or _sum_free(p.classes[0])
        or _cyclic_basis(p.classes[0])
        or _triangle(p)
    )
    return CheckReport(w)


def full_class_index_table(N: int, m: int, x: int) -> np.ndarray:
    """cls array of length N: cls[x^e] = e mod m, cls[0] = -1.

    Stored in the smallest signed type that holds -m (int8 up to
    m = 128, int16 up to 32,768), so the table costs one or two bytes
    per residue.  Raises unless m divides N - 1 and the walk of x
    reaches every nonzero residue, that is unless x generates the group.
    """
    if m < 1 or (N - 1) % m:
        raise ValueError(f"class count {m} does not divide {N - 1}")
    cls = np.full(N, -1, dtype=np.min_scalar_type(-m))
    cls[generator_walk(N, x).reshape(-1, m)] = np.arange(m, dtype=cls.dtype)
    if (cls[1:] < 0).any():
        raise ValueError(f"x={x} is not a generator mod {N}")
    return cls


def full_pair_sum_class_matrix(cls: np.ndarray, m: int) -> np.ndarray:
    """T[p][q] = number of ordered pairs (a, b), a + b = 1, with classes (p, q).

    The pairs are (a, N + 1 - a) for a = 2..N-1, so the partner classes
    are just the class slice reversed.  The codes p * m + q are built in
    place in int64, the type `bincount` takes without a copy.
    """
    codes = cls[2:].astype(np.int64)
    codes *= m
    codes += cls[:1:-1]
    return np.bincount(codes, minlength=m * m).reshape(m, m)


def least_sum_free_violation(N: int, m: int) -> int | None:
    """The least a >= 2 with a and 1 - a both m-th power residues mod
    the prime N, that is a^k = (1 - a)^k = 1 with k = (N - 1) / m, or
    None if there is none.  With k even this is the least sum_free
    witness of class 0.  Builtin pow only.
    """
    k = (N - 1) // m
    for a in range(2, N):
        if pow(a, k, N) == 1 and pow(1 - a, k, N) == 1:
            return a
    return None


def least_cyclic_basis_miss(N: int, m: int, x: int) -> int | None:
    """The least z >= 1 in neither X_0 nor X_0 + X_0, X_0 being the
    powers x^(jm) mod N, or None if every z is covered.  Builtin pow
    only.
    """
    X0 = {pow(x, j * m, N) for j in range((N - 1) // m)}
    for z in range(1, N):
        if z not in X0 and all((z - a) % N not in X0 for a in X0):
            return z
    return None
