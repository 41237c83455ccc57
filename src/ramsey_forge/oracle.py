"""Definition-level reference checks.

Everything in this module computes straight from the definitions: every
pair of a sumset is tried, relations are N x N boolean matrices composed
by their boolean product, and there are no subgroup shortcuts or class-0
reductions.  It is the yardstick the fast checker is tested against, so
it deliberately shares nothing with it beyond numpy.  Both partition
types hold each class as an ascending int64 array, read alike through
`.N` and `.classes`.  naive_check tests each of the first three
conditions on all classes at once, from one array of class labels.  The
small scan's jobs are its prime moduli, run in N order by
`search.in_order`; each reads every m's classes off one
`partition.generator_walk`, the builtin-product walk that every
partition comes from, sharing no kernel with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .checker import check_candidate
from .numbertheory import sieve_primes, smallest_generator
from .partition import CyclotomicPartition, generator_walk, partition_from_walk
from .report import CheckReport, Witness
from .search import in_order

ORACLE_SCAN_MAX = 2000
RELATION_CAP = 200
# Pairs per block of the sum-free test, the self-sumsets and the
# triangle's sumsets: 2^14 int64s are 128 KiB, and an early sum-free
# failure costs one block.
PAIR_BUDGET = 2**14


@dataclass(frozen=True, eq=False)
class LabeledPartition:
    """An arbitrary partition of Z_N \\ {0} into labeled classes.

    Unlike CyclotomicPartition there is no generator structure: any
    family of disjoint nonempty sets covering 1..N-1 is accepted.  Each
    class is stored as CyclotomicPartition stores it, an ascending
    int64 array, so the checks below read either type alike.
    """

    N: int
    classes: tuple[np.ndarray, ...]

    def __post_init__(self):
        for i, c in enumerate(self.classes):
            if not c.size:
                raise ValueError(f"class {i} is empty")
            outside = c[(c < 1) | (c >= self.N)]
            if outside.size:
                raise ValueError(f"class {i} holds {outside[0]}, outside 1..{self.N - 1}")
        counts = np.bincount(np.concatenate(self.classes), minlength=self.N)
        if (counts[1:] != 1).any():
            raise ValueError("classes do not partition Z_N \\ {0}")

    @classmethod
    def from_sets(cls, N: int, sets: Iterable[Iterable[int]]) -> "LabeledPartition":
        return cls(N, tuple(np.array(sorted(set(s)), dtype=np.int64) for s in sets))


def _sums(A: np.ndarray, B: np.ndarray, N: int) -> np.ndarray:
    """Mask over Z_N of A + B from all |A| * |B| pairs, as outer sums of
    about PAIR_BUDGET pairs at a time to keep the temporaries small."""
    mask = np.zeros(N, dtype=bool)
    rows = max(1, PAIR_BUDGET // len(B))
    for start in range(0, len(A), rows):
        mask[np.add.outer(A[start : start + rows], B) % N] = True
    return mask


def _pair_blocks(listed: np.ndarray, owner: np.ndarray, padded: np.ndarray):
    """Yield (start, c, a, i) per block: the listed elements from `start`
    as a column c, their classes i, and a, the rows of `padded` for them."""
    rows = max(1, PAIR_BUDGET // padded.shape[1])
    for start in range(0, len(listed), rows):
        i = owner[start : start + rows]
        yield start, listed[start : start + rows, None], padded[i], i


def _self_sumsets(listed, owner, padded, N: int) -> np.ndarray:
    """Row i is the mask of X_i + X_i over Z_N, set at flat index i N + a + b."""
    sums = np.zeros(len(padded) * N, dtype=bool)
    for _, c, a, i in _pair_blocks(listed, owner, padded):
        s = c + a
        s -= N * (s >= N)
        sums[s + (i * N)[:, None]] = True
    return sums.reshape(len(padded), N)


def naive_check(p: LabeledPartition | CyclotomicPartition) -> CheckReport:
    """All four conditions on every class and every pair, by definition.

    Same flag order and short-circuiting as the fast checker so the two
    reports can be compared flag for flag.  Witnesses point at the
    first violation in (class indices, residue) order, the order of
    `listed`; `label` maps each residue to its class, and 0 to -1.  c in
    X_i is a + b in X_i iff label[c - a] = i for some a in X_i, tried in
    blocks of PAIR_BUDGET pairs (c, a) to stop at the first hit; `padded`
    fills each class up with its own greatest element, adding no pair.
    Sum-free X_i + X_i misses X_i: X_i is a basis iff it has N - |X_i|.
    """
    N = p.N
    arrays = p.classes  # each ascending
    sizes = np.array([len(a) for a in arrays])
    listed = np.concatenate(arrays)
    owner = np.repeat(np.arange(len(arrays)), sizes)
    label = np.full(N, -1)
    label[listed] = owner

    asymmetric = label[N - listed] != owner
    if asymmetric.any():
        j = asymmetric.argmax()
        return CheckReport(Witness("symmetric", (int(owner[j]),), int(listed[j])))

    ends = np.cumsum(sizes)[:, None]
    padded = listed[np.minimum(ends - sizes[:, None] + np.arange(sizes.max()), ends - 1)]
    for start, c, a, i in _pair_blocks(listed, owner, padded):
        # c - a > -N, and a negative index reads label[N + c - a]
        hit = (label[c - a] == i[:, None]).any(axis=1)
        if hit.any():
            j = start + hit.argmax()
            return CheckReport(Witness("sum_free", (int(owner[j]),) * 2, int(listed[j])))

    sums = _self_sumsets(listed, owner, padded, N)
    short = np.count_nonzero(sums, axis=1) != N - sizes
    if short.any():
        i = int(short.argmax())
        missed = (label != i) & ~sums[i]
        return CheckReport(Witness("cyclic_basis", (i,), int(missed.argmax())))

    target = np.ones(N, dtype=bool)
    target[0] = False
    for i in range(len(arrays)):
        for j in range(i + 1, len(arrays)):
            # addition is commutative, so (i, j) settles (j, i) too
            diff = _sums(arrays[i], arrays[j], N) != target
            if diff.any():
                return CheckReport(Witness("triangle", (i, j), int(diff.argmax())))

    return CheckReport()


@dataclass(frozen=True, eq=False)
class Relation:
    """Binary relation on {0..N-1}: u relates to v iff matrix[u, v], one
    read-only N x N bool array."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def N(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, N: int) -> "Relation":
        return cls(np.eye(N, dtype=bool))

    @classmethod
    def empty(cls, N: int) -> "Relation":
        return cls(np.zeros((N, N), dtype=bool))

    @classmethod
    def from_difference_set(cls, N: int, X: Iterable[int]) -> "Relation":
        """(u, v) related iff u - v mod N lies in X; u - v > -N, and a
        negative index reads member[N + u - v]."""
        u = np.arange(N)
        member = np.isin(u, list(X))
        return cls(member[u[:, None] - u])

    def __eq__(self, other) -> bool:
        return isinstance(other, Relation) and np.array_equal(self.matrix, other.matrix)

    def compose(self, other: "Relation") -> "Relation":
        """(u, w) in result iff some v has (u, v) here and (v, w) there:
        the boolean matrix product, an OR of ANDs."""
        return Relation(self.matrix @ other.matrix)

    def converse(self) -> "Relation":
        return Relation(self.matrix.T)

    def union(self, other: "Relation") -> "Relation":
        return Relation(self.matrix | other.matrix)

    def complement(self) -> "Relation":
        return Relation(~self.matrix)


def partition_atoms(p: LabeledPartition | CyclotomicPartition) -> list[Relation]:
    """The difference relations A_i = {(u, v) : u - v in X_i}."""
    return [Relation.from_difference_set(p.N, c) for c in p.classes]


def relation_algebra_check(p: LabeledPartition | CyclotomicPartition) -> bool:
    """Literal check of the three atom axioms on N x N boolean matrices:

        converse(A_i) = A_i
        A_i o A_i     = Id union all other atoms  (= complement of A_i off Id)
        A_i o A_j     = complement of Id          (i != j)

    Each relation takes N^2 bytes and each composition N^3 steps, so
    moduli above RELATION_CAP are rejected rather than run.
    """
    N = p.N
    if N > RELATION_CAP:
        raise ValueError(f"modulus {N} exceeds relation-algebra cap {RELATION_CAP}")
    atoms = partition_atoms(p)
    ident = Relation.identity(N)
    not_ident = ident.complement()
    for i, a in enumerate(atoms):
        others = atoms[:i] + atoms[i + 1 :]
        if a.converse() != a or a.compose(a) != reduce(Relation.union, others, ident):
            return False
        if any(a.compose(b) != not_ident for b in others):
            return False
    return True


def atom_decomposition(
    rel: Relation, atoms: Sequence[Relation], ident: Relation
) -> tuple[bool, tuple[int, ...]] | None:
    """Express rel as Id? union of atoms, or None if it is not exactly one.

    Greedy works because distinct atoms are disjoint relations.
    """
    has_id = bool(rel.matrix.diagonal().all())
    acc = ident if has_id else Relation.empty(rel.N)
    picked = []
    for i, a in enumerate(atoms):
        if not (a.matrix & ~rel.matrix).any():
            picked.append(i)
            acc = acc.union(a)
    if acc != rel:
        return None
    return has_id, tuple(picked)


@dataclass(frozen=True)
class ScanRecord:
    """One construction (N, m, x) run through the engine and naive_check.

    `agree` compares flags only: the two sum_free witnesses follow
    different conventions.  The engine reports the least a in X_0 with
    1 - a in X_0; naive_check reports the least element of
    (X_i + X_i) & X_i, which on a power-residue partition is always 1:
    a + b = c inside X_0 divides through by c to a sum equal to 1.  All
    other witnesses match.
    """

    N: int
    m: int
    x: int
    fast: CheckReport
    naive: CheckReport

    @property
    def agree(self) -> bool:
        return self.fast.flags() == self.naive.flags()

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "m": self.m,
            "x": self.x,
            "fast": self.fast.to_dict(),
            "naive": self.naive.to_dict(),
            "agree": self.agree,
        }


def _scan_modulus(N: int) -> list[ScanRecord]:
    """The scan's records for the prime N, in m order."""
    x = smallest_generator(N)
    walk = generator_walk(N, x)
    return [
        ScanRecord(N, m, x, check_candidate(N, m, x), naive_check(partition_from_walk(walk, m)))
        for m in range(2, N // 2 + 1)
        if (N - 1) % (2 * m) == 0
    ]


def exhaustive_small_scan(N_max: int, *, workers: int = 1) -> list[ScanRecord]:
    """Every (N, m) with prime N <= N_max, m >= 2, N = 1 (mod 2m),
    using the least generator; each is run through both checkers, one
    job per N on up to `workers` processes.

    Capped at N_max <= 2000: the reference checker is quadratic and this
    scan exists to cross-examine the fast path, not to search.
    """
    if N_max > ORACLE_SCAN_MAX:
        raise ValueError(f"scan limited to N <= {ORACLE_SCAN_MAX}, got {N_max}")
    moduli = [N for N in sieve_primes(max(N_max, 2)).tolist() if N >= 5]
    jobs = in_order(_scan_modulus, moduli, workers)
    return [r for records in jobs for r in records]
