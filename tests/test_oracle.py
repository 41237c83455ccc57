import random
from collections import Counter
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsey_forge import classcount, oracle
from ramsey_forge.catalog import export_coloring, load_catalog
from ramsey_forge.checker import check_candidate
from ramsey_forge.numbertheory import is_generator, sieve_primes, smallest_generator
from ramsey_forge.oracle import (
    LabeledPartition,
    Relation,
    atom_decomposition,
    exhaustive_small_scan,
    naive_check,
    partition_atoms,
    relation_algebra_check,
)
from ramsey_forge.partition import build_partition, generator_walk, partition_from_walk
from ramsey_forge.report import CheckReport, Witness
from ramsey_forge.search import candidate_primes, sum_free_cutoff


def _definitional_check(p):
    """The set-comprehension form of naive_check, kept as its reference:
    every sumset is a Python set built pair by pair."""
    N = p.N
    classes = [c.tolist() for c in p.classes]
    csets = [set(c) for c in classes]

    for i, c in enumerate(classes):
        for a in c:
            if (N - a) % N not in csets[i]:
                return CheckReport(Witness("symmetric", (i,), a))

    self_sums = [{(a + b) % N for a in c for b in c} for c in classes]

    for i, c in enumerate(classes):
        bad = self_sums[i] & csets[i]
        if bad:
            return CheckReport(Witness("sum_free", (i, i), min(bad)))

    universe = set(range(N))
    for i, c in enumerate(classes):
        expected = universe - csets[i]
        if self_sums[i] != expected:
            return CheckReport(Witness("cyclic_basis", (i,), min(self_sums[i] ^ expected)))

    target = universe - {0}
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            # addition is commutative, so (i, j) settles (j, i) too
            s = {(a + b) % N for a in classes[i] for b in classes[j]}
            if s != target:
                return CheckReport(Witness("triangle", (i, j), min(s ^ target)))

    return CheckReport()


def test_labeled_partition_validation():
    LabeledPartition.from_sets(5, [[1, 4], [2, 3]])
    with pytest.raises(ValueError):
        LabeledPartition.from_sets(5, [[1, 4], [2]])  # misses 3
    with pytest.raises(ValueError):
        LabeledPartition.from_sets(5, [[1, 4], [2, 3, 4]])  # overlap
    with pytest.raises(ValueError):
        LabeledPartition.from_sets(5, [[0, 1, 4], [2, 3]])  # contains 0
    with pytest.raises(ValueError):
        LabeledPartition.from_sets(5, [[1, 2, 3, 4], []])  # empty class


def test_naive_check_worked_examples():
    assert naive_check(build_partition(5, 2, 2)).overall
    assert naive_check(build_partition(13, 3, 2)).overall


def test_naive_check_detects_each_failure_mode():
    # the classes of x = 3, m = 2 mod 7: k = 3 is odd, so -1 = 6 lies
    # outside the class of 1
    rep = naive_check(LabeledPartition.from_sets(7, [[1, 2, 4], [3, 5, 6]]))
    assert rep.flags() == (False, None, None, None)
    assert rep.witness == Witness("symmetric", (0,), 1)

    # symmetric but not sum-free: 1 + 1 = 2 inside the first class
    rep = naive_check(LabeledPartition.from_sets(7, [[1, 2, 5, 6], [3, 4]]))
    assert rep.flags() == (True, False, None, None)
    assert rep.witness == Witness("sum_free", (0, 0), 1)

    # the three symmetric pairs mod 7: each is sum-free but too small
    # to be a basis
    rep = naive_check(LabeledPartition.from_sets(7, [[1, 6], [2, 5], [3, 4]]))
    assert rep.flags() == (True, True, False, None)
    assert rep.witness.condition == "cyclic_basis"


def test_naive_triangle_failure():
    # smallest single-generator partition that survives through the
    # basis stage and dies on pair coverage
    rep = naive_check(build_partition(2441, 20, 6))
    assert rep.flags() == (True, True, True, False)
    assert rep.witness.condition == "triangle"
    assert rep.flags() == check_candidate(2441, 20, 6).flags()


def test_naive_agrees_with_fast_on_constructions_to_300():
    for rec in exhaustive_small_scan(300):
        assert rec.agree, (rec.N, rec.m)


def test_relation_identity_and_converse_sanity():
    p = build_partition(13, 3, 2)
    atoms = partition_atoms(p)
    ident = Relation.identity(13)
    for a in atoms:
        assert a.compose(ident) == a
        assert ident.compose(a) == a
        assert a.converse().converse() == a


def _pairs(rel):
    return {(u, v) for u in range(rel.N) for v in range(rel.N) if rel.matrix[u, v]}


def test_relation_operations_match_their_set_definitions():
    # every relation is built beside its set of pairs, and each operation
    # is checked against the set comprehension that defines it; unions and
    # complements of difference relations are circulant, and circulant
    # products commute, so relations on arbitrary pair sets join them to
    # catch a product taken in the wrong order
    rng = random.Random(24)
    for N in range(1, 13):
        full = {(u, v) for u in range(N) for v in range(N)}
        assert _pairs(Relation.identity(N)) == {(u, u) for u in range(N)}
        assert _pairs(Relation.empty(N)) == set()
        assert Relation.identity(N) != Relation.identity(N + 1)
        rels = []
        for _ in range(3):
            X, Y = (set(rng.sample(range(N), rng.randint(0, N))) for _ in "XY")
            a = Relation.from_difference_set(N, X)
            b = Relation.from_difference_set(N, Y)
            sa = {(u, v) for u, v in full if (u - v) % N in X}
            sb = {(u, v) for u, v in full if (u - v) % N in Y}
            assert a == Relation.from_difference_set(N, sorted(X))
            arbitrary = {q for q in full if rng.random() < 0.3}
            grid = [[(u, v) in arbitrary for v in range(N)] for u in range(N)]
            rels += [(a, sa), (a.union(b), sa | sb), (b.complement(), full - sb),
                     (Relation(np.array(grid, dtype=bool)), arbitrary)]
        for a, sa in rels:
            assert _pairs(a) == sa
            assert _pairs(a.converse()) == {(v, u) for u, v in sa}
            assert _pairs(a.complement()) == full - sa
            for b, sb in rels:
                composed = {(u, w) for u, v in sa for w in range(N) if (v, w) in sb}
                assert _pairs(a.compose(b)) == composed
                assert _pairs(a.union(b)) == sa | sb
                assert (a == b) == (sa == sb)

    atoms = partition_atoms(build_partition(13, 3, 2))
    ident = Relation.identity(13)
    for has_id in (False, True):
        start = ident if has_id else Relation.empty(13)
        for r in range(4):
            for picked in combinations(range(3), r):
                rel = reduce(Relation.union, [atoms[i] for i in picked], start)
                assert atom_decomposition(rel, atoms, ident) == (has_id, picked)
        # {1} is a proper part of X_0 = {1, 5, 8, 12}: no union of atoms
        part = Relation.from_difference_set(13, [0, 1] if has_id else [1])
        assert atom_decomposition(part, atoms, ident) is None


def test_relation_axioms_two_color_pentagon():
    p = build_partition(5, 2, 2)
    assert relation_algebra_check(p)
    red, blue = partition_atoms(p)
    ident = Relation.identity(5)
    # composing a color with itself yields exactly the other color plus
    # the diagonal, and mixed composition yields everything off-diagonal
    assert red.compose(red) == blue.union(ident)
    assert blue.compose(blue) == red.union(ident)
    assert red.compose(blue) == ident.complement()
    assert blue.compose(red) == ident.complement()
    assert atom_decomposition(red.compose(red), [red, blue], ident) == (True, (1,))


def test_relation_axioms_three_color_13():
    p = build_partition(13, 3, 2)
    assert relation_algebra_check(p)
    atoms = partition_atoms(p)
    ident = Relation.identity(13)
    for i, a in enumerate(atoms):
        others = tuple(j for j in range(3) if j != i)
        assert atom_decomposition(a.compose(a), atoms, ident) == (True, others)


def test_relation_axioms_fail_on_invalid_partition():
    assert not relation_algebra_check(build_partition(7, 3, 3))
    assert not relation_algebra_check(
        LabeledPartition.from_sets(7, [[1, 6], [2, 5], [3, 4]])
    )


def test_relation_cap_rejects_large_modulus():
    p = build_partition(521, 4, 3)
    with pytest.raises(ValueError):
        relation_algebra_check(p)


def test_relation_check_matches_naive_overall_to_200(relation_scan_200):
    rows, _ = relation_scan_200
    assert rows
    for N, m, relation_ok, naive_ok in rows:
        assert relation_ok == naive_ok, (N, m)


def test_scan_contents_small():
    recs = exhaustive_small_scan(13)
    keyed = {(r.N, r.m): r for r in recs}
    assert (5, 2) in keyed and keyed[(5, 2)].fast.overall
    assert (13, 3) in keyed and keyed[(13, 3)].fast.overall
    assert (13, 2) in keyed and not keyed[(13, 2)].fast.overall
    assert (13, 6) in keyed and not keyed[(13, 6)].fast.overall
    assert (7, 3) in keyed
    assert all(r.x == 2 or r.N != 13 for r in recs)
    # ascending (N, m) order
    assert [(r.N, r.m) for r in recs] == sorted((r.N, r.m) for r in recs)


def test_scan_empty_below_first_usable_prime():
    assert exhaustive_small_scan(4) == []


def test_pooled_scan_matches_one_worker():
    # one job per prime modulus, joined in N order
    assert exhaustive_small_scan(400, workers=2) == exhaustive_small_scan(400)


def test_scan_of_one_modulus_starts_no_pool(no_pool):
    assert [(r.N, r.m) for r in exhaustive_small_scan(6, workers=2)] == [(5, 2)]


def test_scan_partitions_share_no_kernel_with_the_engine(monkeypatch):
    # with the engine's power walk refused, every partition still comes
    # off the builtin walk: the scan's naive half, and what build_partition
    # gives naive_check, the export and the relation algebra; the scan's
    # engine half replays the reports it gave before
    expected = exhaustive_small_scan(200, workers=1)
    fast = {(r.N, r.m): r.fast for r in expected}
    rows = [r for r in load_catalog() if r.N <= oracle.RELATION_CAP]
    assert len(rows) == 5

    def views():
        out = []
        for r in rows:
            p = build_partition(r.N, r.m, r.x)
            out.append((naive_check(p), export_coloring(p, "dot"),
                        export_coloring(p, "json"), relation_algebra_check(p)))
        return out

    before = views()
    assert all(v[0].overall and v[3] for v in before)

    def unreachable(*args):
        raise AssertionError("a partition was walked with the engine's power_walk")

    monkeypatch.setattr(classcount, "power_walk", unreachable)
    monkeypatch.setattr(oracle, "check_candidate", lambda N, m, x: fast[N, m])
    assert exhaustive_small_scan(200, workers=1) == expected
    assert views() == before


def test_scan_rejects_oversized_request():
    with pytest.raises(ValueError):
        exhaustive_small_scan(2001)


def test_scan_record_serialization():
    rec = exhaustive_small_scan(13)[0]
    d = rec.to_dict()
    assert d["N"] == 5 and d["m"] == 2 and d["x"] == 2
    assert d["agree"] is True
    assert d["fast"]["overall"] is True and d["naive"]["overall"] is True


def test_fast_report_equals_naive_report_structurally():
    # same dataclass, so agreement can be asserted on whole reports for
    # single-generator input where both use class-0 based witnesses
    assert check_candidate(5, 2, 2) == naive_check(build_partition(5, 2, 2))


def test_naive_check_equals_definitional_check_to_300():
    for rec in exhaustive_small_scan(300):
        p = build_partition(rec.N, rec.m, rec.x)
        assert _definitional_check(p) == naive_check(p) == rec.naive, (rec.N, rec.m)


# symmetric, sum-free and a cyclic basis in every class, and classes 0
# and 1 cover Z_41 \ {0} together, but classes 1 and 2 miss a residue
_TRIANGLE_ON_1_2 = [
    [1, 7, 10, 12, 16, 25, 29, 31, 34, 40],
    [2, 5, 8, 14, 15, 26, 27, 33, 36, 39],
    [3, 4, 11, 13, 18, 23, 28, 30, 37, 38],
    [6, 9, 17, 19, 20, 21, 22, 24, 32, 35],
]


_LABELED_CASES = [
    # classes of unequal sizes: all sum-free, but {4} is no basis
    (8, [[4], [1, 7], [2, 6], [3, 5]], Witness("cyclic_basis", (0,), 1)),
    (10, [[5], [1, 9], [2, 3, 4, 6, 7, 8]], Witness("sum_free", (2, 2), 2)),
    # an asymmetric class after a symmetric one
    (7, [[1, 6], [2, 3], [4, 5]], Witness("symmetric", (1,), 2)),
    # class 0 sum-free, class 1 not
    (7, [[3, 4], [1, 2, 5, 6]], Witness("sum_free", (1, 1), 1)),
    (41, _TRIANGLE_ON_1_2, Witness("triangle", (1, 2), 7)),
    # all sum-free; X_0 + X_0 misses exactly one residue, 5
    (10, [[1, 3, 7, 9], [2, 8], [4, 5, 6]], Witness("cyclic_basis", (0,), 5)),
    # class 0 a basis, class 1 not: its first missing residue is in class 0
    (8, [[1, 4, 7], [2, 6], [3, 5]], Witness("cyclic_basis", (1,), 1)),
]


@pytest.mark.parametrize("N, sets, witness", _LABELED_CASES)
def test_naive_check_equals_definitional_check_on_labeled_partitions(N, sets, witness):
    p = LabeledPartition.from_sets(N, sets)
    rep = naive_check(p)
    assert rep == _definitional_check(p)
    assert rep.witness == witness


def test_sums_equals_pairwise_sumset_across_chunk_sizes(monkeypatch):
    # |B| = 3, so a budget of 3 r pairs gives blocks of r rows of A: 1,
    # r - 1, r, r + 1 and all 200 rows, each against |A| of 1, r - 1, r,
    # r + 1 and 200
    rng = random.Random(5)
    N, r = 1009, 16
    for rows in (1, r - 1, r, r + 1, 200):
        monkeypatch.setattr(oracle, "PAIR_BUDGET", 3 * rows)
        for size in (1, r - 1, r, r + 1, 200):
            A = sorted(rng.sample(range(N), size))
            B = sorted(rng.sample(range(N), 3))
            mask = oracle._sums(np.array(A), np.array(B), N)
            assert set(np.flatnonzero(mask).tolist()) == {(a + b) % N for a in A for b in B}


def _block_budgets(kmax):
    # the budget counts pairs, so budgets below 2 kmax give blocks of one
    # listed element, and (kmax - 1) kmax .. (kmax + 1) kmax give blocks
    # that straddle the boundaries between classes
    edges = {1, kmax - 1, kmax, kmax + 1, (kmax - 1) * kmax, kmax * kmax, (kmax + 1) * kmax}
    return sorted(edges - {0})


@pytest.mark.parametrize("N, sets, witness", _LABELED_CASES)
def test_naive_check_equals_definitional_check_across_block_sizes(monkeypatch, N, sets, witness):
    p = LabeledPartition.from_sets(N, sets)
    for budget in _block_budgets(max(map(len, sets))):
        monkeypatch.setattr(oracle, "PAIR_BUDGET", budget)
        assert naive_check(p) == _definitional_check(p), budget


@st.composite
def _random_partitions(draw):
    """A partition of Z_N \\ {0}, N <= 60, into 1..8 classes; half of
    them symmetric, built from the pairs {a, N - a}, so that the draws
    get past the symmetry test."""
    N = draw(st.integers(2, 60))
    symmetric = draw(st.booleans())
    if symmetric:
        units = [[a, N - a] if a != N - a else [a] for a in range(1, N // 2 + 1)]
    else:
        units = [[a] for a in range(1, N)]
    m = draw(st.integers(1, min(8, len(units))))
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(units)
    sets = [[] for _ in range(m)]
    for n, unit in enumerate(units):
        sets[n if n < m else rng.randrange(m)].extend(unit)
    return LabeledPartition.from_sets(N, sets)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(p=_random_partitions(), data=st.data())
def test_naive_check_equals_definitional_check_on_random_partitions(p, data):
    kmax = max(map(len, p.classes))
    budgets = [oracle.PAIR_BUDGET, *_block_budgets(kmax)]
    budget = data.draw(st.sampled_from(budgets), label="budget")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "PAIR_BUDGET", budget)
        assert naive_check(p) == _definitional_check(p)


def test_naive_check_forms_self_sumsets_only_when_reached(monkeypatch):
    blocks, formed = [], []
    real_blocks, real_sumsets = oracle._pair_blocks, oracle._self_sumsets

    def counting(*args):
        for block in real_blocks(*args):
            blocks.append(block[0])
            yield block

    def recording(*args):
        formed.append(real_sumsets(*args))
        return formed[-1]

    monkeypatch.setattr(oracle, "_pair_blocks", counting)
    monkeypatch.setattr(oracle, "_self_sumsets", recording)
    # fails sum_free at class 0, on its first listed element 1: one block
    # of pairs, even when each block holds one element, and no self-sumset
    for budget in (oracle.PAIR_BUDGET, 14):
        monkeypatch.setattr(oracle, "PAIR_BUDGET", budget)
        blocks.clear()
        assert naive_check(build_partition(29, 2, 2)).flags() == (True, False, None, None)
        assert blocks == [0] and formed == []
    # a cyclic-basis failure needs every class to pass sum_free first,
    # then forms the self-sumsets of all 6 classes
    p = build_partition(13, 6, 2)
    rep = naive_check(p)
    assert rep.flags() == (True, True, False, None)
    assert len(formed) == 1 and formed[0].shape == (6, 13)
    for sums, c in zip(formed[0], p.classes):
        c = c.tolist()
        assert set(np.flatnonzero(sums).tolist()) == {(a + b) % 13 for a in c for b in c}


_SIEVE = sieve_primes(600)


def _generators(N):
    return [g for g in range(2, N) if is_generator(g, N)]


_PROPERTY_CASES = [
    (N, m)
    for N in _SIEVE.tolist()
    if N >= 5
    for m in range(2, N)
    if (N - 1) % (2 * m) == 0
]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(_PROPERTY_CASES), data=st.data())
def test_naive_agrees_with_engine_for_any_generator(case, data):
    N, m = case
    x = data.draw(st.sampled_from(_generators(N)), label="x")
    p = build_partition(N, m, x)
    assert naive_check(p).flags() == check_candidate(N, m, x).flags()
    for i, c in enumerate(p.classes):
        scale = pow(x, i, N)
        assert set(c.tolist()) == {a * scale % N for a in p.classes[0].tolist()}, i


def _recheck_witness(N, m, x, w, naive):
    """Re-derive witness w of (N, m, x) from plain pow and set arithmetic."""
    k = (N - 1) // m
    X = [{pow(x, j * m + i, N) for j in range(k)} for i in range(m)]
    nonzero = set(range(1, N))
    if w.condition == "sum_free":
        i = w.classes[0]
        assert w.classes == (i, i)
        if naive:
            # least element of (X_i + X_i) inside X_i, for the first such i
            hits = [{(a + b) % N for a in X[j] for b in X[j]} & X[j] for j in range(i + 1)]
            assert not any(hits[:i]) and w.residue == min(hits[i])
        else:
            # least a in X_0 with 1 - a in X_0
            assert i == 0
            assert w.residue == min(a for a in X[0] if (1 - a) % N in X[0])
    elif w.condition == "cyclic_basis":
        i = w.classes[0]
        for j in range(i + 1):
            diff = {(a + b) % N for a in X[j] for b in X[j]} ^ (set(range(N)) - X[j])
            assert bool(diff) == (j == i)
        assert w.residue == min(diff)
    elif w.condition == "triangle":
        i, j = w.classes
        diff = {(a + b) % N for a in X[i] for b in X[j]} ^ nonzero
        assert w.residue == min(diff)
    else:
        pytest.fail(f"unexpected witness {w}")


def test_scan_witnesses_recheck_against_their_definitions_to_600():
    for rec in exhaustive_small_scan(600):
        assert rec.agree, (rec.N, rec.m)
        if rec.fast.witness is None:
            assert rec.naive.witness is None
            continue
        _recheck_witness(rec.N, rec.m, rec.x, rec.fast.witness, naive=False)
        _recheck_witness(rec.N, rec.m, rec.x, rec.naive.witness, naive=True)
        if rec.fast.witness.condition != "sum_free":
            assert rec.fast.witness == rec.naive.witness, (rec.N, rec.m)


@pytest.mark.parametrize(
    "m, count, largest, failures",
    [(8, 32, 1777, {"sum_free": 30, "cyclic_basis": 2}),
     (13, 166, 17317, {"sum_free": 162, "cyclic_basis": 4})],
)
def test_oracle_confirms_the_nonexistence_claims(m, count, largest, failures):
    # every prime modulus a sweep must check for m = 8 and m = 13, up to
    # the sum-free cut-off, fails on partitions that share no kernel with
    # the engine, and with the engine's verdict
    primes = candidate_primes(m, 0, sum_free_cutoff(m))
    assert (len(primes), primes[-1]) == (count, largest)
    found = Counter()
    for N in primes:
        x = smallest_generator(N)
        rep = naive_check(partition_from_walk(generator_walk(N, x), m))
        assert not rep.overall, N
        assert rep.flags() == check_candidate(N, m, x).flags(), N
        found[rep.witness.condition] += 1
    assert found == failures
