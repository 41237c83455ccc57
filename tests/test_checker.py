import json
import tracemalloc

import pytest

from ramsey_forge import classcount, numbertheory
from ramsey_forge.catalog import load_catalog
from ramsey_forge.checker import check_candidate
from ramsey_forge.numbertheory import prime_factors, sieve_primes, smallest_generator
from ramsey_forge.report import CONDITIONS, CheckReport, Witness
from ramsey_forge.search import search_min_modulus
from reference import (
    ResidueSet,
    bitmask_partition,
    bitset_report,
    check_cyclic_basis,
    check_sum_free_fast,
    check_symmetric,
    check_triangle_fast,
    sumset,
)


def valid_pairs(n_max):
    sieve = sieve_primes(n_max)
    for N in sieve.tolist():
        if N < 5:
            continue
        x = smallest_generator(N)
        for m in range(2, (N - 1) // 2 + 1):
            if (N - 1) % (2 * m) == 0:
                yield N, m, x


def bitset_reference(N, m, x):
    return bitset_report(bitmask_partition(N, m, x))


def class_zero_mask(N, m, x):
    return bitmask_partition(N, m, x).classes[0]


def test_symmetric_pass_and_fail():
    assert check_symmetric(bitmask_partition(5, 2, 2))
    assert not check_symmetric(bitmask_partition(7, 2, 3))


def test_sum_free_worked_examples():
    assert check_sum_free_fast(class_zero_mask(5, 2, 2))
    assert check_sum_free_fast(class_zero_mask(13, 3, 2))
    # whole punctured line: 2 + (N-1) = 1
    assert not check_sum_free_fast(class_zero_mask(13, 1, 2))
    # quadratic residues mod 13 contain 4 and 10 with 4 + 10 = 1
    assert not check_sum_free_fast(class_zero_mask(13, 2, 2))


def test_sum_free_agrees_with_definition_to_600():
    for N, m, x in valid_pairs(600):
        X0 = set(class_zero_mask(N, m, x))
        definitional = all((a + b) % N not in X0 for a in X0 for b in X0)
        assert check_sum_free_fast(class_zero_mask(N, m, x)) == definitional, (N, m)


def test_cyclic_basis_worked_examples():
    assert check_cyclic_basis(class_zero_mask(5, 2, 2))
    # {1,6} mod 7: sums {2,0,5} miss 3 and 4
    assert not check_cyclic_basis(class_zero_mask(7, 3, 3))


def test_cyclic_basis_on_class_zero_settles_every_class_to_600():
    # scaling check: when class 0 passes, X_i + X_i = Z_N minus X_i
    # must hold for every class of the same partition
    for N, m, x in valid_pairs(600):
        p = bitmask_partition(N, m, x)
        if check_cyclic_basis(p.classes[0]):
            for i, c in enumerate(p.classes):
                assert sumset(c, c) == c.complement(), (N, m, i)


def test_triangle_worked_examples():
    assert check_triangle_fast(bitmask_partition(5, 2, 2))
    assert check_triangle_fast(bitmask_partition(13, 3, 2))


def test_triangle_vacuous_for_single_class():
    assert check_triangle_fast(bitmask_partition(13, 1, 2))


def test_triangle_on_zero_pairs_settles_all_pairs_to_600():
    target_cache = {}
    for N, m, x in valid_pairs(600):
        p = bitmask_partition(N, m, x)
        if N not in target_cache:
            target_cache[N] = ResidueSet.nonzero(N)
        if check_triangle_fast(p):
            for i in range(m):
                for j in range(i + 1, m):
                    assert sumset(p.classes[i], p.classes[j]) == target_cache[N], (N, m, i, j)


def test_full_check_order_and_short_circuit():
    rep = check_candidate(7, 2, 3)
    assert rep.flags() == (False, None, None, None)
    assert rep.witness == Witness("symmetric", (0,), 1)
    assert not rep.overall

    rep = check_candidate(13, 2, 2)
    assert rep.flags() == (True, False, None, None)
    assert rep.witness.condition == "sum_free"
    assert rep.witness.classes == (0, 0)
    # smallest a in X_0 with (1 - a) mod 13 also in X_0
    assert rep.witness.residue == 4

    rep = check_candidate(7, 3, 3)
    assert rep.flags() == (True, True, False, None)
    assert rep.witness == Witness("cyclic_basis", (0,), 3)

    for N, m, x in [(5, 2, 2), (13, 3, 2)]:
        rep = check_candidate(N, m, x)
        assert rep.flags() == (True, True, True, True)
        assert rep.witness is None and rep.overall


def test_check_candidate_large_value_matches_known_row():
    # spot check at search scale: the m=100 minimum
    assert check_candidate(95801, 100, 3).overall


def test_a_report_checks_x_once(monkeypatch):
    # Lucas's test factors N - 1: check_candidate runs it once on its x,
    # and a search runs it on none, its x being smallest_generator(N)
    checked, lucas = [], numbertheory.is_generator

    def spy(x, N):
        checked.append((x, N))
        return lucas(x, N)

    monkeypatch.setattr(numbertheory, "is_generator", spy)
    row = next(r for r in load_catalog() if r.m == 101)
    assert check_candidate(row.N, row.m, row.x).overall
    assert checked == [(row.x, 154_127)]
    checked.clear()
    assert search_min_modulus(25, 2_500_000).status == "found"
    assert checked == []


def test_triangle_failure_witness():
    # the smallest construction that clears symmetric, sum-free, and
    # basis but leaves a pair uncovered (located by scanning upward)
    N, m, x = 2441, 20, 6
    for rep in (check_candidate(N, m, x), bitset_reference(N, m, x)):
        assert rep.flags() == (True, True, True, False)
        i = rep.witness.classes[1]
        z = rep.witness.residue
        p = bitmask_partition(N, m, x)
        assert z not in sumset(p.classes[0], p.classes[i])
        assert z != 0


def test_methods_agree_exactly_to_600():
    for N, m, x in valid_pairs(600):
        assert check_candidate(N, m, x) == bitset_reference(N, m, x), (N, m, x)


def test_methods_agree_on_asymmetric_construction():
    c = check_candidate(7, 2, 3)
    assert c == bitset_reference(7, 2, 3)
    assert c.flags() == (False, None, None, None)


def test_methods_agree_on_larger_sample():
    # past the naive oracle's cap, the bit-mask reference is the
    # independent check on the counting engine
    sieve = sieve_primes(30_000)
    sample = [
        (N, m)
        for N in sieve.tolist()[200::37]
        for m in range(2, 40)
        if (N - 1) % (2 * m) == 0
    ]
    assert len(sample) > 30
    for N, m in sample:
        x = smallest_generator(N)
        assert check_candidate(N, m, x) == bitset_reference(N, m, x), (N, m)


def test_check_candidate_rejects_non_generator():
    with pytest.raises(ValueError):
        check_candidate(13, 3, 3)
    with pytest.raises(ValueError):
        bitset_reference(13, 3, 3)
    # composite moduli, then non-generators of a prime modulus; (31, 3,
    # 15) used to come back as a sum_free failure with witness 2
    for N, m, x in [(9, 2, 3), (15, 7, 2), (341, 68, 4), (7, 2, 2), (31, 3, 15),
                    (13, 3, 13), (13, 3, 5)]:
        with pytest.raises(ValueError, match="not a generator"):
            check_candidate(N, m, x)
        with pytest.raises(ValueError):
            bitset_reference(N, m, x)
    with pytest.raises(ValueError, match="class count 5 does not divide 12"):
        check_candidate(13, 5, 2)
    with pytest.raises(ValueError):
        bitset_reference(13, 5, 2)


def test_check_candidate_rejects_every_non_generator_exhaustively():
    # every x for every composite N <= 400, and every non-generator for
    # every prime N <= 200, each with every m dividing N - 1
    sieve = sieve_primes(400)
    tried = 0
    for N in range(3, 401):
        prime = N in sieve
        if prime and N > 200:
            continue
        gens = set()
        if prime:
            exps = [(N - 1) // q for q in prime_factors(N - 1)]
            gens = {x for x in range(1, N) if all(pow(x, e, N) != 1 for e in exps)}
        ms = [m for m in range(1, N) if (N - 1) % m == 0]
        for x in range(1, N):
            if x in gens:
                continue
            for m in ms:
                tried += 1
                try:
                    check_candidate(N, m, x)
                except ValueError:
                    continue
                raise AssertionError(f"check_candidate{(N, m, x)} gave a report")
    assert tried == 415_025


def test_check_candidate_rejects_modulus_past_int64_limit():
    # 2^31 + 11 is prime; its walk would take gigabytes, so the limit
    # must be named before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2147483648"):
            check_candidate(2_147_483_659, 2, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cyclic_basis_failure_builds_no_table(monkeypatch):
    # row 0 of the pair matrix decides the cyclic basis, so only a
    # candidate that reaches the triangle condition builds a class table
    def no_table(*args):
        raise AssertionError("class table built")

    monkeypatch.setattr(classcount, "_half_table", no_table)
    # the first two cyclic-basis failures of the m = 13 sweep
    for N, z in [(53, 3), (131, 4)]:
        rep = check_candidate(N, 13, 2)
        assert rep.witness == Witness("cyclic_basis", (0,), z)
        assert rep == bitset_reference(N, 13, 2)
    with pytest.raises(AssertionError, match="class table built"):
        check_candidate(2441, 20, 6)


def test_witnesses_recheck_against_definitions_to_600():
    for N, m, x in valid_pairs(600):
        rep = check_candidate(N, m, x)
        assert rep == bitset_reference(N, m, x)
        if rep.overall:
            continue
        w = rep.witness
        p = bitmask_partition(N, m, x)
        if w.condition == "sum_free":
            X0 = p.classes[0]
            assert w.residue in X0 and (1 - w.residue) % N in X0
        elif w.condition == "cyclic_basis":
            X0 = p.classes[0]
            S = sumset(X0, X0)
            assert (w.residue in S) != (w.residue in X0.complement())
        elif w.condition == "triangle":
            i = w.classes[1]
            assert w.residue not in sumset(p.classes[0], p.classes[i])
            assert w.residue != 0
        else:
            raise AssertionError(f"unexpected witness {w}")


def test_report_json_round_trip():
    rep = check_candidate(7, 3, 3)
    parsed = json.loads(rep.to_json())
    assert parsed["overall"] is False
    assert parsed["triangle"] is None
    assert parsed["witness"]["condition"] == "cyclic_basis"
    assert CheckReport.from_dict(parsed) == rep

    ok = check_candidate(5, 2, 2)
    parsed = json.loads(ok.to_json())
    assert parsed == {
        "symmetric": True,
        "sum_free": True,
        "cyclic_basis": True,
        "triangle": True,
        "witness": None,
        "overall": True,
    }


def test_report_invariant_enforced():
    doc = CheckReport(Witness("cyclic_basis", (0,), 3)).to_dict()
    with pytest.raises(ValueError, match="disagree"):
        CheckReport.from_dict({**doc, "triangle": True})
    doc = CheckReport().to_dict()
    with pytest.raises(ValueError, match="disagree"):
        CheckReport.from_dict({**doc, "sum_free": False})
    with pytest.raises(ValueError, match="disagree"):
        CheckReport.from_dict({**doc, "overall": False})
    with pytest.raises(ValueError, match="unknown condition"):
        CheckReport.from_dict({**doc, "witness": {"condition": "reflexive",
                                                  "classes": [0], "residue": 1}})
    with pytest.raises(ValueError, match="unknown condition"):
        CheckReport(Witness("reflexive", (0,), 1))


@pytest.mark.parametrize("witness, flags", [
    (None, (True, True, True, True)),
    (Witness("symmetric", (0,), 1), (False, None, None, None)),
    (Witness("sum_free", (0, 0), 4), (True, False, None, None)),
    (Witness("cyclic_basis", (0,), 3), (True, True, False, None)),
    (Witness("triangle", (0, 1), 5), (True, True, True, False)),
], ids=["pass", *CONDITIONS])
def test_report_flags_follow_witness_and_round_trip(witness, flags):
    rep = CheckReport(witness)
    assert rep.flags() == flags
    assert (rep.symmetric, rep.sum_free, rep.cyclic_basis, rep.triangle) == flags
    assert rep.overall is (witness is None)
    assert rep.failed_condition == (None if witness is None else witness.condition)
    d = rep.to_dict()
    assert list(d) == [*CONDITIONS, "witness", "overall"]
    assert tuple(d[c] for c in CONDITIONS) == flags
    assert CheckReport.from_dict(d) == rep
    assert CheckReport.from_dict(json.loads(rep.to_json())) == rep
