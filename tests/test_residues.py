import random

import pytest

from reference import ResidueSet, sumset


def brute_sumset(N, A, B):
    return {(a + b) % N for a in A for b in B}


def test_from_elements_and_membership():
    s = ResidueSet.from_elements(13, [1, 5, 8, 12])
    assert len(s) == 4
    assert s.elements() == [1, 5, 8, 12]
    assert 5 in s
    assert 2 not in s


def test_membership_rejects_out_of_range():
    s = ResidueSet.from_elements(5, [1, 4])
    for j in (-1, 5, 17):
        with pytest.raises(ValueError):
            j in s


def test_from_elements_rejects_out_of_range():
    with pytest.raises(ValueError):
        ResidueSet.from_elements(5, [5])
    with pytest.raises(ValueError):
        ResidueSet.from_elements(5, [-1])


def test_constructor_rejects_stray_bits():
    with pytest.raises(ValueError):
        ResidueSet(3, 1 << 3)
    with pytest.raises(ValueError):
        ResidueSet(0, 0)


def test_immutability_and_hash():
    s = ResidueSet.from_elements(7, [1, 6])
    with pytest.raises(AttributeError):
        s.N = 11
    assert s == ResidueSet.from_elements(7, [6, 1])
    assert hash(s) == hash(ResidueSet.from_elements(7, [6, 1]))
    assert s != ResidueSet.from_elements(11, [1, 6])


def test_iteration_is_ascending():
    s = ResidueSet.from_elements(50, [40, 3, 17, 0, 49])
    assert list(s) == [0, 3, 17, 40, 49]


def test_set_algebra():
    a = ResidueSet.from_elements(10, [1, 2, 3])
    b = ResidueSet.from_elements(10, [3, 4])
    assert (a | b).elements() == [1, 2, 3, 4]
    assert (a & b).elements() == [3]
    assert a.complement().elements() == [0, 4, 5, 6, 7, 8, 9]
    with pytest.raises(ValueError):
        a | ResidueSet.from_elements(11, [1])


def test_nonzero_universe():
    u = ResidueSet.nonzero(5)
    assert u.elements() == [1, 2, 3, 4]
    assert 0 not in u


def test_negate():
    s = ResidueSet.from_elements(7, [1, 2, 5])
    assert s.negated().elements() == [2, 5, 6]
    assert ResidueSet.from_elements(9, [0, 4, 5]).negated().elements() == [0, 4, 5]


def test_sumset_worked_example():
    # {1,4} + {1,4} mod 5: 1+1=2, 1+4=0, 4+4=3
    x0 = ResidueSet.from_elements(5, [1, 4])
    assert sumset(x0, x0).elements() == [0, 2, 3]


def test_sumset_identity_and_empty():
    a = ResidueSet.from_elements(9, [2, 5, 7])
    zero = ResidueSet.from_elements(9, [0])
    empty = ResidueSet.empty(9)
    assert sumset(a, zero) == a
    assert sumset(zero, a) == a
    assert sumset(a, empty) == empty
    assert sumset(empty, empty) == empty


def test_sumset_rejects_modulus_mismatch():
    with pytest.raises(ValueError):
        sumset(ResidueSet.empty(5), ResidueSet.empty(7))


def test_sumset_matches_brute_force_random_sets():
    rng = random.Random(20260814)
    for N in range(1, 65):
        for _ in range(8):
            A = {rng.randrange(N) for _ in range(rng.randrange(N + 1))}
            B = {rng.randrange(N) for _ in range(rng.randrange(N + 1))}
            got = sumset(
                ResidueSet.from_elements(N, A), ResidueSet.from_elements(N, B)
            )
            assert set(got) == brute_sumset(N, A, B), (N, A, B)


def test_sumset_symmetric_set_equals_difference_set():
    # for X closed under negation, X + X and X - X coincide
    rng = random.Random(99)
    for N in range(2, 64):
        half = {rng.randrange(1, N) for _ in range(N // 3 + 1)}
        X = half | {(N - a) % N for a in half}
        rs = ResidueSet.from_elements(N, X)
        diff = {(a - b) % N for a in X for b in X}
        assert set(sumset(rs, rs)) == diff, N


def test_repr_small_and_large():
    assert "1, 4" in repr(ResidueSet.from_elements(5, [1, 4]))
    assert "size=50" in repr(ResidueSet.from_elements(100, range(50)))
