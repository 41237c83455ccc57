import numpy as np
import pytest

from ramsey_forge import partition
from ramsey_forge.numbertheory import is_generator, sieve_primes
from ramsey_forge.partition import build_partition, generator_walk


def assert_tiles(p):
    """Classes are read-only ascending int64 arrays of k elements each
    that together hold every nonzero residue exactly once."""
    for c in p.classes:
        assert c.dtype == np.int64 and not c.flags.writeable
        assert len(c) == p.k
        assert (np.diff(c) > 0).all()
    assert np.sort(np.concatenate(p.classes)).tolist() == list(range(1, p.N))


def test_partition_worked_example():
    p = build_partition(13, 3, 2)
    assert [c.tolist() for c in p.classes] == [
        [1, 5, 8, 12],
        [2, 3, 10, 11],
        [4, 6, 7, 9],
    ]
    assert (p.N, p.m, p.k, p.x) == (13, 3, 4, 2)


def test_partition_two_classes_mod_5():
    p = build_partition(5, 2, 2)
    assert [c.tolist() for c in p.classes] == [[1, 4], [2, 3]]


def test_partition_tiles_exactly():
    p = build_partition(41, 4, 6)
    assert_tiles(p)
    assert sum(len(c) for c in p.classes) == 40
    assert 1 in p.classes[0]


def test_partition_rejects_odd_k():
    # 7 = 2*3 + 1 with m=2 gives k=3: no symmetric class structure
    with pytest.raises(ValueError):
        build_partition(7, 2, 3)
    with pytest.raises(ValueError):
        build_partition(13, 4, 2)
    # 13 = 1 mod 4, so m=2 is fine there
    build_partition(13, 2, 2)


def test_partition_rejects_subgroup_sized_non_generator():
    # 5 has order 4 mod 13: its m-th powers still fill the order-4
    # subgroup, so class zero looks fine, but the cosets collide
    with pytest.raises(ValueError):
        build_partition(13, 3, 5)


def test_generator_walk_lists_successive_powers():
    # x^0..x^(N-2), with N = 3 the shortest walk a partition can have
    for N, x in [(3, 2), (5, 2), (13, 2), (97, 5), (2003, 5)]:
        walk = generator_walk(N, x)
        assert walk.dtype == np.int64 and walk.tolist() == [pow(x, e, N) for e in range(N - 1)]


def test_partition_refuses_a_non_generator_before_walking(monkeypatch):
    # Lucas's test comes first, so a modulus near 2^31 never walks
    def unreachable(*args):
        raise AssertionError("walked before the generator check")

    monkeypatch.setattr(partition, "generator_walk", unreachable)
    for N, m, x in [(13, 3, 5), (13, 3, 13), (9, 2, 3), (2**31 - 1, 1, 1)]:
        with pytest.raises(ValueError, match="not a generator"):
            build_partition(N, m, x)


def test_class_chain_is_generator_scaling():
    for N, m, x in [(13, 3, 2), (41, 4, 6), (29, 2, 2), (71, 5, 7)]:
        p = build_partition(N, m, x)
        for i in range(1, m):
            scaled = sorted(a * x % N for a in p.classes[i - 1].tolist())
            assert p.classes[i].tolist() == scaled, (N, m, i)


def test_class_zero_is_generator_independent_all_primes_to_500():
    # the m-th powers form the unique subgroup of index m, so every
    # generator produces the same class zero
    sieve = sieve_primes(500)
    for N in sieve.tolist():
        if N < 3:
            continue
        walks = [generator_walk(N, x) for x in range(2, N) if is_generator(x, N)]
        for m in range(1, N):
            if (N - 1) % m != 0:
                continue
            # column 0 of the walk in rows of m, odd k included
            reference = np.sort(walks[0][::m])
            for walk in walks[1:]:
                assert np.array_equal(np.sort(walk[::m]), reference), (N, m, walk[1])


def test_partitions_tile_for_all_valid_m_to_500():
    sieve = sieve_primes(500)
    universe = {}
    for N in sieve.tolist():
        if N < 5:
            continue
        x = next(g for g in range(2, N) if is_generator(g, N))
        for m in range(1, N):
            if (N - 1) % (2 * m) != 0:
                continue
            assert_tiles(build_partition(N, m, x))
