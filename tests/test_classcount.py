import numpy as np
import pytest

from ramsey_forge.classcount import (
    PowerCharacter,
    class_columns,
    class_index_table,
    class_zero,
    counting_report,
    pair_sum_class_matrix,
    power_walk,
)
from ramsey_forge.numbertheory import prime_factors, sieve_primes, smallest_generator
from ramsey_forge.partition import build_partition, _build_partition_unchecked


def reference_class_table(N, m, x):
    cls = [-1] * N
    t = 1
    for e in range(N - 1):
        cls[t] = e % m
        t = t * x % N
    return cls


def reference_pair_matrix(N, m, x):
    cls = reference_class_table(N, m, x)
    T = [[0] * m for _ in range(m)]
    for a in range(2, N):
        b = (1 - a) % N
        T[cls[a]][cls[b]] += 1
    return T


def test_class_table_small_example():
    # powers of 2 mod 13: 1,2,4,8,3,6,12,11,9,5,10,7
    cls = class_index_table(13, 3, 2)
    assert cls[0] == -1
    assert cls[1] == 0 and cls[2] == 1 and cls[4] == 2 and cls[8] == 0
    assert cls[12] == 0 and cls[7] == 2


def test_class_table_matches_sequential_walk():
    sieve = sieve_primes(3000)
    for N in sieve.primes.tolist()[2::11]:
        fs = prime_factors(N - 1, sieve)
        x = smallest_generator(N, fs)
        for m in [d for d in range(1, 13) if (N - 1) % d == 0]:
            assert class_index_table(N, m, x).tolist() == reference_class_table(N, m, x), (N, m)


def test_power_walk_lists_successive_powers():
    # lengths around the doubling steps, and products of residues just
    # under 2^31 that int64 must still hold exactly
    for g, n, N in [(2, 0, 13), (2, 1, 13), (2, 12, 13), (3, 7, 97), (5, 33, 97),
                    (3, 1000, 95801), (7, 1025, 2**31 - 1)]:
        assert power_walk(g, n, N).tolist() == [pow(g, e, N) for e in range(n)], (g, n, N)


def test_kernel_matches_power_residue_definition_to_2000():
    # Only pow: class 0 is {z : z^k = 1}, and z lies in class i iff
    # (z * x^-i)^k = z^k * x^(-ik) = 1.  The m values x^(-ik) are
    # distinct for a generator x, so exactly one i fits each z.
    sieve = sieve_primes(2000)
    for N in sieve.primes.tolist()[1:]:
        x = smallest_generator(N, prime_factors(N - 1, sieve))
        for m in [d for d in range(1, N) if (N - 1) % d == 0]:
            k = (N - 1) // m
            zk = [pow(z, k, N) for z in range(N)]
            X0 = class_zero(N, m, x).tolist()
            assert len(X0) == k and X0[0] == 1, (N, m)
            assert set(X0) == {z for z in range(1, N) if zk[z] == 1}, (N, m)
            unit = [pow(x, -i * k, N) for i in range(m)]
            assert len(set(unit)) == m
            cls = class_index_table(N, m, x).tolist()
            assert cls[0] == -1
            for z in range(1, N):
                i = cls[z]
                assert 0 <= i < m and zk[z] * unit[i] % N == 1, (N, m, z)


def test_character_row_is_row_zero_of_pair_matrix_to_2000():
    # Row 0 from the m-th power character must equal row 0 of the full
    # matrix, and with k even the diagonal must read T[d][d] = T[0][-d],
    # which is what lets row 0 alone decide the cyclic basis.
    sieve = sieve_primes(2000)
    for N in sieve.primes.tolist()[1:]:
        x = smallest_generator(N, prime_factors(N - 1, sieve))
        for m in [d for d in range(1, N) if (N - 1) % d == 0 and (N - 1) // d % 2 == 0]:
            cls = class_index_table(N, m, x)
            assert cls.itemsize == (1 if m <= 128 else 2), (N, m)
            T = pair_sum_class_matrix(cls, m)
            row = PowerCharacter(N, m, x).row_zero(class_zero(N, m, x))
            assert row.tolist() == T[0].tolist(), (N, m)
            for d in range(m):
                assert T[d][d] == T[0][-d % m], (N, m, d)


def test_character_classes_and_first_in():
    N, m, x = 2441, 20, 6
    cls = class_index_table(N, m, x)
    char = PowerCharacter(N, m, x)
    z = np.arange(1, N, dtype=np.int64)
    assert char.classes(z).tolist() == cls[1:].tolist()
    for targets in ([0], [7], [3, 19], list(range(1, m))):
        first = int(np.flatnonzero(np.isin(cls, targets))[0])
        assert char.first_in(np.array(targets)) == first, targets


def test_class_table_rejects_non_generator():
    with pytest.raises(ValueError):
        class_index_table(13, 3, 5)
    with pytest.raises(ValueError):
        class_index_table(13, 3, 0)
    with pytest.raises(ValueError):
        class_index_table(13, 5, 2)


def test_class_columns_are_the_classes_and_reject_non_generators():
    cols = class_columns(13, 3, 2)
    assert [sorted(c) for c in cols.T.tolist()] == [[1, 5, 8, 12], [2, 3, 10, 11], [4, 6, 7, 9]]
    # 5 has order 4 mod 13; 3 is no unit mod 9, so its walk never returns to 1
    for N, m, x in [(13, 3, 5), (9, 2, 3), (9, 4, 2)]:
        with pytest.raises(ValueError, match="not a generator"):
            class_columns(N, m, x)
        with pytest.raises(ValueError, match="not a generator"):
            build_partition(N, m, x)
    with pytest.raises(ValueError, match="class count 5 does not divide 12"):
        _build_partition_unchecked(13, 5, 2)


def test_pair_matrix_matches_definition():
    sieve = sieve_primes(2000)
    for N in sieve.primes.tolist()[3::17]:
        fs = prime_factors(N - 1, sieve)
        x = smallest_generator(N, fs)
        for m in [d for d in range(1, 9) if (N - 1) % d == 0]:
            T = pair_sum_class_matrix(class_index_table(N, m, x), m)
            assert T.tolist() == reference_pair_matrix(N, m, x), (N, m)


def test_pair_matrix_row_sums_and_symmetry():
    # ordered pairs (a, 1-a) over a=2..N-1: class p contributes its full
    # size, minus one when p is the class of 1 itself (a=1 is excluded)
    for N, m, x in [(13, 3, 2), (41, 4, 6), (97, 6, 5), (71, 5, 7)]:
        k = (N - 1) // m
        T = pair_sum_class_matrix(class_index_table(N, m, x), m)
        assert np.array_equal(T, T.T)
        sums = T.sum(axis=1)
        assert sums[0] == k - 1
        assert all(int(s) == k for s in sums[1:])


def test_counting_report_worked_examples():
    assert counting_report(5, 2, 2).overall
    assert counting_report(13, 3, 2).overall
    rep = counting_report(7, 3, 3)
    assert rep.flags() == (True, True, False, None)
    assert rep.witness.residue == 3


def test_counting_report_short_circuits_on_odd_k():
    rep = counting_report(7, 2, 3)
    assert rep.flags() == (False, None, None, None)
    assert rep.witness.condition == "symmetric"
    assert rep.witness.classes == (0,)
    assert rep.witness.residue == 1


def test_counting_report_large_value_matches_known_row():
    # spot check at search scale: the m=100 minimum
    assert counting_report(95801, 100, 3).overall


def test_counting_report_rejects_bad_inputs():
    with pytest.raises(ValueError):
        counting_report(13, 5, 2)
    with pytest.raises(ValueError):
        counting_report(13, 3, 13)
    with pytest.raises(ValueError):
        counting_report(13, 3, 5)
