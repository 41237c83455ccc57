import pytest

from ramsey_forge.numbertheory import (
    is_generator,
    prime_factors,
    sieve_primes,
    smallest_generator,
)


def naive_is_prime(n: int) -> bool:
    # independent reference: plain trial division
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_sieve_small():
    s = sieve_primes(10)
    assert s.tolist() == [2, 3, 5, 7]
    assert 5 in s
    assert 9 not in s
    assert 0 not in s and 1 not in s


def test_sieve_rejects_tiny_bound():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_sieve_matches_trial_division_to_2000():
    is_prime = set(sieve_primes(2000).tolist())
    for n in range(2001):
        assert (n in is_prime) == naive_is_prime(n), n


def test_sieve_default_bound_edge():
    # the largest prime at the default search bound, confirmed by trial
    # division here before trusting the sieve with it
    assert naive_is_prime(1999993)
    assert all(not naive_is_prime(n) for n in range(1999994, 2000001))
    s = sieve_primes(2_000_000)
    assert int(s[-1]) == 1999993


def test_sieve_is_readonly():
    s = sieve_primes(100)
    with pytest.raises(ValueError):
        s[0] = 4


@pytest.mark.parametrize(
    "n,expected",
    [(2, (2,)), (4, (2,)), (12, (2, 3)), (40, (2, 5)), (97, (97,)), (96, (2, 3))],
)
def test_prime_factors_examples(n, expected):
    assert prime_factors(n) == expected


def test_prime_factors_rejects_small():
    for n in (-5, 0, 1):
        with pytest.raises(ValueError):
            prime_factors(n)


def test_prime_factors_at_the_edge_of_the_factor_base():
    # the base holds the primes up to isqrt(2^31) = 46340, the largest
    # being 46337; past 2^31 a leftover need no longer be prime
    assert naive_is_prime(46337) and not any(map(naive_is_prime, range(46338, 46341)))
    assert prime_factors(46337**2) == (46337,)
    assert naive_is_prime(2**31 - 1)
    assert prime_factors(2**31 - 1) == (2**31 - 1,)
    assert prime_factors(2**31) == (2,)
    for n in (1, 2**31 + 1):
        with pytest.raises(ValueError, match=r"need 2 <= n <= 2\^31"):
            prime_factors(n)
    assert smallest_generator(2**31 - 1) == 7


def test_prime_factors_reconstructs_every_n_to_100000():
    for n in range(2, 100_001):
        fs = prime_factors(n)
        assert fs == tuple(sorted(fs))
        rebuilt = n
        for p in fs:
            assert rebuilt % p == 0
            while rebuilt % p == 0:
                rebuilt //= p
        assert rebuilt == 1, n


@pytest.mark.parametrize("N,x", [(5, 2), (7, 3), (13, 2), (41, 6), (71, 7), (97, 5)])
def test_smallest_generator_known_values(N, x):
    assert smallest_generator(N) == x


def test_smallest_generator_trivial_modulus():
    # 1 is the one element of the trivial group, and generates it
    assert smallest_generator(2) == 1
    assert is_generator(1, 2) and not is_generator(0, 2)


def test_is_generator_matches_order_computation():
    for N in (5, 7, 11, 13, 17, 19, 23):
        for x in range(1, N):
            order = 1
            t = x % N
            while t != 1:
                t = t * x % N
                order += 1
            assert is_generator(x, N) == (order == N - 1), (N, x)


def test_smallest_generator_generates_full_cycle_all_primes_to_10000():
    for N in sieve_primes(10_000).tolist():
        if N == 2:
            continue
        x = smallest_generator(N)
        seen = set()
        t = 1
        for _ in range(N - 1):
            seen.add(t)
            t = t * x % N
        assert len(seen) == N - 1, N
        assert t == 1, N


def walk_order(g, N):
    """The multiplicative order of the unit g mod N, by a plain walk."""
    order, t = 1, g % N
    while t != 1:
        t = t * g % N
        order += 1
    return order


def test_smallest_generator_of_each_subgroup_all_primes_to_2000():
    # y = smallest_generator(N, k) is the least y >= 2 whose power
    # y^((N-1)/k) generates the subgroup of order k
    for N in sieve_primes(2000).tolist()[1:]:
        for k in [d for d in range(1, N) if (N - 1) % d == 0]:
            e = (N - 1) // k
            y = smallest_generator(N, k)
            assert walk_order(pow(y, e, N), N) == k, (N, k)
            assert all(walk_order(pow(z, e, N), N) != k for z in range(2, y)), (N, k)
        assert smallest_generator(N, N - 1) == smallest_generator(N)


def test_is_generator_is_lucas_test_to_300():
    # a composite N has no unit of order N - 1, so Fermat's x^(N-1) = 1
    # fails first; on primes the verdict is the order walk's, N = 2 too
    assert not is_generator(3, 9) and not is_generator(2, 9)
    primes = set(sieve_primes(300).tolist())
    for N in range(2, 301):
        for x in range(N):
            expected = N in primes and x > 0 and walk_order(x, N) == N - 1
            assert is_generator(x, N) == expected, (N, x)
