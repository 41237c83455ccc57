import pytest

from ramsey_forge.numbertheory import (
    FactorSet,
    is_generator,
    mod_pow,
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
    assert s.primes.tolist() == [2, 3, 5, 7]
    assert 5 in s
    assert 9 not in s
    assert 0 not in s and 1 not in s


def test_sieve_rejects_tiny_bound():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_sieve_rejects_out_of_range_query():
    s = sieve_primes(10)
    with pytest.raises(ValueError):
        11 in s


def test_sieve_matches_trial_division_to_2000():
    s = sieve_primes(2000)
    for n in range(2001):
        assert bool(s.is_prime[n]) == naive_is_prime(n), n


def test_sieve_default_bound_edge():
    # the largest prime at the default search bound, confirmed by trial
    # division here before trusting the sieve with it
    assert naive_is_prime(1999993)
    assert all(not naive_is_prime(n) for n in range(1999994, 2000001))
    s = sieve_primes(2_000_000)
    assert int(s.primes[-1]) == 1999993


def test_sieve_is_readonly():
    s = sieve_primes(100)
    with pytest.raises(ValueError):
        s.is_prime[4] = True


@pytest.mark.parametrize(
    "n,expected",
    [(2, (2,)), (4, (2,)), (12, (2, 3)), (40, (2, 5)), (97, (97,)), (96, (2, 3))],
)
def test_prime_factors_examples(n, expected):
    s = sieve_primes(100)
    assert prime_factors(n, s) == FactorSet(n, expected)


def test_prime_factors_rejects_small():
    s = sieve_primes(100)
    for n in (-5, 0, 1):
        with pytest.raises(ValueError):
            prime_factors(n, s)


def test_prime_factors_rejects_undersized_sieve():
    # 101 * 103: both factors exceed the sieve, trial division cannot finish
    with pytest.raises(ValueError):
        prime_factors(101 * 103, sieve_primes(10))


def test_prime_factors_reconstructs_every_n_to_100000():
    s = sieve_primes(400)
    for n in range(2, 100_001):
        fs = prime_factors(n, s)
        assert fs.distinct_primes == tuple(sorted(fs.distinct_primes))
        rebuilt = n
        for p in fs.distinct_primes:
            assert rebuilt % p == 0
            while rebuilt % p == 0:
                rebuilt //= p
        assert rebuilt == 1, n


def test_mod_pow_examples():
    assert mod_pow(2, 6, 13) == 12
    assert mod_pow(2, 0, 13) == 1
    assert mod_pow(0, 0, 7) == 1
    assert mod_pow(5, 1, 5) == 0


def test_mod_pow_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mod_pow(2, 3, 1)
    with pytest.raises(ValueError):
        mod_pow(2, 3, 0)
    with pytest.raises(ValueError):
        mod_pow(2, -1, 7)


def test_mod_pow_agrees_with_repeated_multiplication():
    for N in range(2, 101):
        for base in range(N):
            acc = 1 % N
            for exp in range(51):
                assert mod_pow(base, exp, N) == acc, (base, exp, N)
                acc = acc * base % N


@pytest.mark.parametrize("N,x", [(5, 2), (7, 3), (13, 2), (41, 6), (71, 7), (97, 5)])
def test_smallest_generator_known_values(N, x):
    assert smallest_generator(N) == x


def test_smallest_generator_trivial_modulus():
    assert smallest_generator(2) == 1


def test_smallest_generator_checks_factorization_target():
    s = sieve_primes(100)
    wrong = prime_factors(10, s)
    with pytest.raises(ValueError):
        smallest_generator(13, wrong)
    with pytest.raises(ValueError):
        is_generator(2, 13, wrong)


def test_is_generator_matches_order_computation():
    s = sieve_primes(200)
    for N in (5, 7, 11, 13, 17, 19, 23):
        fs = prime_factors(N - 1, s)
        for x in range(1, N):
            order = 1
            t = x % N
            while t != 1:
                t = t * x % N
                order += 1
            assert is_generator(x, N, fs) == (order == N - 1), (N, x)


def test_smallest_generator_generates_full_cycle_all_primes_to_10000():
    s = sieve_primes(10_000)
    for N in s.primes.tolist():
        if N == 2:
            continue
        fs = prime_factors(N - 1, s)
        x = smallest_generator(N, fs)
        seen = set()
        t = 1
        for _ in range(N - 1):
            seen.add(t)
            t = t * x % N
        assert len(seen) == N - 1, N
        assert t == 1, N
