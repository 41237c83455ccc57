"""Primality, factorization, and primitive roots for the prime moduli
the search runs over.

Everything here is exact integer arithmetic.  Every modulus N is below
2^31 (`MAX_COUNTING_MODULUS`), so one factor base, the primes up to
sqrt(2^31), built once per process, factors every N - 1 by trial
division; `prime_factors`, `is_generator` and `smallest_generator`
read it and take no sieve of their own.  `sieve_primes` serves the
callers that list primes: the factor base itself, the progression
sieve of `search.candidate_primes` and the oracle's scan to 2000.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

import numpy as np

# Moduli stay below 2^31: the int64 power kernels square residues, and
# the factor base reaches sqrt(2^31).
MAX_COUNTING_MODULUS = 1 << 31


def sieve_primes(bound: int) -> np.ndarray:
    """The primes <= bound, ascending, as a read-only int64 array, by
    Eratosthenes over 0..bound; rejects bound < 2."""
    if bound < 2:
        raise ValueError(f"sieve bound must be >= 2, got {bound}")
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags)
    primes.setflags(write=False)
    return primes


@cache
def _factor_base() -> np.ndarray:
    """The primes up to sqrt(2^31): every composite n <= 2^31 has one."""
    return sieve_primes(isqrt(MAX_COUNTING_MODULUS))


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending, for 2 <= n <= 2^31.

    Trial division by the factor base up to sqrt of what remains;
    whatever is left over is itself prime.
    """
    if not 2 <= n <= MAX_COUNTING_MODULUS:
        raise ValueError(f"cannot factor {n}; need 2 <= n <= 2^31 = {MAX_COUNTING_MODULUS}")
    rem = n
    out: list[int] = []
    # the loop mostly stops within a few primes, and a memoryview yields
    # Python ints one at a time instead of converting the whole array
    for p in memoryview(_factor_base()):
        if p * p > rem:
            break
        if rem % p == 0:
            out.append(p)
            while rem % p == 0:
                rem //= p
    if rem > 1:
        out.append(rem)
    return tuple(out)


def is_generator(x: int, N: int) -> bool:
    """True iff x generates the full multiplicative group mod N, by
    Lucas's test: x^(N-1) = 1 makes the order of x divide N - 1, and
    x^((N-1)/p) != 1 for every distinct prime p of N - 1 makes it exactly
    N - 1.  No unit mod a composite N has that order, so it is then False.
    Mod 2, x = 1 generates the trivial group, as `smallest_generator` says."""
    if pow(x, N - 1, N) != 1:
        return False
    return N == 2 or all(pow(x, (N - 1) // p, N) != 1 for p in prime_factors(N - 1))


def smallest_generator(N: int, k: int | None = None) -> int:
    """Least y >= 2 with y^((N-1)/q) != 1 for every prime q dividing k,
    for prime N and k dividing N - 1, by default N - 1.

    Then y^((N-1)/k) has order exactly k: its order divides k, and
    (y^((N-1)/k))^(k/q) = y^((N-1)/q) != 1 is all it can lose.  With k =
    N - 1 that is the least generator of the group mod N.  A prime
    modulus always has one, so this terminates.
    """
    if N < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {N}")
    if N == 2:
        return 1
    k = N - 1 if k is None else k
    exps = [(N - 1) // q for q in prime_factors(k)] if k > 1 else []
    y = 2
    while any(pow(y, e, N) == 1 for e in exps):
        y += 1
    return y
