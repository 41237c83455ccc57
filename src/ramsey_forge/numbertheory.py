"""Primality, factorization, and primitive roots for the prime moduli
the search runs over.

Everything here is exact integer arithmetic.  Sieves stay small: the
primes up to sqrt(N) factor N - 1 by trial division and seed the
progression sieve of `search.candidate_primes`, and only the oracle's
scan sieves a whole range, 0..2000.  Factorization and generator search
stay cheap because every modulus N we care about satisfies N = mk + 1
with k even, so the numbers involved fit comfortably in machine words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np


@dataclass(frozen=True, eq=False)
class PrimeSieve:
    """Exact primality table for 0..bound inclusive.

    The flag array is marked read-only so a single sieve can be shared
    freely between threads and worker processes.
    """

    bound: int
    is_prime: np.ndarray

    @cached_property
    def primes(self) -> np.ndarray:
        """All primes <= bound, ascending."""
        p = np.nonzero(self.is_prime)[0]
        p.setflags(write=False)
        return p

    def __contains__(self, n: int) -> bool:
        if not 0 <= n <= self.bound:
            raise ValueError(f"{n} outside sieve range 0..{self.bound}")
        return bool(self.is_prime[n])


def sieve_primes(bound: int) -> PrimeSieve:
    """Eratosthenes over 0..bound; rejects bound < 2."""
    if bound < 2:
        raise ValueError(f"sieve bound must be >= 2, got {bound}")
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    flags.setflags(write=False)
    return PrimeSieve(bound, flags)


@dataclass(frozen=True)
class FactorSet:
    """The distinct prime divisors of n, ascending (multiplicities dropped)."""

    n: int
    distinct_primes: tuple[int, ...]


def prime_factors(n: int, sieve: PrimeSieve) -> FactorSet:
    """Distinct prime factors of n by trial division against the sieve.

    Requires n >= 2.  The sieve must reach sqrt(n); whatever remains
    after dividing out all primes up to sqrt(n) is itself prime.
    """
    if n < 2:
        raise ValueError(f"cannot factor {n}; need n >= 2")
    rem = n
    out: list[int] = []
    # the loop mostly stops within a few primes, and a memoryview yields
    # Python ints one at a time instead of converting the whole array
    for p in memoryview(sieve.primes):
        if p * p > rem:
            break
        if rem % p == 0:
            out.append(p)
            while rem % p == 0:
                rem //= p
    else:
        if rem > 1 and isqrt(rem) > sieve.bound:
            raise ValueError(f"sieve bound {sieve.bound} too small to factor {n}")
    if rem > 1:
        out.append(rem)
    return FactorSet(n, tuple(out))


def mod_pow(base: int, exp: int, N: int) -> int:
    """base**exp mod N for N >= 2, exp >= 0.  Thin guard over builtin pow."""
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    if exp < 0:
        raise ValueError(f"exponent must be >= 0, got {exp}")
    return pow(base % N, exp, N)


def is_generator(x: int, N: int, factors: FactorSet) -> bool:
    """True iff x generates the full multiplicative group mod prime N.

    `factors` must factor N - 1.  x generates iff x^((N-1)/p) != 1 for
    every distinct prime p of N - 1.
    """
    if factors.n != N - 1:
        raise ValueError(f"factor set is for {factors.n}, expected {N - 1}")
    if x % N == 0:
        return False
    return all(pow(x, (N - 1) // p, N) != 1 for p in factors.distinct_primes)


def smallest_generator(N: int, factors: FactorSet | None = None) -> int:
    """Least x >= 2 generating the multiplicative group mod prime N.

    A prime modulus always has one, so this terminates.  Pass the
    factorization of N - 1 when the caller already has it; otherwise a
    small sieve up to sqrt(N - 1) is built on demand.
    """
    if N < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {N}")
    if N == 2:
        return 1
    if factors is None:
        factors = prime_factors(N - 1, sieve_primes(isqrt(N - 1) + 1))
    elif factors.n != N - 1:
        raise ValueError(f"factor set is for {factors.n}, expected {N - 1}")
    exps = [(N - 1) // p for p in factors.distinct_primes]
    x = 2
    while True:
        if all(pow(x, e, N) != 1 for e in exps):
            return x
        x += 1
