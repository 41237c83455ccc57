"""Single-generator class partitions of the punctured line Z_N \\ {0}.

Fix a prime N = mk + 1 and a generator x of the multiplicative group.
Class zero is the set of m-th power residues

    X_0 = {x^(jm) : 0 <= j < k},

the unique subgroup of order k (unique because the group is cyclic, so
X_0 does not depend on which generator was chosen).  The remaining
classes are its cosets X_i = x * X_{i-1}, and together they partition
Z_N \\ {0} into m classes of k elements each.  Every partition is read
off one walk of builtin products, `generator_walk`, x^0, x^1, ...,
x^(N-2), which shares no kernel with the counting engine: laid out in
rows of m, column i holds x^(jm + i), which is class i.  One sort of
the transposed walk stores each class as an ascending int64 array, the
form the oracle and the edge-coloring export read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .numbertheory import require_generator


@dataclass(frozen=True, eq=False)
class CyclotomicPartition:
    """A validated partition of Z_N \\ {0} into m power classes.

    classes[i] is class i as a read-only, ascending int64 array:
    classes[0] contains 1, classes[i] = x * classes[i-1] (mod N), and
    every class has exactly k = (N - 1) / m elements.
    """

    N: int
    m: int
    k: int
    x: int
    classes: tuple[np.ndarray, ...]


def build_partition(N: int, m: int, x: int) -> CyclotomicPartition:
    """All m classes, read as the columns of `generator_walk(N, x)`.

    Demands N = 1 (mod 2m): with k odd no class is symmetric, so such
    moduli can never carry a valid multi-basis and are rejected here
    rather than wasting checker time downstream.  `require_generator`
    checks N and x before the walk.
    """
    if m < 1 or N % (2 * m) != 1:
        raise ValueError(f"need N = 1 (mod 2m); got N={N}, m={m}")
    require_generator(N, m, x)
    return partition_from_walk(generator_walk(N, x), m)


def generator_walk(N: int, x: int) -> np.ndarray:
    """x^0, x^1, ..., x^(N-2) mod N as int64, one builtin product per
    power, unchecked."""
    powers = accumulate(repeat(x, N - 2), lambda z, _: z * x % N, initial=1)
    return np.fromiter(powers, dtype=np.int64, count=N - 1)


def partition_from_walk(walk: np.ndarray, m: int) -> CyclotomicPartition:
    """The m classes of a generator's walk x^0..x^(N-2), N = len(walk) + 1,
    unchecked: its powers are distinct, so the columns tile Z_N \\ {0}."""
    N = len(walk) + 1
    rows = np.sort(walk.reshape(-1, m).T)
    rows.setflags(write=False)
    return CyclotomicPartition(N, m, (N - 1) // m, int(walk[1]), tuple(rows))
