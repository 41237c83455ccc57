"""Single-generator class partitions of the punctured line Z_N \\ {0}.

Fix a prime N = mk + 1 and a generator x of the multiplicative group.
Class zero is the set of m-th power residues

    X_0 = {x^(jm) : 0 <= j < k},

the unique subgroup of order k (unique because the group is cyclic, so
X_0 does not depend on which generator was chosen).  The remaining
classes are its cosets X_i = x * X_{i-1}, and together they partition
Z_N \\ {0} into m classes of k elements each.  All m are read off one
power walk x^0, x^1, ..., x^(N-2): laid out in rows of m, column i
holds x^(jm + i), which is class i.  One sort of the transposed walk
stores each class as an ascending int64 array, the form the oracle
and the edge-coloring export read.

Constructors reject inputs that cannot produce a usable partition:
build_partition additionally requires N = 1 (mod 2m), i.e. k even,
because odd k makes -1 land outside X_0 and every class asymmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classcount import class_columns


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

    def __iter__(self):
        return iter(self.classes)


def build_partition(N: int, m: int, x: int) -> CyclotomicPartition:
    """All m classes, read as the columns of one power walk of x.

    Demands N = 1 (mod 2m): with k odd no class is symmetric, so such
    moduli can never carry a valid multi-basis and are rejected here
    rather than wasting checker time downstream.  Raises if x is not a
    generator.
    """
    if m < 1 or N % (2 * m) != 1:
        raise ValueError(f"need N = 1 (mod 2m); got N={N}, m={m}")
    # A generator's N - 1 powers are distinct, so the columns of its walk
    # tile Z_N \ {0}; class_columns raises for any x that is no generator.
    rows = np.sort(class_columns(N, m, x).T)
    rows.setflags(write=False)
    return CyclotomicPartition(N, m, (N - 1) // m, x % N, tuple(rows))
