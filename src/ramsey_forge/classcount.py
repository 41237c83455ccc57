"""Counting engine: all four conditions from one O(N) pass.

Label every nonzero residue with the index of the power class that
contains it: cls[x^e mod N] = e mod m.  For classes p, q let

    T[p][q] = #{(a, b) : a + b = 1 (mod N), a, b != 0, cls[a] = p, cls[b] = q}.

T determines the whole sumset structure.  For any nonzero z of class j,
multiplying a representation 1 = a + b through by z bijects it with a
representation z = az + bz whose parts lie in classes shifted up by j.
Hence z has exactly T[(p - j) mod m][(q - j) mod m] representations as
a sum from X_p + X_q, and:

    * classes are symmetric      iff  k = (N - 1) / m is even,
    * class 0 is sum-free        iff  T[0][0] == 0,
    * class 0 is a cyclic basis  iff  symmetric and T[d][d] > 0
                                      for d = 1..m-1,
    * every distinct pair covers Z_N \\ {0}  iff  T[p][q] > 0 for all
                                      p != q  (pairs (0, i) suffice:
                                      scaling by x^i shifts both class
                                      indices, reaching every pair).

Every class-0 walk and the class table come from one kernel,
`power_walk`, which lists g^0..g^(n-1) mod N by doubling: once the
first L powers are known, multiplying them by g^L gives the next L.
That is about log2(n) vectorised passes and no per-element Python
loop.  Each product of two residues stays below 2^62 for any modulus
under 2^31, so int64 is exact; the kernel refuses larger moduli.
"""

from __future__ import annotations

import numpy as np

from .report import CheckReport, Witness

MAX_COUNTING_MODULUS = 1 << 31


def power_walk(g: int, n: int, N: int) -> np.ndarray:
    """g^0, g^1, ..., g^(n-1) mod N as int64: the one place that lists
    successive powers.  Refuses moduli the int64 products cannot hold
    before allocating anything.
    """
    if N >= MAX_COUNTING_MODULUS:
        raise ValueError(
            f"modulus {N} too large: power walks need N < 2^31 = {MAX_COUNTING_MODULUS}"
        )
    out = np.empty(n, dtype=np.int64)
    out[:1] = 1
    filled = 1
    while filled < n:
        take = min(filled, n - filled)
        head = out[filled : filled + take]
        np.multiply(out[:take], pow(g, filled, N), out=head)
        np.remainder(head, N, out=head)
        filled += take
    return out


def class_zero(N: int, m: int, x: int) -> np.ndarray:
    """The order-k subgroup X_0 = {x^(jm) : 0 <= j < k}, k = (N - 1) / m,
    in walk order (so it starts at 1).

    Rejects m not dividing N - 1, and rejects x whose powers close up
    early (fewer than k distinct elements means x is not a generator).
    """
    if N < 3:
        raise ValueError(f"modulus must be an odd prime, got {N}")
    if m < 1 or (N - 1) % m != 0:
        raise ValueError(f"class count {m} does not divide {N - 1}")
    if x % N == 0:
        raise ValueError(f"generator {x} is 0 mod {N}")
    k = (N - 1) // m
    X = power_walk(pow(x, m, N), k, N)
    repeat = np.flatnonzero(X[1:] == 1)
    if repeat.size:
        raise ValueError(
            f"x={x} yields only {int(repeat[0]) + 1} of {k} class elements mod {N}; "
            "not a generator"
        )
    return X


def sum_free_violations(X: np.ndarray, N: int) -> np.ndarray:
    """The a in the subgroup X_0 with 1 - a also in X_0, in walk order.

    Empty iff X_0 is sum-free: a + b = c inside X_0 divides through by
    c to 1 = a/c + b/c, with both parts still in the subgroup.
    """
    mask = np.zeros(N, dtype=bool)
    mask[X] = True
    return X[mask[(1 - X) % N]]


def class_index_table(N: int, m: int, x: int) -> np.ndarray:
    """cls array of length N: cls[x^e] = e mod m, cls[0] = -1.

    Raises if x does not generate the full group.
    """
    if m < 1 or (N - 1) % m != 0:
        raise ValueError(f"class count {m} does not divide {N - 1}")
    # row j of the reshaped walk is x^(jm), ..., x^(jm + m - 1): classes 0..m-1
    powers = class_zero(N, 1, x).reshape(-1, m)
    cls = np.full(N, -1, dtype=np.int64)
    cls[powers] = np.arange(m, dtype=np.int64)
    return cls


def pair_sum_class_matrix(cls: np.ndarray, m: int) -> np.ndarray:
    """T[p][q] = number of ordered pairs (a, b), a + b = 1, with classes (p, q).

    The pairs are (a, N + 1 - a) for a = 2..N-1, so the partner classes
    are just the class slice reversed.
    """
    u = cls[2:]
    v = u[::-1]
    return np.bincount(u * m + v, minlength=m * m).reshape(m, m)


def _first_residue_in_classes(cls: np.ndarray, classes: set[int]) -> int:
    mask = np.isin(cls, sorted(classes))
    idx = int(mask.argmax())
    if not mask[idx]:
        raise AssertionError("witness class unexpectedly empty")
    return idx


def counting_report(N: int, m: int, x: int) -> CheckReport:
    """Full four-condition report for the construction (N, m, x).

    Same flag order, short-circuiting, and witness conventions as the
    bit-mask reference in `checker`, but the class/count pass replaces
    per-class sumsets, so cost is O(N).  The sum-free test on class 0
    alone rejects most candidates before the table is ever built.
    """
    X = class_zero(N, m, x)
    if X.size % 2 != 0:
        # -1 = x^((N-1)/2) falls outside X_0, which makes negation move
        # every class wholesale; the first failing element of class 0 is
        # then simply its minimum.
        w = Witness("symmetric", (0,), int(X.min()))
        return CheckReport(False, None, None, None, w)

    bad = sum_free_violations(X, N)
    if bad.size:
        w = Witness("sum_free", (0, 0), int(bad.min()))
        return CheckReport(True, False, None, None, w)

    cls = class_index_table(N, m, x)
    T = pair_sum_class_matrix(cls, m)

    diag = T.diagonal()
    failing_d = np.flatnonzero(diag[1:] == 0) + 1
    if failing_d.size:
        # z of class j is missed by X_0 + X_0 exactly when the diagonal
        # entry at d = -j mod m vanishes.
        js = {(m - int(d)) % m for d in failing_d}
        z = _first_residue_in_classes(cls, js)
        w = Witness("cyclic_basis", (0,), z)
        return CheckReport(True, True, False, None, w)

    if m > 1:
        off = ~np.eye(m, dtype=bool)
        if int(T[off].min()) == 0:
            p_all = np.arange(m)
            for i in range(1, m):
                vec = T[p_all, (p_all + i) % m]
                zero_p = np.flatnonzero(vec == 0)
                if zero_p.size:
                    js = {(m - int(p)) % m for p in zero_p}
                    z = _first_residue_in_classes(cls, js)
                    w = Witness("triangle", (0, i), z)
                    return CheckReport(True, True, True, False, w)
            raise AssertionError("off-diagonal zero vanished during witness scan")

    return CheckReport.all_passed()
