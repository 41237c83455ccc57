"""Counting engine: the four conditions from the pair-sum class counts.

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

With k even, -1 lies in X_0, so T[0][0] counts the a with a - 1 and a
both in X_0, that is both with z^k = 1.  The sum-free test scans
a = 2, 3, ... for the least such a (`_sum_free_scan`); about one a in
m^2 qualifies, so when k is large against m^2 the scan settles nearly
every candidate long before a walk of class 0 would.

A candidate the scan leaves open walks half of class 0, with no
generator of the whole group: g = y^m, y = `smallest_generator(N, k)`,
has order k, so g^(k/2) = -1, and g^0..g^(k/2) folded by z -> min(z,
N - z) lists X_0 within [1, H], H = (N - 1) / 2.  Sorted, its first
element one above its predecessor is the least a: a pair (a - 1, a)
above H negates to the smaller (N - a, N - a + 1), and (H, H + 1) =
(H, -H) puts 2 = -1/H in X_0, so (1, 2) comes first unless N = 3.
`_class_zero_witnesses` decides the first three conditions for every
caller, one N or a search's block, whose open candidates walk as rows
of one array, each with its own g and N, in groups of at most
`GROUP_ROWS` rows and `BLOCK` residues, a longer row alone.  A row of
smaller k walks on to its group's longest: that only repeats folded
values, so it cannot create a step of one.

T holds the cyclotomic numbers of order m.  With k even, Gauss's
relations (i, j) = (j, i) = (-i, j - i) give T[d][d] = T[0][-d mod m]
(Storer, Cyclotomy and Difference Sets, 1967), so row 0 decides the
cyclic basis.  Row 0 needs no class numbers: z lies in class j iff
z^k = (x^k)^j, so row 0 reaches as many classes as there are distinct
characters (1 - a)^k over X_0 \\ {1}.  A sum-free X_0 is a cyclic basis
iff they take all m - 1 values other than 1, which costs O(k log N) on
the walk and no table.  Only the few candidates that pass the first
three conditions build a class table and the full matrix, for the
triangle condition, whose witness is read off that table; -1 in X_0
lets both read only half the group (see `class_index_table`), and both
run over it in blocks of `BLOCK` residues, so neither allocates an
O(N) int64 array.

A search computes a generator of the whole group only for the few
candidates that reach the triangle, and keeps no witness, so a
cyclic-basis failure there is decided by a count alone.

Every class-0 walk and the first block of the class table come from
one kernel, `power_walk`, which lists g^0..g^(n-1) mod N by doubling:
once the first L powers are known, multiplying them by g^L gives the
next L, and squaring g^L gives the next multiplier.  After `WALK_HEAD`
builtin products, that is about log2(n / WALK_HEAD) vectorised passes;
rows double from g^0 alone.  The table's later blocks take the same
step by g^B.  Each product of two residues stays below 2^62 for any
modulus under 2^31, so int64 is exact; the kernel refuses larger moduli.

The table's block step reduces z as z - (z // N) N rather than z % N:
numpy divides int64 by a scalar with a multiply and a shift, where
`np.remainder` pays one hardware division per element, so on a full
block the three passes cost less than the one.  `power_walk` and
`_power_mod` keep `%`: their arrays are mostly the doubling walk's first
passes and the scan's 64-residue chunks, where a call's fixed cost
outweighs the division.  The matrix tallies each block's codes with
`np.add.at` into one m^2 array, not with `bincount`, which would
allocate and zero a fresh m^2 array per block (1.25 MiB at m = 400).
A pass then stops at the matrix: T has no zero off its diagonal, and
only a triangle failure maps the zeros to classes and walks for z.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import accumulate

import numpy as np

from .numbertheory import MAX_COUNTING_MODULUS, is_generator, smallest_generator
from .report import CheckReport, Witness

# Residues per vectorised pass of the table and matrix builders: 512 KiB
# of int64.  Their working set is then the same at every N, so the
# process peak does not hinge on where the allocator put earlier arrays.
# At this size the table's divide-free step, z - (z // N) N, costs about
# 2.0 ns per residue against 4.5 ns for z % N (2-core Xeon, numpy 2.4.6),
# and one `np.add.at` tally (fast since numpy 1.25) spares the matrix a
# fresh m^2-bin `bincount` per block; the module docstring says why.
BLOCK = 1 << 16
# The sum-free scan gives up past k / SCAN_SHARE residues.  Walking and
# sorting class 0 costs about as much as scanning k/6 to k/8 (2-core
# Xeon, numpy 2.4, N = 2,400,001: 0.09 ms at k = 6,250 against 0.11 ms
# for k/6 and 0.10 ms for k/8; 0.79 ms at k = 50,000 against 0.66 ms for
# k/6; 4.8 ms at k = 300,000 against 5.3 ms for k/6 and 3.8 ms for k/8),
# but the m = 8 and m = 13 sweeps ran no faster with k/6 than with k/4.
SCAN_SHARE = 4
# `power_walk`'s builtin head: a numpy pass over fewer powers costs more.
WALK_HEAD = 32
# Rows per group of class-0 walks, and candidates per serial search block.
GROUP_ROWS = 16


def _refuse_large_modulus(N: int) -> None:
    if N >= MAX_COUNTING_MODULUS:
        raise ValueError(f"modulus {N} too large: need N < 2^31 = {MAX_COUNTING_MODULUS}")


def power_walk(g, n: int, N) -> np.ndarray:
    """g^0, g^1, ..., g^(n-1) mod N as int64: every list of successive
    powers starts here.  g and N are ints, or int64 columns of shape
    (r, 1) that give row i the powers of g[i] mod N[i]; a builtin head
    per row would cost more than the doubling passes it spares.  Refuses
    moduli the int64 products cannot hold before allocating anything."""
    if isinstance(g, np.ndarray):
        _refuse_large_modulus(int(N.max()))
        out = np.empty((len(g), n), dtype=np.int64)
        out[:, :1] = 1
        filled, z = min(n, 1), g
    else:
        _refuse_large_modulus(N)
        out = np.empty(n, dtype=np.int64)
        filled, z = min(n, WALK_HEAD), 1
        for i in range(filled):
            out[i] = z
            z = z * g % N
    # z = g^filled, and each full pass doubles filled
    while filled < n:
        take = min(filled, n - filled)
        seg = out[..., filled : filled + take]
        np.multiply(out[..., :take], z, out=seg)
        np.remainder(seg, N, out=seg)
        filled += take
        z = z * z % N
    return out


def _require_generator(N: int, m: int, x: int) -> None:
    """Raise unless m divides N - 1 and x has order N - 1 mod N, which
    `is_generator` decides; composite moduli are rejected too."""
    if N < 3:
        raise ValueError(f"modulus must be an odd prime, got {N}")
    _refuse_large_modulus(N)
    if m < 1 or (N - 1) % m != 0:
        raise ValueError(f"class count {m} does not divide {N - 1}")
    if not is_generator(x, N):
        raise ValueError(f"x={x} is not a generator mod {N}: its order is below {N - 1}")


def class_columns(N: int, m: int, x: int) -> np.ndarray:
    """The walk x^0..x^(N-2) in rows of m, so column i is class i.

    Raises if m does not divide N - 1 or x does not generate a cyclic
    group of order N - 1 (see `_require_generator`).
    """
    _require_generator(N, m, x)
    return power_walk(x, N - 1, N).reshape(-1, m)


def class_index_table(N: int, m: int, x: int) -> np.ndarray:
    """Half class table h, H = (N - 1) / 2: h[a] is the class of a and of
    N - a (1 <= a <= H), h[0] = -1, in int8 up to m = 128, else int16.

    Needs k = (N - 1) / m even: then -1 = x^H is in class 0, x^(e + H) = -x^e
    has class e mod m (H = km/2), and x^0..x^(H-1) folded by z -> min(z, N - z)
    fills every index 1..H, x being a generator (see `_require_generator`),
    so h starts empty and only h[0] is set beforehand.  The walk
    goes in blocks of B powers, B a multiple of m near `BLOCK` (H = (k/2) m
    is one too), each the last times x^B, so the classes of every block
    repeat 0..m-1 from its start.
    """
    _require_generator(N, m, x)
    if (N - 1) // m % 2:
        raise ValueError(f"no half table for N={N}, m={m}: needs k even, k = (N - 1) / m")
    H = (N - 1) // 2
    B = min(H, m * max(1, BLOCK // m))
    z = power_walk(x, B, N)
    step = pow(x, B, N)
    fold = np.empty_like(z)
    h = np.empty(H + 1, dtype=np.min_scalar_type(-m))
    h[0] = -1
    classes = np.tile(np.arange(m, dtype=h.dtype), B // m)
    for e in range(0, H, B):
        n = min(B, H - e)
        if e:
            # z - (z // N) N: a quotient by a scalar needs no hardware
            # division (see `BLOCK`); it borrows `fold` before the fold
            np.multiply(z, step, out=z)
            np.floor_divide(z, N, out=fold)
            fold *= N
            z -= fold
        np.subtract(N, z[:n], out=fold[:n])
        np.minimum(z[:n], fold[:n], out=fold[:n])
        h[fold[:n]] = classes[:n]
    return h


def pair_sum_class_matrix(h: np.ndarray, m: int) -> np.ndarray:
    """T[p][q] = number of ordered pairs (a, b), a + b = 1, with classes
    (p, q), from the half table h, H = len(h) - 1.  The pairs are
    (a, N + 1 - a), a = 2..N-1.  For a <= H the partner folds to a - 1,
    so A tallies the int64 codes h[a] * m + h[a - 1], `BLOCK` at a time;
    the pairs past H + 1 are their transposes, and a = H + 1 pairs with
    itself in class c = h[H]: T = A + A^T + e_c e_c^T.
    """
    H = h.size - 1
    A = np.zeros(m * m, dtype=np.int64)
    codes = np.empty(min(BLOCK, max(H - 1, 0)), dtype=np.int64)
    for a in range(2, H + 1, BLOCK):
        c = codes[: min(BLOCK, H + 1 - a)]
        np.multiply(h[a : a + c.size], m, out=c, dtype=np.int64)
        c += h[a - 1 : a - 1 + c.size]
        np.add.at(A, c, 1)
    A = A.reshape(m, m)
    return A + A.T + np.diag(np.arange(m) == h[-1])


def _power_mod(z: np.ndarray, e: int, N: int) -> np.ndarray:
    """z^e mod N elementwise for int64 residues z < N and e >= 1, by
    square-and-multiply from the top bit; exact for N < 2^31."""
    out = z.copy()
    for bit in bin(e)[3:]:
        out *= out
        out %= N
        if bit == "1":
            out *= z
            out %= N
    return out


def _first_hit(N: int, hit: Callable[[np.ndarray], np.ndarray]) -> int:
    """The least z in 1..N-1 with hit(z), hit being applied elementwise
    to int64 residues in doubling chunks."""
    lo, size = 1, 64
    while lo < N:
        z = np.arange(lo, min(lo + size, N), dtype=np.int64)
        found = np.flatnonzero(hit(z))
        if found.size:
            return lo + int(found[0])
        lo, size = lo + size, 2 * size
    raise AssertionError("witness class unexpectedly empty")


def _sum_free_scan(N: int, m: int, budget: int) -> int | None:
    """The least a >= 2 with a - 1 and a both in X_0 (z^k = 1), or None
    if the chunks that fit in `budget` residues hold none.  With k even,
    -1 is in X_0, so it is also the least a in X_0 with 1 - a in X_0.
    z runs in doubling chunks that overlap by one, so one power per z
    serves a - 1 and a.
    """
    k = (N - 1) // m
    lo, size = 1, max(64, m * m)
    while lo < N - 1:
        hi = min(lo + size, N - 1)
        if hi - 1 > budget:
            return None
        r = _power_mod(np.arange(lo, hi + 1, dtype=np.int64), k, N) == 1
        hit = np.flatnonzero(r[:-1] & r[1:])
        if hit.size:
            return lo + 1 + int(hit[0])
        lo, size = hi, 2 * size
    return None


def _class_zero_witnesses(Ns: Sequence[int], m: int, explain: bool = True) -> list[Witness | None]:
    """For each N of Ns, the witness to the first of symmetry, sum-free
    and cyclic basis that (N, m) breaks, or None if it meets all three;
    unless `explain`, a cyclic-basis failure has residue None.  The
    caller checks that each N is prime and that m divides N - 1."""
    out: list[Witness | None] = []
    for N in Ns:
        k = (N - 1) // m
        if k % 2:
            # -1 = x^((N-1)/2) falls outside X_0, which makes negation
            # move every class wholesale; the first failing element of
            # class 0 is then simply its minimum, x^0 = 1.
            out.append(Witness("symmetric", (0,), 1))
            continue
        a = _sum_free_scan(N, m, k // SCAN_SHARE)
        out.append(None if a is None else Witness("sum_free", (0, 0), a))
    walked = [N for N, w in zip(Ns, out) if w is None]
    found: list[Witness | None] = []
    while len(found) < len(walked):
        rows = walked[len(found) : len(found) + GROUP_ROWS]
        # a group walks its longest row; rows * walk grows along the rows
        wide = list(accumulate([(N - 1) // m // 2 + 1 for N in rows], max))
        r = max(1, sum(n * i <= BLOCK for i, n in enumerate(wide, 1)))
        found += _walked_witnesses(rows[:r], m, wide[r - 1], explain)
    decided = iter(found)
    return [next(decided) if w is None else w for w in out]


def _walked_witnesses(Ns: list[int], m: int, n: int, explain: bool) -> list[Witness | None]:
    """`_class_zero_witnesses` for one group the scan left open, each
    walking a row of n powers of g = y^m, n > each k/2."""
    col = np.array(Ns, dtype=np.int64)[:, None]
    g = np.array([pow(smallest_generator(N, (N - 1) // m), m, N) for N in Ns])[:, None]
    # a single row takes the builtin head
    X = power_walk(int(g[0, 0]), n, Ns[0])[None] if len(Ns) == 1 else power_walk(g, n, col)
    # N < 2^31, so the folded copy fits int32, which sorts faster
    S = np.minimum(X, col - X).astype(np.int32)
    S.sort(axis=1)
    step = S[:, 1:] - S[:, :-1] == 1
    first = step.argmax(axis=1)
    out: list[Witness | None] = []
    for r, N in enumerate(Ns):
        if step[r, first[r]]:
            out.append(Witness("sum_free", (0, 0), int(S[r, first[r] + 1])))
        elif S[r, -1] == N // 2:  # the pair (H, H + 1): N = 3
            out.append(Witness("sum_free", (0, 0), N // 2 + 1))
        else:
            out.append(_character_witness(N, m, X[r, 1 : (N - 1) // m // 2 + 1], explain))
    return out


def _character_witness(N: int, m: int, half: np.ndarray, explain: bool) -> Witness | None:
    """The cyclic-basis witness of a sum-free X_0, or None if it is a
    cyclic basis, from half = g^1..g^(k/2).  Row 0 of T, T[0][j] =
    #{a in X_0 \\ {1} : 1 - a in X_j}, reaches the classes j of the
    distinct characters (1 - a)^k, none of them 1, and X_0 + X_0 misses
    class j exactly when T[-j][-j] = T[0][j] vanishes.  1 - 1/a =
    -(1 - a)/a with -1 and a in X_0, so a and 1/a share a character, and
    half holds one of each pair."""
    k = (N - 1) // m
    reached = _power_mod(N + 1 - half, k, N)
    reached.sort()
    if np.count_nonzero(reached[1:] != reached[:-1]) + 1 == m - 1:
        return None

    def missed(z):
        zk = _power_mod(z, k, N)
        i = np.minimum(np.searchsorted(reached, zk), reached.size - 1)
        return (zk != 1) & (reached[i] != zk)

    return Witness("cyclic_basis", (0,), _first_hit(N, missed) if explain else None)


def _triangle_witness(N: int, m: int, x: int) -> Witness | None:
    """The triangle witness of (N, m, x), which meets the first three
    conditions: None if T has no zero off its diagonal, else the least z
    whose class, read off the half table, X_0 + X_i misses."""
    # m = 1 never gets here: X_0 is then the whole group and fails
    # sum_free at a = 2.
    h = class_index_table(N, m, x)
    T = pair_sum_class_matrix(h, m)
    # T[0][0] = 0 and the rest of the diagonal is positive, so the
    # triangle holds iff that is the only zero
    if np.count_nonzero(T) == m * m - 1:
        return None
    # gap[p, i]: T[p][p + i] vanishes, so X_0 + X_i misses class -p
    p = np.arange(m)
    q = p[:, None] + p
    q %= m
    gap = (T == 0)[p[:, None], q]
    i = int(np.flatnonzero(gap[:, 1:].any(axis=0))[0]) + 1
    wanted = np.zeros(m, dtype=bool)
    wanted[(m - np.flatnonzero(gap[:, i])) % m] = True
    z = _first_hit(N, lambda z: wanted[h[np.minimum(z, N - z)]])
    return Witness("triangle", (0, i), z)


def counting_report(N: int, m: int, x: int) -> CheckReport:
    """Full four-condition report for the construction (N, m, x), with
    the flag order, short-circuiting and witness conventions of the
    bit-mask reference the tests hold it to."""
    _require_generator(N, m, x)
    witness = _class_zero_witnesses([N], m)[0]
    if witness is None:
        witness = _triangle_witness(N, m, x)
    return CheckReport(witness)
