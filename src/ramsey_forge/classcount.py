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
every candidate long before a walk of class 0 would.  It scans a
search's whole block at once, in chunks that every row shares.
z -> z^k mod N is a character (Berndt, Evans and Williams, Gauss and
Jacobi Sums, 1998), completely multiplicative, so a chunk powers only
its primes, one square-and-multiply for all rows with a column of
exponents and moduli, and multiplies out each composite n as
chi(p) chi(n / p), p its least prime factor, one dyadic range of n at a
time, so that n / p <= n / 2 is always known (`_scan_plan`).

A candidate the scan leaves open walks half of class 0, with no
generator of the whole group: g = y^m, y = `smallest_generator(N, k)`,
has order k, so g^(k/2) = -1, and g^0..g^(k/2) folded by z -> min(z,
N - z) lists X_0 within [1, H], H = (N - 1) / 2.  Sorted, its first
element one above its predecessor is the least a: a pair (a - 1, a)
above H negates to the smaller (N - a, N - a + 1), and (H, H + 1) =
(H, -H) puts 2 = -1/H in X_0, so (1, 2) comes first unless N = 3.
`_class_zero_witnesses` decides the first three conditions for every
caller, one N or a block of candidates, whose open candidates walk as
rows of one array, each with its own g and N, in groups of at most
`BLOCK` residues, a longer row alone.  A row of smaller k walks on to
its group's longest: that only repeats folded values, so it cannot
create a step of one.

T holds the cyclotomic numbers of order m.  With k even, Gauss's
relations (i, j) = (j, i) = (-i, j - i) give T[d][d] = T[0][-d mod m]
(Storer, Cyclotomy and Difference Sets, 1967), so row 0 decides the
cyclic basis.  Row 0 needs no class numbers: z lies in class j iff
z^k = (x^k)^j, so row 0 reaches as many classes as there are distinct
characters (1 - a)^k over X_0 \\ {1}.  A sum-free X_0 is a cyclic basis
iff they take all m - 1 values other than 1, which costs O(k log N) on
the walk and no table.  Only the few candidates that pass the first
three conditions build a class table and the zero pattern of T, for
the triangle condition, whose witness is read off that table; -1 in X_0
lets both read only half the group (see `class_index_table`), and both
run over it in blocks of `BLOCK` residues, so neither allocates an
O(N) int64 array.

A search computes a generator of the whole group only for the few
candidates that reach the triangle, and keeps no witness, so a
cyclic-basis failure there is decided by a count alone.  That x, like
the one `checker.check_candidate` checks once, needs no second check,
so `_triangle_witness` reads its table off `_half_table`, unchecked.

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
passes and the scan's primes, where a call's fixed cost outweighs the
division, and with a column of moduli no quotient has a scalar divisor
for numpy to multiply by.  The triangle reads only which T[p][q] vanish,
so `_pair_mask` sets each block's pair codes in one m^2 bool mask and
needs no m^2 int64 array.  A pass stops at the mask, which has no zero
off its diagonal; only a failure maps the zeros to classes and walks for
z.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import accumulate
from math import isqrt

import numpy as np

from .numbertheory import refuse_large_modulus, require_generator, sieve_primes, smallest_generator
from .report import Witness

# Residues per vectorised pass: a block of the table and the mask, and
# at most a class-0 walk group or a scan chunk of several rows.  128 KiB
# of int64, small enough that the allocator hands each block the pages
# the last one freed.  At this size the table's divide-free step,
# z - (z // N) N, costs about 1.9 ns per residue against 4.2 ns for
# z % N (2-core Xeon, numpy 2.4.6).
BLOCK = 1 << 14
# The sum-free scan gives up past k / SCAN_SHARE residues.  On one row
# that never hits, scanning to k/4 costs about 0.7 to 0.8 of walking and
# sorting class 0, and to k/8 about 0.4 (2-core Xeon, numpy 2.4.6,
# N = 2,400,001: 0.24 and 0.12 ms against 0.30 ms at k = 50,000, 1.7
# and 1.0 ms against 2.3 ms at k = 300,000), but the m = 8 and m = 13
# sweeps, in blocks of 16 and of 64, to their default bounds and to
# 2.5M, ran no faster with k/2, k/6 or k/8 than with k/4, within 4%
# and in no consistent order: nearly every row leaves at its first hit.
SCAN_SHARE = 4
# `power_walk`'s builtin head: a numpy pass over fewer powers costs more.
WALK_HEAD = 32


def power_walk(g, n: int, N) -> np.ndarray:
    """g^0, g^1, ..., g^(n-1) mod N as int64: every list of successive
    powers starts here.  g and N are ints, or int64 columns of shape
    (r, 1) that give row i the powers of g[i] mod N[i]; a builtin head
    per row would cost more than the doubling passes it spares.  Refuses
    moduli the int64 products cannot hold before allocating anything."""
    if isinstance(g, np.ndarray):
        refuse_large_modulus(int(N.max()))
        out = np.empty((len(g), n), dtype=np.int64)
        out[:, :1] = 1
        filled, z = min(n, 1), g
    else:
        refuse_large_modulus(N)
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


def class_index_table(N: int, m: int, x: int) -> np.ndarray:
    """Half class table h, H = (N - 1) / 2: h[a] is the class of a and of
    N - a (1 <= a <= H), h[0] = -1, in int8 up to m = 128, else int16;
    raises unless x is a generator and k = (N - 1) / m is even."""
    require_generator(N, m, x)
    if (N - 1) // m % 2:
        raise ValueError(f"no half table for N={N}, m={m}: needs k even, k = (N - 1) / m")
    return _half_table(N, m, x)


def _half_table(N: int, m: int, x: int) -> np.ndarray:
    """`class_index_table` for a generator x and an even k, unchecked.

    With k even, -1 = x^H is in class 0, x^(e + H) = -x^e has class e mod m
    (H = km/2), and x^0..x^(H-1) folded by z -> min(z, N - z) fills every
    index 1..H, x being a generator, so h starts empty and only h[0] is set
    beforehand.  The walk goes in blocks of B powers, B a multiple of m near
    `BLOCK` (H = (k/2) m is one too), each the last times x^B, so the
    classes of every block repeat 0..m-1 from its start.
    """
    H = (N - 1) // 2
    B = min(H, m * max(1, BLOCK // m))
    z, fold = power_walk(x, B, N), np.empty(B, dtype=np.int64)
    step = pow(x, B, N)
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


def _pair_mask(h: np.ndarray, m: int) -> np.ndarray:
    """T > 0 as an m x m bool mask, from the half table h, H = len(h) - 1.
    The pairs are (a, N + 1 - a), a = 2..N-1; for a <= H the partner
    folds to a - 1, so each block marks the codes h[a] m + h[a - 1]; the
    pairs past H + 1 are their transposes, and a = H + 1 pairs with
    itself in class h[H]."""
    S = np.zeros(m * m, dtype=bool)
    codes = np.empty(min(BLOCK, h.size), dtype=np.int64)
    for a in range(2, h.size, BLOCK):
        c = codes[: min(BLOCK, h.size - a)]
        np.multiply(h[a : a + c.size], m, out=c, dtype=np.int64)
        c += h[a - 1 : a - 1 + c.size]
        S[c] = True
    S = S.reshape(m, m)
    S |= S.T
    S[h[-1], h[-1]] = True
    return S


def _power_mod(z: np.ndarray, e, N) -> np.ndarray:
    """z^e mod N elementwise for int64 z, 0 <= z < 2^31, by
    square-and-multiply from the top bit of the largest e.  e >= 1 and N
    are ints, or int64 columns of shape (r, 1) that give row i of the
    result z^e[i] mod N[i], as in `power_walk`.  Exact for N < 2^31."""
    if isinstance(e, np.ndarray):
        # row i multiplies by z at the set bits of e[i], by 1 elsewhere
        top = int(e.max()).bit_length()
        mask = e >> np.arange(top - 1, -1, -1) & 1
        bits = (np.where(mask[:, i : i + 1], z, 1) for i in range(top))
    else:
        bits = (z if bit == "1" else None for bit in bin(e)[2:])
    out = next(bits).copy()
    for mul in bits:
        out *= out
        out %= N
        if mul is not None:
            out *= mul
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


@lru_cache(maxsize=16)
def _scan_plan(lo: int, hi: int) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """The primes in (lo, hi], and its composites as columns (n, p, n / p),
    p the least prime factor of n, in one step per dyadic range (t, 2t],
    t = lo, 2 lo, ...: n / p <= n / 2 <= t, so a step multiplies only
    characters of z <= lo, of primes and of earlier steps."""
    spf = np.arange(hi + 1)
    for q in sieve_primes(max(isqrt(hi), 2)).tolist():
        s = spf[q * q :: q]
        np.minimum(s, q, out=s)
    n = np.arange(lo + 1, hi + 1)
    p = spf[n]
    prime = p == n
    steps, t = [], lo
    while t < hi:
        now = ~prime & (n > t) & (n <= 2 * t)
        steps.append((n[now], p[now], n[now] // p[now]))
        t *= 2
    primes = n[prime]
    # every caller shares the cached arrays
    for a in (primes, *(a for step in steps for a in step)):
        a.setflags(write=False)
    return primes, steps


def _sum_free_scan(Ns: Sequence[int], m: int, budgets: Sequence[int]) -> list[int | None]:
    """For each N of Ns, the least a >= 2 with a - 1 and a both in X_0
    (z^k = 1, k = (N - 1) / m), or None if the chunks that fit in its
    budget of residues hold none.  A row whose first chunk does not fit
    leaves before any array is built; the chunks stop at N - 1, so a
    budget of N - 2 or more scans every a.  With k even, -1 is in X_0,
    so a is also the least a in X_0 with 1 - a in X_0.  Within
    k // SCAN_SHARE every z is below N; a row whose block scans past its
    N reads z^k = (z mod N)^k there, and 0 at N, so a pair past N
    repeats one below it and never comes first."""
    size = max(64, m * m)
    found: list[int | None] = [None] * len(Ns)
    rows = [i for i, (N, budget) in enumerate(zip(Ns, budgets)) if min(size, N - 2) <= budget]
    if rows:
        chi = np.ones((len(rows), 2), dtype=np.int64)
        _scan_rows(found, rows, Ns, budgets, m, chi, 1, size)
    return found


def _scan_rows(
    found: list, rows: list[int], Ns: Sequence[int], budgets: Sequence[int],
    m: int, chi: np.ndarray, lo: int, size: int,
) -> None:
    """`_sum_free_scan` from the chunk lo..lo + size on, for the rows i of
    Ns, row i = rows[j] knowing its characters chi[j, z] = z^k mod N of
    z <= lo.  Every row takes the same chunks, which double, overlap by
    one, so one character per z serves a - 1 and a, and stop at N - 1.
    A chunk holds at most `BLOCK` residues, splitting its rows if need
    be, a longer row alone, and only the rows left open keep their
    characters, so a split holds one table per level."""
    while True:
        col = [Ns[i] for i in rows]
        hi = min(lo + size, max(col) - 1)
        if len(rows) > 1 and len(rows) * (hi + 1) > BLOCK:
            r = max(1, BLOCK // (hi + 1))
            for j in range(0, len(rows), r):
                _scan_rows(found, rows[j : j + r], Ns, budgets, m, chi[j : j + r], lo, size)
            return
        chi = _characters(col, m, chi, lo, hi)
        one = chi[:, lo:] == 1
        pair = one[:, :-1] & one[:, 1:]
        first, hit = pair.argmax(axis=1).tolist(), pair.any(axis=1).tolist()
        # a row leaves at its first hit, at N - 1, or once the next chunk
        # passes its budget
        keep = []
        for j, i in enumerate(rows):
            if hit[j]:
                found[i] = lo + 1 + first[j]
            elif hi < Ns[i] - 1 and min(hi + 2 * size, Ns[i] - 1) - 1 <= budgets[i]:
                keep.append(j)
        if not keep:
            return
        if len(keep) < len(rows):
            rows, chi = [rows[j] for j in keep], chi[keep]
        lo, size = hi, 2 * size


def _characters(Ns: list[int], m: int, chi: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """chi, the characters z^k mod N of z <= lo for each N of Ns, extended
    to z <= hi.  The character is completely multiplicative: the new z
    that are prime are powered, for all rows at once, and the composites
    multiplied out in a few steps (`_scan_plan`)."""
    # a single row takes an int exponent and modulus
    N = Ns[0] if len(Ns) == 1 else np.array(Ns, dtype=np.int64)[:, None]
    t = np.empty((len(Ns), hi + 1), dtype=np.int64)
    t[:, : lo + 1] = chi
    primes, steps = _scan_plan(lo, hi)
    t[:, primes] = _power_mod(primes, (N - 1) // m, N)
    for n, a, b in steps:
        v = t[:, a] * t[:, b]
        v %= N
        t[:, n] = v
    return t


def _class_zero_witnesses(Ns: Sequence[int], m: int, explain: bool = True) -> list[Witness | None]:
    """For each N of Ns, the witness to the first of symmetry, sum-free
    and cyclic basis that (N, m) breaks, or None if it meets all three;
    unless `explain`, a cyclic-basis failure has residue None.  The
    caller checks that each N is prime and that m divides N - 1."""
    out: list[Witness | None] = []
    budgets = []
    for N in Ns:
        k = (N - 1) // m
        # with k odd, -1 = x^((N-1)/2) falls outside X_0, which makes
        # negation move every class wholesale; the first failing element
        # of class 0 is then simply its minimum, x^0 = 1.
        out.append(Witness("symmetric", (0,), 1) if k % 2 else None)
        budgets.append(0 if k % 2 else k // SCAN_SHARE)
    for i, a in enumerate(_sum_free_scan(Ns, m, budgets)):
        if a is not None:
            out[i] = Witness("sum_free", (0, 0), a)
    walked = [N for N, w in zip(Ns, out) if w is None]
    found: list[Witness | None] = []
    while len(found) < len(walked):
        rows = walked[len(found) :]
        # a group walks its longest row; rows * walk grows along the rows
        wide = list(accumulate([(N - 1) // m // 2 + 1 for N in rows], max))
        r = max(1, sum(n * i <= BLOCK for i, n in enumerate(wide, 1)))
        found += _walked_witnesses(rows[:r], m, wide[r - 1], explain)
    decided = iter(found)
    return [next(decided) if w is None else w for w in out]


def _walked_witnesses(Ns: list[int], m: int, n: int, explain: bool) -> list[Witness | None]:
    """`_class_zero_witnesses` for one group the scan left open, each
    walking a row of n powers of g = y^m, n > each k/2."""
    g = [pow(smallest_generator(N, (N - 1) // m), m, N) for N in Ns]
    # a single row takes the builtin head, and an int modulus
    if len(Ns) == 1:
        col = Ns[0]
        X = power_walk(g[0], n, col)[None]
    else:
        col = np.array(Ns, dtype=np.int64)[:, None]
        X = power_walk(np.array(g)[:, None], n, col)
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
    whose class, read off the half table, X_0 + X_i misses; the caller checks x."""
    # m = 1 never gets here: X_0 is then the whole group and fails
    # sum_free at a = 2.
    h = _half_table(N, m, x)
    S = _pair_mask(h, m)
    # T[0][0] = 0 and the rest of the diagonal is positive, so the
    # triangle holds iff that is the only zero
    if np.count_nonzero(S) == m * m - 1:
        return None
    # gap[p, i]: T[p][p + i] vanishes, so X_0 + X_i misses class -p
    p = np.arange(m)[:, None]
    gap = ~S[p, (p + p.T) % m]
    i = int(np.flatnonzero(gap[:, 1:].any(axis=0))[0]) + 1
    wanted = np.zeros(m, dtype=bool)
    wanted[(m - np.flatnonzero(gap[:, i])) % m] = True
    z = _first_hit(N, lambda z: wanted[h[np.minimum(z, N - z)]])
    return Witness("triangle", (0, i), z)
