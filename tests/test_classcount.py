import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np
import pytest

from ramsey_forge import classcount
from ramsey_forge.catalog import load_catalog
from ramsey_forge.checker import check_candidate
from ramsey_forge.classcount import class_index_table, power_walk
from ramsey_forge.numbertheory import is_generator, sieve_primes, smallest_generator
from ramsey_forge.partition import build_partition, generator_walk
from ramsey_forge.report import Witness
from ramsey_forge.search import DEFAULT_SWEEP_BOUNDS, candidate_primes
from reference import (
    full_class_index_table,
    full_pair_sum_class_matrix,
    least_cyclic_basis_miss,
    least_sum_free_violation,
)


def reference_logs(N, x):
    """log[t] = e with x^e = t (mod N), by a plain walk; log[0] = -1."""
    log = [-1] * N
    t = 1
    for e in range(N - 1):
        log[t] = e
        t = t * x % N
    return log


def reference_class_table(N, m, x):
    return [-1] + [e % m for e in reference_logs(N, x)[1:]]


def reference_pair_matrix(log, m):
    """T[i][j] counts the a in 2..N-1 with a in class i and 1 - a in
    class j, reading classes off the logs of one walk."""
    N = len(log)
    cls = [e % m for e in log]
    # 1 - a = N + 1 - a runs N-1, N-2, ..., 2 as a runs 2..N-1
    T = np.zeros((m, m), dtype=np.int64)
    for (i, j), count in Counter(zip(cls[2:], cls[N - 1:1:-1])).items():
        T[i, j] = count
    return T


def test_class_table_small_example():
    # powers of 2 mod 13: 1,2,4,8,3,6,12,11,9,5,10,7; the half table
    # holds 1..6, and 8, 12, 7 read their classes off 5, 1, 6
    h = class_index_table(13, 3, 2)
    assert h.tolist() == [-1, 0, 1, 1, 2, 0, 2]


def test_class_table_matches_sequential_walk():
    sieve = sieve_primes(3000)
    for N in sieve.tolist()[2::11]:
        x = smallest_generator(N)
        H = (N - 1) // 2
        for m in [d for d in range(1, 13) if (N - 1) % d == 0]:
            cls = reference_class_table(N, m, x)
            if (N - 1) // m % 2:
                with pytest.raises(ValueError, match="k even"):
                    class_index_table(N, m, x)
                continue
            assert cls[N - H:] == cls[H:0:-1], (N, m)
            assert class_index_table(N, m, x).tolist() == cls[:H + 1], (N, m)


def test_power_walk_lists_successive_powers():
    # lengths around the builtin head and the doubling steps, and
    # products of residues just under 2^31 that int64 must still hold
    for g, n, N in [(2, 0, 13), (2, 1, 13), (2, 12, 13), (3, 7, 97), (5, 32, 97),
                    (5, 33, 97), (3, 63, 95801), (3, 64, 95801), (3, 65, 95801),
                    (7, 128, 2**31 - 1), (7, 129, 2**31 - 1),
                    (3, 1000, 95801), (7, 1025, 2**31 - 1)]:
        assert power_walk(g, n, N).tolist() == [pow(g, e, N) for e in range(n)], (g, n, N)


def test_kernel_matches_power_residue_definition_to_2000():
    # Only pow: class 0 is {z : z^k = 1}, and z lies in class i iff
    # (z * x^-i)^k = z^k * x^(-ik) = 1.  The m values x^(-ik) are
    # distinct for a generator x, so exactly one i fits each z.
    sieve = sieve_primes(2000)
    for N in sieve.tolist()[1:]:
        x = smallest_generator(N)
        walk = generator_walk(N, x)
        for m in [d for d in range(1, N) if (N - 1) % d == 0]:
            k = (N - 1) // m
            zk = [pow(z, k, N) for z in range(N)]
            X0 = walk[::m].tolist()
            assert len(X0) == k and X0[0] == 1, (N, m)
            assert set(X0) == {z for z in range(1, N) if zk[z] == 1}, (N, m)
            if k % 2:
                with pytest.raises(ValueError, match="k even"):
                    class_index_table(N, m, x)
                continue
            unit = [pow(x, -i * k, N) for i in range(m)]
            assert len(set(unit)) == m
            h = class_index_table(N, m, x).tolist()
            assert len(h) == (N + 1) // 2 and h[0] == -1
            # h[z] is the class of z and of N - z
            for z in range(1, len(h)):
                i = h[z]
                assert 0 <= i < m and zk[z] * unit[i] % N == 1, (N, m, z)
                assert zk[N - z] * unit[i] % N == 1, (N, m, z)


def test_character_row_is_row_zero_of_pair_matrix_to_2000():
    # z lies in class j iff z^k = (x^k)^j, so the distinct characters
    # (1 - a)^k over X_0 \ {1} are the classes that row 0 of the full
    # matrix reaches.  With k even the diagonal reads T[d][d] = T[0][-d],
    # which is what lets row 0 alone decide the cyclic basis: class j is
    # missed by X_0 + X_0 exactly when T[0][j] = 0.
    sieve = sieve_primes(2000)
    for N in sieve.tolist()[1:]:
        x = smallest_generator(N)
        walk = generator_walk(N, x)
        for m in [d for d in range(1, N) if (N - 1) % d == 0 and (N - 1) // d % 2 == 0]:
            k = (N - 1) // m
            h = class_index_table(N, m, x)
            assert h.itemsize == (1 if m <= 128 else 2), (N, m)
            T = full_pair_sum_class_matrix(full_class_index_table(N, m, x), m)
            chars = {pow(1 - a, k, N) for a in walk[m::m].tolist()}
            assert len(chars) == np.count_nonzero(T[0]), (N, m)
            assert (1 in chars) == (T[0][0] > 0), (N, m)
            for d in range(m):
                assert T[d][d] == T[0][-d % m], (N, m, d)
            if T[0][0]:
                continue
            rep = check_candidate(N, m, x)
            assert rep.cyclic_basis == all(T[0][1:] > 0), (N, m)
            if not rep.cyclic_basis:
                cls = [h[min(z, N - z)] for z in range(1, N)]
                z = 1 + next(i for i, j in enumerate(cls) if j and T[0][j] == 0)
                assert rep.witness.residue == z, (N, m)


def test_half_walk_takes_every_cyclic_basis_character_to_2000():
    # 1 - 1/a = -(1 - a)/a with -1 and a in X_0, so a and 1/a share the
    # character (1 - a)^k, and check_candidate raises only the walk's
    # g^1..g^(k/2), g = x^m.  Stopping at g^(k/2 - 1) instead loses the
    # character of -1 and changes the set on 754 of these pairs.
    pairs = 0
    for N in sieve_primes(2000).tolist()[2:]:
        x = smallest_generator(N)
        for m in [d for d in range(2, N) if (N - 1) % (2 * d) == 0]:
            k = (N - 1) // m
            g = pow(x, m, N)
            walk = [pow(g, j, N) for j in range(k)]
            X0 = set(walk)
            if any((1 - a) % N in X0 for a in X0):
                continue
            pairs += 1
            every = {pow(1 - a, k, N) for a in X0 - {1}}
            half = {pow(1 - a, k, N) for a in walk[1 : k // 2 + 1]}
            assert half == every, (N, m)
    assert pairs == 864


def test_witnesses_past_the_first_chunk_at_large_n():
    # every witness lies past the first 64 residues the engine tries, at
    # moduli far above the exhaustive tests; the expected values come
    # from the reference alone
    for N, m in [(772367, 301), (968801, 346), (164321, 130)]:
        x = smallest_generator(N)
        cls = full_class_index_table(N, m, x).astype(np.int64)
        T = full_pair_sum_class_matrix(cls, m)
        # z of class j lies outside X_0 + X_i iff T[-j][i - j] = 0
        j = np.arange(m)
        i = next(i for i in range(1, m) if (T[-j % m, (i - j) % m] == 0).any())
        z = next(z for z in range(1, N) if T[-cls[z] % m, (i - cls[z]) % m] == 0)
        rep = check_candidate(N, m, x)
        assert rep.flags() == (True, True, True, False), (N, m)
        assert (rep.witness.classes, rep.witness.residue) == ((0, i), z), (N, m)
    for N, m in [(1832393, 398), (367027, 201)]:
        x = smallest_generator(N)
        rep = check_candidate(N, m, x)
        assert rep.flags() == (True, True, False, None), (N, m)
        assert rep.witness.residue == least_cyclic_basis_miss(N, m, x), (N, m)


def test_class_table_rejects_non_generator():
    with pytest.raises(ValueError):
        class_index_table(13, 3, 5)
    with pytest.raises(ValueError):
        class_index_table(13, 3, 0)
    with pytest.raises(ValueError):
        class_index_table(13, 5, 2)
    # x = g^2 has order exactly H = (N - 1) / 2: its half walk never
    # returns to 1, so only x^H = -1 rejects it
    for N, m, x in [(13, 3, 4), (2441, 20, 36), (2387201, 373, 9)]:
        with pytest.raises(ValueError, match="not a generator"):
            class_index_table(N, m, x)


def test_class_table_and_pair_matrix_in_small_blocks(monkeypatch):
    # blocks of one power, shorter than m, and not dividing H give the
    # tables and triangle verdicts of a single block, and masks that
    # are where the full table's pair matrix is positive
    sieve = sieve_primes(400)
    cases = []
    for N in sieve.tolist()[1:]:
        x = smallest_generator(N)
        for m in [d for d in range(1, N) if (N - 1) % d == 0 and (N - 1) // d % 2 == 0]:
            T = full_pair_sum_class_matrix(full_class_index_table(N, m, x), m)
            cases.append((N, m, x, class_index_table(N, m, x), T > 0))
    # every case that meets the first three conditions passes; the two
    # least triangle failures of any m give a witness
    triangles = {
        (N, m, x): classcount._triangle_witness(N, m, x)
        for N, m, x in [c[:3] for c in cases] + [(2441, 20, 6), (2843, 29, 2)]
        if classcount._class_zero_witnesses([N], m) == [None]
    }
    assert Counter(w is None for w in triangles.values()) == {True: 8, False: 2}
    for block in (1, 5, 64):
        monkeypatch.setattr(classcount, "BLOCK", block)
        for N, m, x, h, S in cases:
            assert np.array_equal(class_index_table(N, m, x), h), (block, N, m)
            assert np.array_equal(classcount._pair_mask(h, m), S), (block, N, m)
        for (N, m, x), witness in triangles.items():
            assert classcount._triangle_witness(N, m, x) == witness, (block, N, m)
    # x = 5^3 mod 97 has x^48 = -1 but order 32: its walk returns to 1
    # in a later block
    monkeypatch.setattr(classcount, "BLOCK", 5)
    with pytest.raises(ValueError, match="not a generator"):
        class_index_table(97, 2, 28)


def test_partition_columns_are_the_classes_and_reject_non_generators():
    for N, m, x, classes in [
        (13, 3, 2, [[1, 5, 8, 12], [2, 3, 10, 11], [4, 6, 7, 9]]),
        (5, 2, 2, [[1, 4], [2, 3]]),
        # m = 1 gives the whole punctured line
        (13, 1, 2, [list(range(1, 13))]),
    ]:
        cols = generator_walk(N, x).reshape(-1, m)
        assert [sorted(c) for c in cols.T.tolist()] == classes, (N, m, x)
        assert [c.tolist() for c in build_partition(N, m, x).classes] == classes, (N, m, x)
        # column 0 is the walk of x^m, so it starts at 1
        assert cols[0, 0] == 1
    # 5 has order 4 and 3 order 3 mod 13, 13 is no unit mod 13, and 3 is
    # no unit mod 9, so its walk never returns to 1
    for N, m, x in [(13, 3, 5), (13, 3, 3), (13, 3, 13), (9, 2, 3), (9, 4, 2)]:
        with pytest.raises(ValueError, match="not a generator"):
            class_index_table(N, m, x)
        with pytest.raises(ValueError, match="not a generator"):
            build_partition(N, m, x)
    for m in (5, 0):
        with pytest.raises(ValueError, match=f"class count {m} does not divide 12"):
            class_index_table(13, m, 2)


# counting_report was folded into check_candidate; these keep its cases on
# the report function that replaced it


def test_counting_report_worked_examples():
    assert check_candidate(5, 2, 2).overall
    assert check_candidate(13, 3, 2).overall
    rep = check_candidate(7, 3, 3)
    assert rep.flags() == (True, True, False, None)
    assert rep.witness.residue == 3


def test_counting_report_short_circuits_on_odd_k():
    rep = check_candidate(7, 2, 3)
    assert rep.flags() == (False, None, None, None)
    assert rep.witness.condition == "symmetric"
    assert rep.witness.classes == (0,)
    assert rep.witness.residue == 1


def test_counting_report_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_candidate(13, 5, 2)
    with pytest.raises(ValueError):
        check_candidate(13, 3, 13)
    with pytest.raises(ValueError):
        check_candidate(13, 3, 5)


def test_pair_matrix_matches_definition():
    # the full-table matrix that the engine's mask is held to counts what
    # the definition counts, off a walk of its own
    sieve = sieve_primes(2000)
    for N in sieve.tolist()[1:]:
        x = smallest_generator(N)
        log = reference_logs(N, x)
        for m in [d for d in range(1, N) if (N - 1) % d == 0 and (N - 1) // d % 2 == 0]:
            T = full_pair_sum_class_matrix(full_class_index_table(N, m, x), m)
            assert np.array_equal(T, reference_pair_matrix(log, m)), (N, m)


def test_pair_mask_is_where_the_pair_matrix_is_positive_to_2000():
    for N in sieve_primes(2000).tolist()[1:]:
        x = smallest_generator(N)
        for m in [d for d in range(1, N) if (N - 1) % d == 0 and (N - 1) // d % 2 == 0]:
            S = classcount._pair_mask(class_index_table(N, m, x), m)
            T = full_pair_sum_class_matrix(full_class_index_table(N, m, x), m)
            assert S.dtype == bool and np.array_equal(S, T > 0), (N, m)


def test_triangle_pass_holds_little_past_its_table():
    # N = 2,387,201, m = 373: the int16 half table is 2.28 MiB; the walk,
    # the fold and the codes hold one block of int64 each, 128 KiB at
    # BLOCK = 2^14, and the mask m^2 bools, where an int64 tally would
    # hold m^2 int64; blocks of 2^15 or more would exceed this bound
    row = next(r for r in load_catalog() if r.N == 2387201)
    table = ((row.N - 1) // 2 + 1) * 2
    assert classcount._triangle_witness(row.N, row.m, row.x) is None
    tracemalloc.start()
    try:
        assert classcount._triangle_witness(row.N, row.m, row.x) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table + (1 << 19), (peak, table)


def test_later_tables_leave_a_returned_table_unchanged():
    # a table handed to a caller is its own: building and masking later
    # tables never writes into it
    rows = [r for r in load_catalog() if r.m in (20, 84, 164, 244)]
    tables = [class_index_table(r.N, r.m, r.x) for r in rows]
    kept = [h.copy() for h in tables]
    for r in rows:
        classcount._triangle_witness(r.N, r.m, r.x)
        classcount._pair_mask(class_index_table(r.N, r.m, r.x), r.m)
    for r, h, want in zip(rows, tables, kept):
        assert np.array_equal(h, want), r


def test_threads_never_share_the_scratch_arrays():
    # numpy drops the interpreter lock inside its loops, so threads that
    # shared a walk, fold or code array would mix their blocks: the
    # table's through the table itself, the codes' through the mask and
    # the triangle, which every catalog row passes; each call allocates
    # its own
    rows = [r for r in load_catalog() if r.m in (60, 84, 100, 120)]
    want = []
    for r in rows:
        cls = full_class_index_table(r.N, r.m, r.x)
        want.append((cls[: (r.N + 1) // 2], full_pair_sum_class_matrix(cls, r.m) > 0))

    def agrees(i):
        r, (table, mask) = rows[i % len(rows)], want[i % len(rows)]
        for _ in range(4):
            h = class_index_table(r.N, r.m, r.x)
            if not (
                np.array_equal(h, table)
                and np.array_equal(classcount._pair_mask(h, r.m), mask)
                and classcount._triangle_witness(r.N, r.m, r.x) is None
            ):
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(8) as pool:
            done = [pool.submit(agrees, i) for i in range(8)]
            assert all(f.result(timeout=60) for f in done)
    finally:
        sys.setswitchinterval(interval)


def test_pair_matrix_matches_full_table_on_catalog_rows():
    # int8 tables (m <= 128) and int16 ones, up to the largest modulus
    rows = load_catalog()
    picked = [r for r in rows if r.m in (2, 20, 84, 164, 244)] + [rows[-1]]
    picked += [r for r in rows if r.N == 2387201]
    assert len(picked) == 7
    for r in picked:
        h = class_index_table(r.N, r.m, r.x)
        cls = full_class_index_table(r.N, r.m, r.x)
        assert h.dtype == cls.dtype and h.itemsize == (1 if r.m <= 128 else 2), r
        assert np.array_equal(h, cls[:len(h)]), r
        assert np.array_equal(cls[len(h):], cls[len(h) - 1:0:-1]), r
        T = full_pair_sum_class_matrix(cls, r.m)
        assert np.array_equal(classcount._pair_mask(h, r.m), T > 0), r


def test_pair_matrix_row_sums_and_symmetry():
    # ordered pairs (a, 1-a) over a=2..N-1: class p contributes its full
    # size, minus one when p is the class of 1 itself (a=1 is excluded)
    for N, m, x in [(13, 3, 2), (41, 4, 6), (97, 6, 5), (71, 5, 7)]:
        k = (N - 1) // m
        T = full_pair_sum_class_matrix(full_class_index_table(N, m, x), m)
        assert np.array_equal(T, T.T)
        sums = T.sum(axis=1)
        assert sums[0] == k - 1
        assert all(int(s) == k for s in sums[1:])


def scan_gives_up(Ns, m, budgets):
    return [None] * len(Ns)


def test_sum_free_scan_is_least_walk_violation_to_2000(monkeypatch):
    # with no budget the scan covers every a, so it must find the least
    # violation, or report none when X_0 is sum-free; with the scan made
    # to give up, the walk of class 0 must find the same
    sieve = sieve_primes(2000)
    cases = []
    for N in sieve.tolist()[1:]:
        x = smallest_generator(N)
        for m in [d for d in range(1, N) if (N - 1) % d == 0 and (N - 1) // d % 2 == 0]:
            a = least_sum_free_violation(N, m)
            assert classcount._sum_free_scan([N], m, [N]) == [a], (N, m)
            cases.append((N, m, x, a))
    monkeypatch.setattr(classcount, "_sum_free_scan", scan_gives_up)
    for N, m, x, a in cases:
        rep = check_candidate(N, m, x)
        if a is None:
            assert rep.sum_free, (N, m)
        else:
            assert rep.flags() == (True, False, None, None), (N, m)
            assert rep.witness.residue == a, (N, m)


def test_scanned_witness_is_least_walk_violation_near_2_5m(monkeypatch):
    # every candidate here has k far above 4 m^2, so the scan decides it;
    # a walk of class 0 would be the only other way to a sum_free witness
    def no_walk(*args):
        raise AssertionError("class 0 walked")

    reports = {}
    with monkeypatch.context() as patch:
        patch.setattr(classcount, "power_walk", no_walk)
        for m in (8, 13):
            for N in candidate_primes(m, 2_400_000, 2_500_000):
                x = smallest_generator(N)
                reports[N, m] = check_candidate(N, m, x)
    assert len(reports) == 814 + 540
    for (N, m), rep in reports.items():
        assert rep.witness.condition == "sum_free", (N, m)
        assert rep.witness.residue == least_sum_free_violation(N, m), (N, m)


def scan_reach(m, budget):
    """The last z that the scan's chunks reach within budget, or 0 when
    its first chunk, 1..1 + max(64, m^2), does not fit."""
    lo, size, reach = 1, max(64, m * m), 0
    while lo + size - 1 <= budget:
        reach = lo = lo + size
        size *= 2
    return reach


@cache
def scan_cases():
    """(m, Ns, budgets, reach, expected) for every candidate, k even, of
    the two sweeps to their default bounds and of m = 2..40 to 50,000:
    expected is the least violation if the budget's chunks reach it."""
    cases = []
    for m, bound in [(8, DEFAULT_SWEEP_BOUNDS[8]), (13, DEFAULT_SWEEP_BOUNDS[13])] + [
        (m, 50_000) for m in range(2, 41)
    ]:
        Ns = candidate_primes(m, 0, bound)
        budgets = [(N - 1) // m // classcount.SCAN_SHARE for N in Ns]
        reach = [scan_reach(m, b) for b in budgets]
        expected = []
        for N, r in zip(Ns, reach):
            a = least_sum_free_violation(N, m) if r else None
            expected.append(a if a is not None and a <= r else None)
        cases.append((m, Ns, budgets, reach, expected))
    return cases


@pytest.mark.parametrize("rows", [1, 16, 64])
def test_block_scan_is_least_violation_within_budget(rows):
    # every block gives each row the builtin-pow least violation when its
    # budget's chunks reach that far, else None, whatever the block size
    mixed = 0
    for m, Ns, budgets, reach, expected in scan_cases():
        for i in range(0, len(Ns), rows):
            part = slice(i, i + rows)
            found = classcount._sum_free_scan(Ns[part], m, budgets[part])
            assert found == expected[part], (m, Ns[part])
            # a block whose rows leave both at a hit and at their budgets
            spent = [r and a is None for r, a in zip(reach[part], expected[part])]
            mixed += any(spent) and any(a is not None for a in expected[part])
    assert sum(len(Ns) for _, Ns, *_ in scan_cases()) == 23_275
    assert mixed >= (0 if rows == 1 else 50), mixed


def test_block_scan_working_set_stays_near_block():
    # 64 rows of a sum-free class 0 never hit, so with a budget past N
    # each scans to z = N - 1; one table for all of them would hold
    # 64 * 29,581 int64, 15.1 MB, where split rows hold about `BLOCK`
    # int64 per level of the split
    N, m = 29_581, 30
    assert least_sum_free_violation(N, m) is None
    classcount._scan_plan.cache_clear()
    tracemalloc.start()
    try:
        found = classcount._sum_free_scan([N] * 64, m, [1 << 30] * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [None] * 64
    assert peak < 6 << 20, peak


def test_walked_sum_free_failure_allocates_far_below_n():
    # k < 4 m^2 at m = 300, so these candidates walk class 0; the walk
    # and its sort hold a few k int64, not an N-byte mask
    failures = []
    for N in candidate_primes(300, 2_300_000, 2_400_000):
        x = smallest_generator(N)
        if check_candidate(N, 300, x).witness.condition == "sum_free":
            failures.append((N, x))
    assert len(failures) >= 5
    for N, x in failures[:5]:
        tracemalloc.start()
        try:
            check_candidate(N, 300, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N // 4, (N, peak)


@pytest.mark.parametrize("walk_only", [False, True])
def test_class_zero_witness_needs_no_generator_to_3000(monkeypatch, walk_only):
    # the first three conditions depend on (N, m) alone: without a
    # generator the helper gives the report's witness whenever the report
    # fails on one of them, and None exactly when it passes or fails on
    # the triangle, as at (2441, 20) and (2843, 29); with the scan made
    # to give up, every case walks the class 0 that y^m generates
    if walk_only:
        monkeypatch.setattr(classcount, "_sum_free_scan", scan_gives_up)
    outcomes = Counter()
    for N in sieve_primes(3000).tolist()[1:]:
        x = smallest_generator(N)
        for m in [d for d in range(1, N) if (N - 1) % d == 0 and (N - 1) // d % 2 == 0]:
            rep = check_candidate(N, m, x)
            witness = classcount._class_zero_witnesses([N], m)[0]
            if rep.failed_condition in (None, "triangle"):
                assert witness is None, (N, m)
            else:
                assert witness == rep.witness, (N, m)
            # unexplained, only a cyclic_basis failure loses its residue
            quiet = classcount._class_zero_witnesses([N], m, explain=False)[0]
            if rep.failed_condition == "cyclic_basis":
                witness = Witness("cyclic_basis", (0,), None)
            assert quiet == witness, (N, m)
            outcomes[rep.failed_condition] += 1
    assert outcomes["triangle"] == 2
    assert set(outcomes) == {None, "sum_free", "cyclic_basis", "triangle"}


@pytest.mark.parametrize("explain", [True, False])
@pytest.mark.parametrize("block", [classcount.BLOCK, 100])
def test_class_zero_witnesses_of_a_run_match_each_n_alone_to_6000(monkeypatch, explain, block):
    # runs of up to 16 consecutive candidates of one m, every prime
    # N <= 6,000 and m | N - 1: rows of mixed k share a group, and with
    # a block of 100 residues the groups split and long rows walk alone;
    # m = 1 starts with N = 3, whose only sum-free witness is H + 1 = 2
    monkeypatch.setattr(classcount, "BLOCK", block)
    runs = {}
    for N in sieve_primes(6000).tolist()[1:]:
        for m in [d for d in range(1, N) if (N - 1) % d == 0]:
            runs.setdefault(m, []).append(N)
    assert runs[1][0] == 3
    for m, Ns in runs.items():
        for i in range(0, len(Ns), 16):
            run = Ns[i : i + 16]
            alone = [classcount._class_zero_witnesses([N], m, explain)[0] for N in run]
            assert classcount._class_zero_witnesses(run, m, explain) == alone, (m, run)
    assert classcount._class_zero_witnesses([3], 1) == [Witness("sum_free", (0, 0), 2)]


def test_class_zero_verdict_is_the_same_for_any_generator():
    # class 0 is the subgroup of m-th powers, so the least and the
    # largest generator give the same flags through the cyclic basis,
    # and the same witness on a failure of one of those three
    for N in sieve_primes(2000).tolist()[2:]:
        least = smallest_generator(N)
        largest = next(g for g in range(N - 1, 1, -1) if is_generator(g, N))
        for m in [m for m in range(2, N // 2 + 1) if (N - 1) % (2 * m) == 0]:
            a, b = check_candidate(N, m, least), check_candidate(N, m, largest)
            assert a.flags()[:3] == b.flags()[:3], (N, m)
            if a.failed_condition not in (None, "triangle"):
                assert a.witness == b.witness, (N, m)


@pytest.mark.parametrize("m,k,condition,residue", [
    (1_549_411, 1386, "sum_free", 634_005_912),
    (7_110_873, 302, "cyclic_basis", 3),
    (11_545_611, 186, "sum_free", 2),
])
def test_class_zero_witness_at_the_top_of_the_range(m, k, condition, residue):
    # N = 2^31 - 1, the largest modulus: the sorted walk must hold
    # residues up to N - 1 exactly.  Builtin pow only in the reference:
    # X_0 is the powers of 7^m (7 generates), and a sum_free witness is
    # the least a with a - 1 and a both in X_0
    N = 2**31 - 1
    assert m * k == N - 1
    X0 = sorted(pow(7, m * j, N) for j in range(k))
    found = set(X0)
    pairs = [a for a in X0 if a - 1 in found]
    if condition == "sum_free":
        assert pairs[:1] == [residue]
    else:
        assert not pairs
        assert least_cyclic_basis_miss(N, m, 7) == residue
    expected = Witness(condition, (0, 0) if condition == "sum_free" else (0,), residue)
    assert classcount._class_zero_witnesses([N], m) == [expected]


# Triangle failures past N = 10,000, each the first candidate of its m
# to pass the first three conditions with its least generator x.
LARGE_TRIANGLE_FAILURES = [
    (13633, 48, 5), (27091, 63, 2), (28211, 65, 2),
    (42701, 70, 3), (45893, 77, 2), (45553, 78, 5),
]


@pytest.mark.parametrize("N, m, x", LARGE_TRIANGLE_FAILURES)
def test_triangle_failure_witness_by_builtin_pow(N, m, x):
    T = full_pair_sum_class_matrix(full_class_index_table(N, m, x), m)
    assert np.array_equal(classcount._pair_mask(class_index_table(N, m, x), m), T > 0)
    rep = check_candidate(N, m, x)
    assert rep.flags() == (True, True, True, False)
    (zero, i), z = rep.witness.classes, rep.witness.residue
    assert zero == 0 and 0 < i < m
    # a + b = z with a in X_0 and b in X_i iff ((z - a) x^-i)^k = 1
    k = (N - 1) // m
    X0 = [pow(x, m * j, N) for j in range(k)]
    shift = pow(x, -i, N)

    def covered(r):
        return any(pow((r - a) * shift % N, k, N) == 1 for a in X0)

    assert not covered(z)
    assert all(covered(r) for r in range(1, z))
