import json
import multiprocessing
import operator
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, process
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsey_forge import classcount, search
from ramsey_forge.catalog import load_catalog
from ramsey_forge.checker import check_candidate
from ramsey_forge.numbertheory import MAX_COUNTING_MODULUS, sieve_primes, smallest_generator
from ramsey_forge.report import Witness
from ramsey_forge.search import (
    SEARCH_CSV_HEADER,
    CandidateFailure,
    SearchRecord,
    candidate_primes,
    check_bound,
    cyclic_basis_floor,
    default_sweep_bound,
    ramsey_recursive_bound,
    records_from_csv,
    records_from_jsonl,
    search_all,
    search_min_modulus,
    sum_free_cutoff,
    sweep_nonexistence,
)
from reference import bitmask_partition, bitset_report


@pytest.fixture(scope="module")
def sieve():
    return sieve_primes(30_000)


def test_candidate_primes_examples():
    assert candidate_primes(2, 0, 50) == [5, 13, 17, 29, 37, 41]
    assert candidate_primes(3, 0, 13) == [7, 13]
    assert candidate_primes(400, 0, 800) == []
    # half-open on the left: lo itself is excluded
    assert candidate_primes(3, 7, 20) == [13, 19]


def test_candidate_primes_rejects_bad_args():
    with pytest.raises(ValueError):
        candidate_primes(0, 0, 100)
    with pytest.raises(ValueError, match="MAX_COUNTING_MODULUS"):
        candidate_primes(2, 0, 2**31)


def test_candidate_primes_match_full_sieve():
    # Covers p dividing 2m (never struck), base primes that lie on the
    # progression themselves (7 and 13 for m = 3), and first > hi.
    full = sieve_primes(300_000)
    ranges = [(0, 2), (0, 3), (2, 3), (0, 10), (5, 5000), (1234, 299_999), (0, 300_000)]
    for m in range(1, 121):
        step = 2 * m
        for lo, hi in ranges:
            grid = np.arange(lo + 1 + (1 - (lo + 1)) % step, hi + 1, step)
            expected = grid[np.isin(grid, full)].tolist()
            assert candidate_primes(m, lo, hi) == expected, (m, lo, hi)


def test_candidate_primes_near_limit_stay_small():
    # the progression sieve holds a byte per term, 2^31 / 800 of them
    # here, where a sieve of the whole range would take 2 GiB
    tracemalloc.start()
    try:
        cands = candidate_primes(400, 0, MAX_COUNTING_MODULUS - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    top = cands[-100:]
    assert top[-1] < MAX_COUNTING_MODULUS
    assert all(N % 800 == 1 and pow(2, N - 1, N) == 1 for N in top)


def test_candidates_all_qualify(sieve):
    for m in (2, 3, 7, 12, 50):
        for N in candidate_primes(m, 0, 10_000):
            assert N % (2 * m) == 1
            assert N in sieve


def test_ramsey_bound_values():
    assert ramsey_recursive_bound(2) == 6
    assert ramsey_recursive_bound(3) == 17
    assert ramsey_recursive_bound(4) == 66
    assert ramsey_recursive_bound(8) == 109_602
    assert ramsey_recursive_bound(13) == 16_926_797_487


def test_ramsey_bound_rejects_small():
    with pytest.raises(ValueError):
        ramsey_recursive_bound(1)


def test_ramsey_bound_table():
    # the recurrence R(c) = c * (R(c-1) - 1) + 2 over c = 3..13
    bounds = {c: ramsey_recursive_bound(c) for c in range(2, 14)}
    assert bounds[2] == 6
    assert bounds[8] == 109_602
    assert bounds[13] == 16_926_797_487
    for c in range(3, 14):
        assert bounds[c] == c * (bounds[c - 1] - 1) + 2


def test_search_first_hit():
    rec = search_min_modulus(2, 2_000)
    assert (rec.status, rec.N, rec.x) == ("found", 5, 2)
    assert rec.candidates_tested == 1
    assert rec.bound_used == 2_000


def test_search_known_minimums():
    for m, N, x in [(3, 13, 2), (4, 41, 6), (5, 71, 7), (6, 97, 5), (7, 491, 2)]:
        rec = search_min_modulus(m, 1_000)
        assert (rec.status, rec.N, rec.x) == ("found", N, x), m


def test_search_skips_smaller_qualifying_primes():
    # minimality is baked into candidate order: every qualifying prime
    # below the hit must fail its full check
    rec = search_min_modulus(5, 1_000)
    assert rec.N == 71
    smaller = candidate_primes(5, 0, 70)
    assert rec.candidates_tested == len(smaller) + 1
    for N in smaller:
        assert not check_candidate(N, 5, smallest_generator(N)).overall


def test_search_exhausted():
    rec = search_min_modulus(8, 20_000)
    assert rec.status == "exhausted"
    assert rec.N is None and rec.x is None
    assert rec.candidates_tested == len(candidate_primes(8, 0, 20_000))


def _plain_generator(N):
    """Least y generating Z_N^*, by trial division of N - 1 and builtin pow."""
    n, qs, q = N - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            qs.append(q)
            while n % q == 0:
                n //= q
        q += 1
    qs += [n] if n > 1 else []
    y = 2
    while any(pow(y, (N - 1) // q, N) == 1 for q in qs):
        y += 1
    return y


def test_sum_free_cutoff_values():
    assert [sum_free_cutoff(m) for m in (2, 3, 8, 13)] == [5, 16, 1809, 17499]
    for m in range(2, 401):
        c, N = (m - 1) * (m - 2), sum_free_cutoff(m)
        # the largest N with N <= 3m - 1 or (N - 3m + 1)^2 <= c^2 N
        assert (N - 3 * m + 1) ** 2 <= c * c * N, m
        assert (N - 3 * m + 2) ** 2 > c * c * (N + 1), m
        assert cyclic_basis_floor(m) <= N, m
        assert (N < 2_500_000) == (m <= 41), m


def test_cyclotomic_identity_bounds_t00_to_5000():
    # m^2 T[0][0] = N - 3m + 1 + E with |E| <= (m - 1)(m - 2) sqrt(N),
    # E = 0 at m = 2; T[0][0] counts a in X_0 with 1 - a in X_0, and X_0
    # is walked as the powers of y^m with builtin pow and multiplication
    pairs = 0
    for N in sieve_primes(5_000).tolist()[1:]:
        y = _plain_generator(N)
        for m in range(2, N):
            k = (N - 1) // m
            if (N - 1) % m or k % 2:
                continue
            g, z, X0 = pow(y, m, N), 1, set()
            for _ in range(k):
                X0.add(z)
                z = z * g % N
            T00 = sum((1 - a) % N in X0 for a in X0)
            E, c = m * m * T00 - (N - 3 * m + 1), (m - 1) * (m - 2)
            assert E * E <= c * c * N, (N, m)
            assert m != 2 or E == 0, N
            assert T00 > 0 or N <= sum_free_cutoff(m), (N, m)
            pairs += 1
    assert pairs > 3000


def test_every_candidate_below_the_floor_fails_the_reference():
    # k < 2(m - 1) leaves X_0 + X_0 too few sums to be Z_N \ X_0
    tested = 0
    for m in range(2, 41):
        for N in candidate_primes(m, 0, cyclic_basis_floor(m) - 1):
            rep = bitset_report(bitmask_partition(N, m, smallest_generator(N)))
            assert rep.failed_condition in ("sum_free", "cyclic_basis"), (N, m)
            tested += 1
    assert tested > 200


def test_catalog_rows_lie_in_the_window():
    rows = load_catalog()
    assert all(cyclic_basis_floor(r.m) <= r.N <= sum_free_cutoff(r.m) for r in rows)
    # the floor is sharp: two rows meet it exactly
    assert [(r.m, r.N) for r in rows if r.N == cyclic_basis_floor(r.m)] == [(2, 5), (3, 13)]


def test_search_checks_only_the_window(monkeypatch):
    def refuse(*args):
        raise AssertionError("called outside the first three conditions")

    engine, checked = search._class_zero_witnesses, []

    def counted(Ns, *args):
        checked.extend(Ns)
        return engine(Ns, *args)

    monkeypatch.setattr(search, "_class_zero_witnesses", counted)
    monkeypatch.setattr(search, "smallest_generator", refuse)
    monkeypatch.setattr(search, "_triangle_witness", refuse)
    rec = search_min_modulus(8, 2_500_000)
    cands = candidate_primes(8, 0, 2_500_000)
    assert (rec.status, rec.candidates_tested) == ("exhausted", len(cands))
    assert checked == [N for N in cands if 113 <= N <= 1809]


def test_search_never_scans_for_a_cyclic_basis_witness(monkeypatch):
    # a search keeps no witness, so it never scans Z_N for the residue
    # X_0 + X_0 misses; these windows hold 141 cyclic_basis failures and
    # no triangle failure, the scan's only other caller.  A sweep logs
    # each witness, so its 4 cyclic_basis failures at m = 13 still scan.
    def refuse(*args):
        raise AssertionError("scanned for a witness")

    finder, scanned = classcount._first_hit, []
    monkeypatch.setattr(classcount, "_first_hit", refuse)
    rows = {r.m: r for r in load_catalog()}
    for m in (10, 21, 60, 100, 200, 400):
        rec, N = search_min_modulus(m, 2_500_000), rows[m].N
        assert (rec.status, rec.N, rec.x, rec.candidates_tested) == (
            "found", N, smallest_generator(N), len(candidate_primes(m, 0, N))
        ), m

    def counted(N, hit):
        scanned.append(N)
        return finder(N, hit)

    monkeypatch.setattr(classcount, "_first_hit", counted)
    failures = sweep_nonexistence(13, 190_997).failures
    missed = [f for f in failures if f.failed_check == "cyclic_basis"]
    assert scanned == [f.N for f in missed] and len(missed) == 4
    assert all(type(f.witness.residue) is int for f in failures)


def test_class_zero_groups_hold_at_most_a_block(monkeypatch):
    # a group of rows walks at most BLOCK residues; only a single row,
    # walked as one flat array, may be longer.  The walks of this sweep
    # reach 6,776 residues a group, so a block of 1,000 splits groups
    # and leaves rows of 1,000 or more alone, with the same log
    walk, shapes = classcount.power_walk, []

    def spy(g, n, N):
        out = walk(g, n, N)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(classcount, "power_walk", spy)
    failures = sweep_nonexistence(13, 400_000).failures
    for block in (classcount.BLOCK, 1000):
        monkeypatch.setattr(classcount, "BLOCK", block)
        shapes.clear()
        assert sweep_nonexistence(13, 400_000).failures == failures
        assert all(len(s) == 1 or s[0] * s[1] <= block for s in shapes), block
        assert any(len(s) == 2 and s[0] > 1 for s in shapes), block
    assert any(len(s) == 1 and s[0] > 1000 for s in shapes)


@pytest.mark.parametrize("m", [6, 25, 36])
def test_search_builds_no_table_past_its_pass(monkeypatch, m):
    # the block of 16 candidates that holds the pass stops there: after
    # the pass, 2 candidates of its block meet the first three conditions
    # at m = 6 and 3 at m = 36; at m = 25 the pass ends its block
    build, tables = classcount._half_table, []

    def spy(N, m, x):
        tables.append(N)
        return build(N, m, x)

    monkeypatch.setattr(classcount, "_half_table", spy)
    rec = search_min_modulus(m, 2_500_000)
    assert (rec.status, tables) == ("found", [rec.N])


def test_found_search_sieves_only_to_the_cut_off():
    # N = 5 is the first candidate and the cut-off at m = 2; sieving the
    # whole progression to 10^8 would trace about 160 MB
    tracemalloc.start()
    try:
        rec = search_min_modulus(2, 10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert (rec.status, rec.N, rec.x, rec.bound_used, rec.candidates_tested) == (
        "found", 5, 2, 10**8, 1
    )
    rec = search_min_modulus(8, 10**6)
    assert rec.status == "exhausted"
    assert rec.candidates_tested == len(candidate_primes(8, 0, 10**6))
    # a sweep checks every candidate, but sieves only the segment it is
    # in; listing the whole progression to 10^8 would trace about 148 MiB
    tracemalloc.start()
    try:
        result = sweep_nonexistence(3, 10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert (result.record.status, result.record.N, result.record.candidates_tested) == (
        "found", 13, 2
    )


@pytest.mark.parametrize("segment", [1, 7, 1000])
def test_exhausted_count_is_the_same_in_any_segment(monkeypatch, segment):
    # searches and sweeps take their candidates a segment at a time; no
    # candidate may be lost or counted twice at a segment's edge
    sweeps = [(8, 30_000), (13, 40_000)]
    expected = [sweep_nonexistence(m, bound) for m, bound in sweeps]
    monkeypatch.setattr(search, "SEGMENT", segment)
    for m, bound in [(8, 30_000), (13, 40_000), (8, sum_free_cutoff(8) + 1)]:
        rec = search_min_modulus(m, bound)
        assert rec.status == "exhausted"
        assert rec.candidates_tested == len(candidate_primes(m, 0, bound)), (m, bound)
    for (m, bound), want in zip(sweeps, expected):
        got = sweep_nonexistence(m, bound)
        assert got.failures == want.failures, (m, bound)
        assert replace(got.record, elapsed_ms=0) == replace(want.record, elapsed_ms=0)


@pytest.mark.parametrize("segment", [1, 7, search.SEGMENT])
def test_search_checks_nothing_below_the_window_in_any_segment(monkeypatch, segment):
    # the candidates up to cyclic_basis_floor(m) - 1 = 112 span many
    # segments of one term; each is counted as tested, none is checked
    checked = []

    def spy(Ns, m, explain):
        checked.extend(Ns)
        return evaluate(Ns, m, explain)

    evaluate = search._evaluate_block
    monkeypatch.setattr(search, "_evaluate_block", spy)
    monkeypatch.setattr(search, "SEGMENT", segment)
    rec = search_min_modulus(8, 30_000)
    assert (rec.status, rec.candidates_tested) == ("exhausted", 399)
    assert min(checked) == cyclic_basis_floor(8) == 113


def test_search_matches_a_check_of_every_candidate():
    # the window and the lazy generator change no field but the time
    bound = 20_000
    for m in range(2, 31):
        cands = candidate_primes(m, 0, bound)
        brute = ("exhausted", None, None, bound, len(cands))
        for tested, N in enumerate(cands, 1):
            x = smallest_generator(N)
            if check_candidate(N, m, x).overall:
                brute = ("found", N, x, bound, tested)
                break
        rec = search_min_modulus(m, bound)
        assert (rec.status, rec.N, rec.x, rec.bound_used, rec.candidates_tested) == brute, m


def test_search_rejects_small_m():
    with pytest.raises(ValueError):
        search_min_modulus(1, 100)


def test_search_non_monotone_neighbors():
    # minimal moduli are not monotone in m
    n10 = search_min_modulus(10, 2_000).N
    n11 = search_min_modulus(11, 2_000).N
    assert (n10, n11) == (1181, 947)
    assert n10 > n11


def test_sweep_small_example():
    result = sweep_nonexistence(3, 12)
    assert result.record.status == "exhausted"
    assert result.record.candidates_tested == 1
    assert len(result.failures) == 1
    f = result.failures[0]
    assert f.N == 7
    assert f.failed_check == "cyclic_basis"
    assert f.witness.classes == (0,)
    assert f.witness.residue == 3


@pytest.mark.parametrize(
    "witness",
    [
        Witness("symmetric", (0,), 1),
        Witness("sum_free", (0, 0), 2_147_483_646),
        Witness("cyclic_basis", (0,), None),
        Witness("triangle", (0, 17), 40),
    ],
)
def test_failure_line_is_the_compact_json_of_its_dict(witness):
    # a sweep log line is formatted directly, but must read as json.dumps
    # would write it, a missing residue as null
    fail = CandidateFailure(2_147_483_647, witness)
    assert fail.to_json() == json.dumps(fail.to_dict(), separators=(",", ":"))
    assert json.loads(fail.to_json()) == fail.to_dict()


def test_sweep_found_reports_found():
    result = sweep_nonexistence(3, 50)
    assert result.record.status == "found"
    assert result.record.N == 13
    assert [f.N for f in result.failures] == [7]


def test_sweep_failures_cover_all_candidates():
    result = sweep_nonexistence(8, 5_000)
    assert result.record.status == "exhausted"
    cands = candidate_primes(8, 0, 5_000)
    assert [f.N for f in result.failures] == cands
    assert result.record.candidates_tested == len(cands)
    for f in result.failures:
        assert f.failed_check in ("sum_free", "cyclic_basis", "triangle")
        assert f.witness.condition == f.failed_check


@pytest.mark.parametrize("m,sum_free,cyclic_basis", [(8, 1284, 2), (13, 1428, 4)])
def test_sweep_tallies_and_sum_free_witnesses_at_default_bounds(m, sum_free, cyclic_basis):
    # each sum_free witness is checked with builtin pow alone: a and
    # 1 - a are m-th powers (z^k = 1), and no smaller z >= 2 is such a pair
    result = sweep_nonexistence(m)
    assert result.record.status == "exhausted"
    tally = Counter(f.failed_check for f in result.failures)
    assert tally == {"sum_free": sum_free, "cyclic_basis": cyclic_basis}
    for f in result.failures:
        if f.failed_check == "sum_free":
            N, a, k = f.N, f.witness.residue, (f.N - 1) // m
            pairs = [z for z in range(2, a + 1) if pow(z, k, N) == pow(1 - z, k, N) == 1]
            assert f.witness.classes == (0, 0) and pairs[:1] == [a], (N, a)


def test_sweep_default_bounds():
    assert default_sweep_bound(8) == 109_602
    assert default_sweep_bound(13) == 190_997
    with pytest.raises(ValueError):
        default_sweep_bound(9)


def test_search_all_orders_and_statuses(sieve):
    recs = search_all(2, 14, 2_000, workers=1)
    assert [r.m for r in recs] == list(range(2, 15))
    by_m = {r.m: r for r in recs}
    assert by_m[8].status == "exhausted"
    assert by_m[13].status == "exhausted"
    assert by_m[9].N == 523
    assert by_m[12].N == 769
    assert by_m[14].N == 1709


def test_search_all_deterministic_across_workers(sieve):
    seq = search_all(2, 14, 2_000, workers=1)
    par = search_all(2, 14, 2_000, workers=3)
    strip = lambda rs: [(r.m, r.status, r.N, r.x, r.bound_used, r.candidates_tested) for r in rs]
    assert strip(seq) == strip(par)


def test_parallel_single_m_matches_sequential():
    # m=8 to 20k has hundreds of candidates, so two workers take the
    # block path
    seq = sweep_nonexistence(8, 20_000, workers=1).record
    par = sweep_nonexistence(8, 20_000, workers=2).record
    assert (seq.status, seq.N, seq.candidates_tested) == (
        par.status,
        par.N,
        par.candidates_tested,
    )
    sweep_seq = sweep_nonexistence(6, 6_000, workers=1)
    sweep_par = sweep_nonexistence(6, 6_000, workers=2)
    assert sweep_seq.record.to_csv_row().rsplit(",", 1)[0] == sweep_par.record.to_csv_row().rsplit(",", 1)[0]
    assert sweep_seq.failures == sweep_par.failures


def test_search_all_resume_reuses_matching_records(sieve):
    first = search_all(2, 7, 2_000, workers=1)
    calls = []
    resumed = search_all(
        2, 7, 2_000, workers=1, resume_records=first, on_record=calls.append
    )
    # resumed records come back verbatim, including elapsed time
    assert resumed == first
    assert calls == first
    # a different bound invalidates the cache
    fresh = search_all(2, 7, 1_000, workers=1, resume_records=first)
    assert all(r.bound_used == 1_000 for r in fresh)


def test_bound_past_int64_limit_refused_before_allocating(no_pool):
    # no modulus of 2^31 or more can be checked, so the bound is refused
    # before any candidate list or pool exists
    check_bound(MAX_COUNTING_MODULUS - 1)
    tracemalloc.start()
    try:
        for run in (
            lambda: search_min_modulus(2, MAX_COUNTING_MODULUS),
            lambda: sweep_nonexistence(13, MAX_COUNTING_MODULUS),
            lambda: search_all(2, 3, 2**40, workers=2),
            lambda: candidate_primes(2, 0, MAX_COUNTING_MODULUS),
        ):
            with pytest.raises(ValueError, match="MAX_COUNTING_MODULUS"):
                run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_blocks_are_the_same_at_any_worker_count(monkeypatch, counting_pool):
    # a serial sweep and a pooled one evaluate the same blocks of 64
    blocks = []

    def spy(Ns, m, explain):
        blocks.append(list(Ns))
        return evaluate(Ns, m, explain)

    evaluate = search._evaluate_block
    monkeypatch.setattr(search, "_evaluate_block", spy)
    serial = sweep_nonexistence(13, 190_997).failures
    serial_blocks = blocks.copy()
    blocks.clear()
    assert not counting_pool
    assert sweep_nonexistence(13, 190_997, workers=2).failures == serial
    cands = candidate_primes(13, 0, 190_997)
    assert serial_blocks == blocks == [cands[i : i + 64] for i in range(0, len(cands), 64)]
    assert [job[1] for job in counting_pool] == blocks


def test_search_runs_outside_the_pool(monkeypatch, no_pool):
    def refuse(*args, **kwargs):
        raise AssertionError("search reached in_order")

    monkeypatch.setattr(search, "in_order", refuse)
    assert search_min_modulus(9, 2_000).N == 523
    assert search_min_modulus(8, 30_000).status == "exhausted"


def test_single_job_starts_no_pool(no_pool):
    # one pending m, or one block's worth of candidates, runs in-process
    assert search_all(8, 8, 2_000, workers=2)[0].status == "exhausted"
    assert sweep_nonexistence(3, 50, workers=2).record.N == 13


def test_pool_never_outnumbers_its_jobs(monkeypatch):
    # two jobs on four workers start two processes, not four
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    assert list(search.in_order(operator.neg, iter(range(2)), 4)) == [0, -1]
    assert sizes == [2]


def test_consumer_error_cancels_queued_jobs(counting_pool):
    # the pool runs at most workers * 4 jobs past the one being waited
    # for, and an error in the consumer cancels all that have not started
    def stop(record):
        raise RuntimeError("consumer failed")

    with pytest.raises(RuntimeError, match="consumer failed"):
        search_all(2, 60, 2_000, workers=2, on_record=stop)
    assert 0 < len(counting_pool) <= 2 * 4 + 1


def test_consumed_pool_leaves_no_worker_behind():
    # a pool whose jobs were all consumed joins its workers and its
    # manager thread, so the interpreter's exit hook has nothing to wake
    children = set(multiprocessing.active_children())
    wakeups = set(process._threads_wakeups)
    assert list(search.in_order(operator.neg, range(20), 2)) == [-j for j in range(20)]
    assert set(multiprocessing.active_children()) <= children
    assert set(process._threads_wakeups) <= wakeups


def test_search_all_rejects_bad_range():
    with pytest.raises(ValueError):
        search_all(5, 4, 1_000)
    with pytest.raises(ValueError):
        search_all(1, 4, 1_000)


_RECORDS = st.builds(
    SearchRecord,
    m=st.integers(2, 10**4),
    status=st.sampled_from(["found", "exhausted"]),
    N=st.none() | st.integers(2, 2**31),
    x=st.none() | st.integers(1, 2**31),
    bound_used=st.integers(2, 2**31),
    candidates_tested=st.integers(0, 10**8),
    # serialized timings carry three decimals
    elapsed_ms=st.integers(0, 10**12).map(lambda n: n / 1000),
)


def records_to_csv(records):
    # the text `search --format csv` writes: the header, then a line per record
    return "".join(line + "\n" for line in [SEARCH_CSV_HEADER, *(r.to_csv_row() for r in records)])


def records_to_jsonl(records):
    # the text `search --format json` writes: one compact object per line
    return "".join(json.dumps(r.to_dict(), separators=(",", ":")) + "\n" for r in records)


def test_record_round_trips(sieve):
    from dataclasses import replace

    # serialized timings carry three decimals, so compare at that grain
    recs = [
        replace(r, elapsed_ms=round(r.elapsed_ms, 3))
        for r in search_all(2, 9, 2_000, workers=1)
    ]
    assert records_from_csv(records_to_csv(recs)) == recs
    assert records_from_jsonl(records_to_jsonl(recs)) == recs

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.lists(_RECORDS, max_size=8))
    def generated_round_trip(recs):
        assert records_from_csv(records_to_csv(recs)) == recs
        assert records_from_jsonl(records_to_jsonl(recs)) == recs

    generated_round_trip()
    assert records_from_csv("") == []
    with pytest.raises(ValueError):
        records_from_csv("m,who,knows\n")
    with pytest.raises(ValueError):
        SearchRecord.from_csv_row("1,2,3")


def test_progress_callback_fires():
    seen = []
    sweep_nonexistence(
        8,
        20_000,
        workers=2,
        progress=lambda m, N, tested: seen.append((m, N, tested)),
    )
    assert seen
    assert all(m == 8 for m, _, _ in seen)
    tested_values = [t for _, _, t in seen]
    assert tested_values == sorted(tested_values)
