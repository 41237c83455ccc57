import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramsey_forge.classcount import MAX_COUNTING_MODULUS
from ramsey_forge.numbertheory import sieve_primes
from ramsey_forge.search import (
    SEARCH_CSV_HEADER,
    SearchRecord,
    candidate_primes,
    check_bound,
    default_sweep_bound,
    ramsey_recursive_bound,
    records_from_csv,
    records_from_jsonl,
    search_all,
    search_min_modulus,
    sweep_nonexistence,
)


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
    from ramsey_forge.checker import check_candidate
    from ramsey_forge.numbertheory import smallest_generator

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


def test_single_job_starts_no_pool(no_pool):
    # one pending m, or one block's worth of candidates, runs in-process
    assert search_all(8, 8, 2_000, workers=2)[0].status == "exhausted"
    assert sweep_nonexistence(3, 50, workers=2).record.N == 13


def test_consumer_error_cancels_queued_jobs(counting_pool):
    # the pool runs at most workers * 4 jobs past the one being waited
    # for, and an error in the consumer cancels all that have not started
    def stop(record):
        raise RuntimeError("consumer failed")

    with pytest.raises(RuntimeError, match="consumer failed"):
        search_all(2, 60, 2_000, workers=2, on_record=stop)
    assert 0 < len(counting_pool) <= 2 * 4 + 1


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
