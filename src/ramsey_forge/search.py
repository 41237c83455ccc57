"""Minimal-modulus search and nonexistence sweeps.

For a color count m the qualifying moduli are primes N = 1 (mod 2m);
`search_min_modulus` walks them in order and returns the first one whose
single-generator partition passes the full check, `sweep_nonexistence`
walks all of them and logs why each fails.  `candidate_primes` lists
them by sieving that progression alone, a byte per term, from the
primes up to sqrt(bound); no sieve of the whole range 0..bound is built.

The economics: nearly every candidate dies on the sum-free condition,
and most of the rest on the cyclic basis.  Both, like symmetry, depend
on (N, m) alone, and a block of candidates, 16 on one worker and
`BLOCK_SIZE` on the pool, makes the call every report makes,
`classcount._class_zero_witnesses`: it scans a few hundred residues for
two consecutive m-th powers when k is large against m^2, and otherwise
walks half of class 0 for the block at once, never building the O(N)
class table.  Only a candidate that passes those three gets a generator
of the whole group and a table, for the triangle, and a block stops at
its first pass, so no table is built past it.  A search, which keeps no
witness, computes none past its decision; a sweep logs every one.

A search checks only the window `cyclic_basis_floor(m)` <= N <=
`sum_free_cutoff(m)`, outside which no candidate can pass (see those
two for the proofs), and sieves only up to the cut-off.  The candidates
outside it still count as tested, so a record reads the same as if each
had been checked; an exhausted search counts those past the cut-off in
fixed segments (`SEGMENT`), so no bound below 2^31 costs more than a
megabyte of flags.  A sweep checks and logs every candidate.

Two runs with the same (m, bound) produce identical records whatever
the worker count: `in_order` yields them in job order, as plain `map`
on one worker, or from a pool that runs at most workers * 4 jobs ahead
and cancels the rest as soon as its consumer stops.  It is the package's
only process pool, and serves all four batch commands: a search's jobs
are its color counts, a sweep's are blocks of candidates, a catalog
verification's are its rows and a small-moduli scan's are its moduli.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import chain
from math import isqrt
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .checker import check_candidate  # noqa: F401  (a binding perfbench's tracer wraps)
from .classcount import GROUP_ROWS, _class_zero_witnesses, _triangle_witness
from .numbertheory import MAX_COUNTING_MODULUS, sieve_primes, smallest_generator
from .report import Witness

SEARCH_CSV_HEADER = "m,status,N,x,bound_used,candidates_tested,elapsed_ms"

DEFAULT_SEARCH_BOUND = 2_000_000

BLOCK_SIZE = 64

# Progression terms per sieve when an exhausted search counts the
# candidates past the window: a 1 MiB flag array at every bound.
SEGMENT = 1 << 20

ProgressFn = Callable[[int, int, int], None]


@dataclass(frozen=True)
class SearchRecord:
    """Outcome of one per-m search: found (N, x) or exhausted bound."""

    m: int
    status: str
    N: int | None
    x: int | None
    bound_used: int
    candidates_tested: int
    elapsed_ms: float

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "status": self.status,
            "N": self.N,
            "x": self.x,
            "bound_used": self.bound_used,
            "candidates_tested": self.candidates_tested,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_csv_row(self) -> str:
        n = "" if self.N is None else str(self.N)
        x = "" if self.x is None else str(self.x)
        return (
            f"{self.m},{self.status},{n},{x},{self.bound_used},"
            f"{self.candidates_tested},{self.elapsed_ms:.3f}"
        )

    @classmethod
    def from_dict(cls, d: dict) -> "SearchRecord":
        return cls(
            d["m"], d["status"], d["N"], d["x"],
            d["bound_used"], d["candidates_tested"], float(d["elapsed_ms"]),
        )

    @classmethod
    def from_csv_row(cls, line: str) -> "SearchRecord":
        f = line.rstrip("\n").split(",")
        if len(f) != 7:
            raise ValueError(f"malformed record row: {line!r}")
        return cls(
            int(f[0]), f[1],
            int(f[2]) if f[2] else None,
            int(f[3]) if f[3] else None,
            int(f[4]), int(f[5]), float(f[6]),
        )


@dataclass(frozen=True)
class CandidateFailure:
    """One rejected modulus and the witness to the condition it broke first."""

    N: int
    witness: Witness

    @property
    def failed_check(self) -> str:
        return self.witness.condition

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "failed_check": self.failed_check,
            "witness": self.witness.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


@dataclass(frozen=True)
class SweepResult:
    record: SearchRecord
    failures: tuple[CandidateFailure, ...]


def ramsey_recursive_bound(colors: int) -> int:
    """Recursive upper bound for the multicolor triangle Ramsey number:
    6 at two colors, then c * (previous - 1) + 2.

    Any modulus admitting an m-class partition must stay below this
    bound, which is what makes finite sweeps meaningful.  For the
    single-generator family `sum_free_cutoff` is far sharper: 1,809
    against 109,602 at eight colors.
    """
    if colors < 2:
        raise ValueError(f"need at least 2 colors, got {colors}")
    value = 6
    for c in range(3, colors + 1):
        value = c * (value - 1) + 2
    return value


def cyclic_basis_floor(m: int) -> int:
    """2m(m - 1) + 1: no N below it has a class 0 that is a symmetric
    sum-free cyclic basis, which needs k = (N - 1) / m >= 2(m - 1).

    Such an X_0 has X_0 + X_0 = Z_N \\ X_0: 0 = a + (-a), and every
    nonzero residue outside X_0.  That is N - k sums.  The k(k + 1)/2
    unordered pairs from X_0 give at most k^2/2 + 1 of them, since the
    k/2 pairs {a, -a} all give 0.  So N - k = (m - 1)k + 1 <= k^2/2 + 1.
    """
    return 2 * m * (m - 1) + 1


def sum_free_cutoff(m: int) -> int:
    """The largest N with N <= 3m - 1 or (N - 3m + 1)^2 <= c^2 N,
    c = (m - 1)(m - 2): no N past it with k = (N - 1) / m even has a
    sum-free class 0.

    Expanding the indicator of X_0 in the characters of order m gives
    m^2 T[0][0] = N - 3m + 1 + E, where E is a sum of (m - 1)(m - 2)
    Jacobi sums, each of absolute value sqrt(N) (Storer, Cyclotomy and
    Difference Sets, 1967; Berndt, Evans and Williams, Gauss and Jacobi
    Sums, 1998).  T[0][0] = 0 then needs |N - 3m + 1| <= c sqrt(N).
    With N = 3m - 1 + t, that is t^2 - c^2 t - c^2 (3m - 1) <= 0, whose
    largest integer solution is the floor of the positive root, taken
    here in exact integers: 5, 16, 1,809 and 17,499 at m = 2, 3, 8, 13.
    """
    a, c2 = 3 * m - 1, ((m - 1) * (m - 2)) ** 2
    return a + (c2 + isqrt(c2 * c2 + 4 * c2 * a)) // 2


# Largest certified nonexistence bounds for the two color counts the
# single-generator family is known to skip.  Both reach
# `sum_free_cutoff`, so no prime modulus at all serves either m.
DEFAULT_SWEEP_BOUNDS = {8: ramsey_recursive_bound(8), 13: 190997}


def default_sweep_bound(m: int) -> int:
    try:
        return DEFAULT_SWEEP_BOUNDS[m]
    except KeyError:
        raise ValueError(f"no default bound for m={m}; pass one explicitly")


def check_bound(bound: int) -> None:
    """Refuse a search bound before anything is allocated for it."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    if bound >= MAX_COUNTING_MODULUS:
        # no modulus this large can be checked
        raise ValueError(
            f"bound {bound} too large: moduli must stay below "
            f"MAX_COUNTING_MODULUS = 2^31 = {MAX_COUNTING_MODULUS}"
        )


def candidate_primes(m: int, lo: int, hi: int) -> list[int]:
    """Primes N in (lo, hi] with N = 1 (mod 2m), ascending.

    Only the progression first, first + 2m, ... <= hi is sieved, one
    flag per term.  A base prime p <= sqrt(hi) strikes the terms with
    index i = -first / 2m (mod p), except p itself; a p dividing 2m
    divides no term.
    """
    if m < 1:
        raise ValueError(f"class count must be >= 1, got {m}")
    check_bound(max(hi, 2))  # refuses hi >= 2^31 before allocating
    step = 2 * m
    first = lo + 1 + (1 - (lo + 1)) % step
    if first > hi:
        return []
    is_prime = np.ones((hi - first) // step + 1, dtype=bool)
    if first == 1:
        is_prime[0] = False
    for p in sieve_primes(max(isqrt(hi), 2)).tolist():
        if step % p == 0:
            continue
        i = -first * pow(step, -1, p) % p
        if first + i * step == p:
            i += p
        is_prime[i::p] = False
    return (first + step * np.flatnonzero(is_prime)).tolist()


def _count_candidates(m: int, lo: int, hi: int) -> int:
    """len(candidate_primes(m, lo, hi)), sieved `SEGMENT` terms at a
    time, so a bound near 2^31 never holds its whole progression."""
    span = 2 * m * SEGMENT
    return sum(
        len(candidate_primes(m, a, min(a + span, hi))) for a in range(lo, hi, span)
    )


def _evaluate_block(
    Ns: Sequence[int], m: int, explain: bool
) -> list[tuple[int, int | None, Witness | None]]:
    """(N, x, witness) for each modulus of a block up to its first pass,
    which has no witness.  x, the least generator, is computed only for
    a candidate that passes the first three conditions, else None.
    Unless `explain`, a cyclic-basis witness has residue None."""
    out = []
    for N, witness in zip(Ns, _class_zero_witnesses(Ns, m, explain)):
        x = None
        if witness is None:
            x = smallest_generator(N)
            witness = _triangle_witness(N, m, x)
        out.append((N, x, witness))
        if witness is None:
            break
    return out


def in_order(fn: Callable, jobs: Iterable, workers: int) -> Iterator:
    """fn(job) for each job, yielded in job order.  One worker is plain
    `map`.  More run on a pool at most workers * 4 jobs past the one
    being waited for; closing the generator, or an error in its
    consumer, cancels every job that has not started and returns at
    once; a pool whose jobs were all consumed joins its workers, lest
    the interpreter's exit hook race their teardown."""
    if workers <= 1:
        yield from map(fn, jobs)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    window: deque = deque()
    try:
        for job in jobs:
            window.append(pool.submit(fn, job))
            if len(window) > workers * 4:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(wait=not window, cancel_futures=True)


def _scan_candidates(
    m: int,
    bound: int,
    *,
    collect_failures: bool,
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> tuple[SearchRecord, tuple[CandidateFailure, ...]]:
    t0 = time.perf_counter()
    check_bound(bound)
    # every candidate outside the window fails; a search lists none past
    # it, and counts them as tested only if it finds nothing
    top = bound if collect_failures else min(bound, sum_free_cutoff(m))
    candidates = candidate_primes(m, 0, top)
    lo = 0 if collect_failures else bisect_left(candidates, cyclic_basis_floor(m))
    checked = candidates[lo:]
    if len(checked) <= BLOCK_SIZE:
        workers = 1
    size = BLOCK_SIZE if workers > 1 else GROUP_ROWS
    blocks = in_order(
        partial(_evaluate_block, m=m, explain=collect_failures),
        (checked[i : i + size] for i in range(0, len(checked), size)),
        workers,
    )
    failures: list[CandidateFailure] = []

    def finish(status: str, N, x, tested: int) -> SearchRecord:
        ms = (time.perf_counter() - t0) * 1000.0
        return SearchRecord(m, status, N, x, bound, tested, ms)

    with closing(blocks):
        results = chain.from_iterable(blocks)
        for done, (N, x, witness) in enumerate(results, lo + 1):
            if witness is None:
                # a sweep that finds one reports it rather than keep scanning
                return finish("found", N, x, done), tuple(failures)
            if collect_failures:
                failures.append(CandidateFailure(N, witness))
            if progress and done % BLOCK_SIZE == 0:
                progress(m, N, done)
    tested = len(candidates) + _count_candidates(m, top, bound)
    return finish("exhausted", None, None, tested), tuple(failures)


def search_min_modulus(m: int, bound: int = DEFAULT_SEARCH_BOUND) -> SearchRecord:
    """Least qualifying prime N <= bound whose partition passes all
    checks, or an exhausted record if none does.
    """
    if m < 2:
        raise ValueError(f"search needs m >= 2, got {m}")
    record, _ = _scan_candidates(m, bound, collect_failures=False)
    return record


def sweep_nonexistence(
    m: int,
    bound: int | None = None,
    *,
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> SweepResult:
    """Check every qualifying prime up to the bound, recording for each
    the first condition it breaks.  Exhausted means none passed, which
    certifies nonexistence below the bound for this m.
    """
    if m < 2:
        raise ValueError(f"sweep needs m >= 2, got {m}")
    if bound is None:
        bound = default_sweep_bound(m)
    record, failures = _scan_candidates(
        m, bound, collect_failures=True, workers=workers, progress=progress
    )
    return SweepResult(record, failures)


def search_all(
    m_lo: int,
    m_hi: int,
    bound: int = DEFAULT_SEARCH_BOUND,
    *,
    workers: int = 1,
    progress: ProgressFn | None = None,
    resume_records: Iterable[SearchRecord] = (),
    on_record: Callable[[SearchRecord], None] | None = None,
) -> list[SearchRecord]:
    """One record per m in [m_lo, m_hi], ascending.

    Parallelism is across color counts; each per-m search stays in
    candidate order, so results are independent of worker count.
    Records from a previous run are reused verbatim when their bound
    matches, and `on_record` streams completed records in m order so an
    interrupted run resumes from its own output.
    """
    if not 2 <= m_lo <= m_hi:
        raise ValueError(f"need 2 <= m_lo <= m_hi, got {m_lo}..{m_hi}")
    check_bound(bound)
    resume = {
        r.m: r
        for r in resume_records
        if r.bound_used == bound and m_lo <= r.m <= m_hi
    }
    pending = [m for m in range(m_lo, m_hi + 1) if m not in resume]
    computed = in_order(
        partial(search_min_modulus, bound=bound), pending, min(workers, len(pending))
    )
    out: list[SearchRecord] = []
    with closing(computed):
        for m in range(m_lo, m_hi + 1):
            rec = resume[m] if m in resume else next(computed)
            out.append(rec)
            if on_record:
                on_record(rec)
            if progress:
                progress(rec.m, rec.N or 0, rec.candidates_tested)
    return out


def records_from_csv(text: str) -> list[SearchRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    if lines[0] != SEARCH_CSV_HEADER:
        raise ValueError(f"unexpected header: {lines[0]!r}")
    return [SearchRecord.from_csv_row(ln) for ln in lines[1:]]


def records_from_jsonl(text: str) -> list[SearchRecord]:
    return [
        SearchRecord.from_dict(json.loads(ln))
        for ln in text.splitlines()
        if ln.strip()
    ]
