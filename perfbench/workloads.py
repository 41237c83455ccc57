"""The benchmark's four workloads: the inputs each draws from the seed,
the ``ramsey-forge`` command lines that run them, and the checks their
outputs must pass.

The reference outputs live in ``reference.json`` next to this file and
were frozen from the seed program; see README.md for how each was made.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="ascii"))

WORKLOADS = ("search", "sweep", "verify", "crosscheck")

# search: one m from each band of 40 in 2..400, without the two m that
# have no modulus.
SEARCH_M = (2, 400)
SEARCH_BAND = 40
NO_MODULUS = (8, 13)
# A draw is kept only when its work lies within this share of the mean
# over all draws, and its largest modulus in this range, so that every
# seed asks for the same amount of work and the same peak memory.
SEARCH_WORK_TOLERANCE = 0.01
SEARCH_LARGEST_N = (2_000_000, 2_200_000)
# Work of one m: the moduli summed over the candidates that pass the
# sum-free screen (each pays for O(N) class tables), plus this many
# residues for every candidate.  The weight is the least-squares fit of
# per-m search times of the seed program.
CANDIDATE_WEIGHT = 7100


@dataclass(frozen=True)
class Call:
    """One ``ramsey-forge`` invocation; ``failures`` is the log it writes."""

    argv: tuple[str, ...]
    failures: Path | None = None


@dataclass(frozen=True)
class Output:
    rc: int
    stdout: str
    failures: bytes | None


def search_rows() -> dict[int, list[int]]:
    """m -> [N, x, candidates, survivors, survivor_n_sum] of the seed run."""
    return {int(m): row for m, row in REFERENCE["search"]["rows"].items()}


def search_bands() -> list[list[int]]:
    lo, hi = SEARCH_M
    return [
        [m for m in range(start, min(start + SEARCH_BAND, hi + 1)) if m not in NO_MODULUS]
        for start in range(lo, hi + 1, SEARCH_BAND)
    ]


def search_work(row: list[int]) -> int:
    _, _, candidates, _, survivor_n_sum = row
    return survivor_n_sum + CANDIDATE_WEIGHT * candidates


def search_ms(seed: int) -> list[int]:
    """The color counts the search workload runs for this seed."""
    rows = search_rows()
    bands = search_bands()
    work = {m: search_work(rows[m]) for band in bands for m in band}
    target = sum(statistics.fmean(work[m] for m in band) for band in bands)
    lo, hi = SEARCH_LARGEST_N
    rng = random.Random(seed)
    while True:
        pick = [rng.choice(band) for band in bands]
        if (
            abs(sum(work[m] for m in pick) / target - 1) <= SEARCH_WORK_TOLERANCE
            and lo <= max(rows[m][0] for m in pick) <= hi
        ):
            return pick


def calls(workload: str, seed: int, workers: int, out_dir: Path) -> list[Call]:
    """Command lines of one pass.  Only search uses the seed."""
    if workload == "search":
        bound = str(REFERENCE["search"]["bound"])
        return [
            Call(("search", "--m", str(m), "--bound", bound, "--workers", "1"))
            for m in search_ms(seed)
        ]
    if workload == "sweep":
        return [
            Call(
                ("sweep", "--m", m, "--bound", str(ref["bound"]),
                 "--failures", str(out_dir / f"failures-{m}.jsonl"),
                 "--workers", str(workers)),
                out_dir / f"failures-{m}.jsonl",
            )
            for m, ref in REFERENCE["sweep"].items()
        ]
    if workload == "verify":
        return [Call(("verify", "--all"))]
    if workload == "crosscheck":
        return [Call(("scan", "--nmax", str(REFERENCE["crosscheck"]["nmax"])))]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def sum_free_witness_holds(N: int, m: int, a: int) -> bool:
    """a and 1 - a both lie in class 0, the m-th power residues mod N,
    which is what a sum_free witness claims.  Uses only the power-residue
    test, nothing of the program."""
    k = (N - 1) // m
    return pow(a, k, N) == 1 and pow((1 - a) % N, k, N) == 1


def failure_outcomes(log: bytes, m: int) -> tuple[dict[str, int], bool]:
    """Tally of first failing conditions in a sweep's failure log, and
    whether every sum_free witness in it re-checks."""
    tally: dict[str, int] = {}
    witnesses_hold = True
    for line in log.decode("ascii").splitlines():
        rec = json.loads(line)
        cond = rec["failed_check"]
        tally[cond] = tally.get(cond, 0) + 1
        if cond == "sum_free":
            w = rec["witness"]
            witnesses_hold &= w["classes"] == [0, 0] and sum_free_witness_holds(
                rec["N"], m, w["residue"]
            )
    return tally, witnesses_hold


def check(workload: str, pass_calls: list[Call], outputs: list[Output]) -> tuple[list[bool], dict[str, int]]:
    """One verdict per expected output of the pass, and the exact counts
    read from those outputs."""
    verdicts: list[bool] = []
    counts: dict[str, int] = {}
    if workload == "search":
        rows = search_rows()
        candidates = 0
        for call, out in zip(pass_calls, outputs):
            m = int(call.argv[2])
            N, x, expected_candidates, _, _ = rows[m]
            recs = _csv_rows(out.stdout)
            ok = out.rc == 0 and len(recs) == 1
            if ok:
                r = recs[0]
                candidates += int(r["candidates_tested"])
                ok = (r["m"], r["status"], r["N"], r["x"], r["candidates_tested"]) == (
                    str(m), "found", str(N), str(x), str(expected_candidates)
                )
            verdicts.append(ok)
        counts["search.candidates"] = candidates
    elif workload == "sweep":
        for call, out in zip(pass_calls, outputs):
            m = call.argv[2]
            ref = REFERENCE["sweep"][m]
            recs = _csv_rows(out.stdout)
            verdicts.append(
                out.rc == 0
                and len(recs) == 1
                and recs[0]["status"] == "exhausted"
                and recs[0]["candidates_tested"] == str(ref["candidates"])
            )
            log = out.failures or b""
            tally, witnesses_hold = failure_outcomes(log, int(m))
            for cond, n in tally.items():
                counts[f"sweep.m{m}.{cond}"] = n
            verdicts.append(
                hashlib.sha256(log).hexdigest() == ref["failures_sha256"]
                and tally == ref["outcomes"]
                and witnesses_hold
            )
    elif workload == "verify":
        out = outputs[0]
        recs = _csv_rows(out.stdout)
        passed = {int(r["m"]) for r in recs if r["passed"] == "true"}
        lo, hi = SEARCH_M
        expected = [m for m in range(lo, hi + 1) if m not in NO_MODULUS]
        verdicts.append(out.rc == 0 and len(recs) == REFERENCE["verify"]["rows"])
        verdicts.extend(m in passed for m in expected)
        counts["verify.rows_passed"] = len(passed)
    elif workload == "crosscheck":
        out = outputs[0]
        recs = _csv_rows(out.stdout)
        expected = REFERENCE["crosscheck"]["records"]
        agree = [r["agree"] == "true" for r in recs[:expected]]
        verdicts.append(out.rc == 0 and len(recs) == expected)
        verdicts.extend(agree + [False] * (expected - len(agree)))
        counts["crosscheck.records"] = len(recs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return verdicts, counts
