"""Tests of the benchmark itself: its reference data, its seeded inputs,
its independent checks and the exact counters its tracer derives.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ramsey_forge.cli as cli  # noqa: E402
import ramsey_forge.catalog as catalog  # noqa: E402
import ramsey_forge.classcount as classcount  # noqa: E402
import ramsey_forge.search as search  # noqa: E402
import workloads as W  # noqa: E402
from tracer import ROOT, Span, Tracer, layer_metrics  # noqa: E402
from workloads import Call, Output  # noqa: E402

# Smaller valid moduli the search finds for six catalog rows (README).
SHARPER_MINIMA = {266: 1159229, 287: 1064771, 291: 1191937, 293: 1006163,
                  298: 1070417, 318: 844609}


def _run(argv: list[str], tracer: Tracer | None = None) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = tracer.call(ROOT, cli.main, argv) if tracer else cli.main(argv)
    return rc, buf.getvalue()


def _traced(argv: list[str]) -> tuple[int, str, dict]:
    tracer = Tracer("test")
    tracer.install()
    try:
        rc, out = _run(argv, tracer)
    finally:
        tracer.uninstall()
    wall = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    return rc, out, layer_metrics(tracer.spans, tracer.returns, wall)


def test_reference_search_rows_are_the_catalog_except_sharper_minima():
    catalog = (HERE.parent / "src/ramsey_forge/data/catalog.csv").read_text().split()[1:]
    rows = W.search_rows()
    assert len(rows) == len(catalog) == 397
    for line in catalog:
        m, N, x = (int(v) for v in line.split(","))
        if m in SHARPER_MINIMA:
            assert rows[m][0] == SHARPER_MINIMA[m]
        else:
            assert rows[m][:2] == [N, x]


def test_reference_candidate_counts_match_an_independent_sieve():
    bound = W.REFERENCE["search"]["bound"]
    is_prime = np.ones(bound + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(bound**0.5) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    for m, (N, _, candidates, survivors, _) in W.search_rows().items():
        grid = np.arange(1, N + 1, 2 * m)
        assert int(is_prime[grid].sum()) == candidates, m
        assert 1 <= survivors <= candidates


def test_search_draw_is_seeded_and_balanced():
    rows = W.search_rows()
    bands = W.search_bands()
    assert [m for band in bands for m in band] == sorted(rows)
    target = sum(sum(W.search_work(rows[m]) for m in b) / len(b) for b in bands)
    draws = {seed: W.search_ms(seed) for seed in range(6)}
    assert W.search_ms(3) == draws[3]
    assert len({tuple(d) for d in draws.values()}) == len(draws)
    for pick in draws.values():
        assert all(m in band for m, band in zip(pick, bands))
        assert abs(sum(W.search_work(rows[m]) for m in pick) / target - 1) <= W.SEARCH_WORK_TOLERANCE
        lo, hi = W.SEARCH_LARGEST_N
        assert lo <= max(rows[m][0] for m in pick) <= hi


def test_sum_free_witness_recheck():
    # 24 and 1 - 24 = 56 (mod 79) are both 13th-power residues mod 79
    assert W.sum_free_witness_holds(79, 13, 24)
    assert not W.sum_free_witness_holds(79, 13, 25)


def test_search_counts_and_check_for_one_m():
    m = 25
    N, x, candidates, survivors, _ = W.search_rows()[m]
    argv = ["search", "--m", str(m), "--bound", "2500000", "--workers", "1"]
    rc, out, layers = _traced(argv)
    verdicts, counts = W.check("search", [Call(tuple(argv))], [Output(rc, out, None)])
    assert verdicts == [True]
    assert counts == {"search.candidates": candidates}
    assert layers["search.candidates"] == candidates
    assert layers["check_candidate.calls"] == survivors
    assert layers["search.screen_rejects"] == candidates - survivors
    assert layers["checker.outcome.pass"] == 1
    assert layers["class_index_table.calls"] == survivors
    assert layers["class_index_table.bytes_computed"] > 8 * N


def test_m13_sweep_seed_counts(tmp_path):
    log = tmp_path / "failures-13.jsonl"
    argv = ["sweep", "--m", "13", "--bound", "190997", "--failures", str(log),
            "--workers", "1"]
    rc, out, layers = _traced(argv)
    verdicts, counts = W.check(
        "sweep", [Call(tuple(argv), log)], [Output(rc, out, log.read_bytes())]
    )
    assert verdicts == [True, True]
    assert counts == {"sweep.m13.sum_free": 1428, "sweep.m13.cyclic_basis": 4}
    assert layers["search.candidates"] == 1432
    assert layers["search.screen_rejects"] == 0
    assert layers["check_candidate.calls"] == 1432
    assert layers["checker.outcome.sum_free"] == 1428
    assert layers["checker.outcome.cyclic_basis"] == 4
    assert layers["class_index_table.calls"] == 4
    assert layers["class_index_table.decisive_ratio"] == 0.0


def test_check_counts_wrong_and_missing_outputs():
    argv = ("search", "--m", "25", "--bound", "2500000", "--workers", "1")
    wrong = Output(0, "m,status,N,x,bound_used,candidates_tested,elapsed_ms\n"
                      "25,found,1,2,2500000,1,0.1\n", None)
    verdicts, _ = W.check("search", [Call(argv)] * 2, [wrong, Output(1, "", None)])
    assert verdicts == [False, False]
    verdicts, _ = W.check("crosscheck", [Call(("scan",))], [Output(0, "", None)])
    assert len(verdicts) == W.REFERENCE["crosscheck"]["records"] + 1
    assert not any(verdicts)


def test_self_times_and_unattributed_time_from_spans():
    spans = [
        Span(0, ROOT, 1.0, 9.0, None, "r"),
        Span(1, "check_candidate", 2.0, 6.0, 0, "r"),
        Span(2, "counting_report", 2.5, 5.5, 1, "r"),
        Span(3, "class_index_table", 3.0, 4.0, 2, "r"),
    ]
    returns = {"check_candidate": ["pass"], "class_index_table": [80]}
    out = layer_metrics(spans, returns, wall_s=10.0)
    assert out["cli.main.self_s"] == pytest.approx(4.0)
    assert out["check_candidate.busy_s"] == pytest.approx(4.0)
    assert out["counting_report.self_s"] == pytest.approx(2.0)
    assert out["class_index_table.busy_s"] == pytest.approx(1.0)
    assert out["class_index_table.decisive_ratio"] == 1.0
    assert out["class_index_table.bytes_computed"] == 80
    assert out["trace.unattributed_s"] == pytest.approx(2.0)


def test_tracer_wraps_every_binding_and_restores_them():
    original_table = classcount.class_index_table
    original_check = search.check_candidate
    tracer = Tracer("test")
    tracer.install()
    try:
        assert classcount.class_index_table is not original_table
        assert search.check_candidate is catalog.check_candidate is not original_check
    finally:
        tracer.uninstall()
    assert classcount.class_index_table is original_table
    assert search.check_candidate is catalog.check_candidate is original_check


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0
    assert r.stdout == ""
