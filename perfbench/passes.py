"""One timed pass of one workload, in a process of its own; prints its
measurements as one JSON object on stdout.

run.py starts one such process per pass, with PYTHONPATH pointing at
the checkout's src/, so every pass starts as cold as a fresh
``ramsey-forge`` process and the program's imports happen before the
clock starts.  The pass calls ``ramsey_forge.cli.main`` once per command
line of the workload, emptying the program's in-process caches before
each call, as a fresh process would have them.  A traced pass wraps the
program's public functions first (see tracer.py) and writes its spans
to ``<out>/spans-<run id>.jsonl`` when it ends.

    python3 perfbench/passes.py --workload W --seed S --kind plain|traced \
        --workers N --run-id ID --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

import numpy
import ramsey_forge.cli as cli

from tracer import ROOT, Tracer, layer_metrics, program_modules
from workloads import WORKLOADS, Output, calls, check

PROGRAM_MODULES = program_modules()
REAP_TIMEOUT_S = 60.0


def _clear_program_caches() -> None:
    for mod in PROGRAM_MODULES:
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _cpu_s() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _reap_pool_workers() -> None:
    """Wait for the program's pool workers to exit, so that their CPU
    time is counted for the pass that started them."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers still running after the pass")
        time.sleep(0.005)


def run_pass(pass_calls, tracer: Tracer | None) -> tuple[float, float, list[Output]]:
    """(wall_s, cpu_s, outputs) of one pass over the workload's calls."""
    for call in pass_calls:
        if call.failures:
            call.failures.unlink(missing_ok=True)
    results = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for call in pass_calls:
        _clear_program_caches()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                rc = cli.main(list(call.argv))
            else:
                rc = tracer.call(ROOT, cli.main, list(call.argv))
        results.append((rc, buf.getvalue()))
    wall = time.perf_counter() - t0
    _reap_pool_workers()
    cpu = _cpu_s() - cpu0
    outputs = [
        Output(rc, text, call.failures.read_bytes() if call.failures and call.failures.exists() else None)
        for call, (rc, text) in zip(pass_calls, results)
    ]
    return wall, cpu, outputs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--kind", choices=("plain", "traced"), required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    pass_calls = calls(args.workload, args.seed, args.workers, args.out)
    record: dict = {"kind": args.kind}
    if args.kind == "traced":
        tracer = Tracer(args.run_id)
        tracer.install()
        try:
            wall, cpu, outputs = run_pass(pass_calls, tracer)
        finally:
            tracer.uninstall()
        tracer.write(args.out / f"spans-{args.run_id}.jsonl")
        record["layers"] = layer_metrics(tracer.spans, tracer.returns, wall)
    else:
        wall, cpu, outputs = run_pass(pass_calls, None)
    verdicts, counts = check(args.workload, pass_calls, outputs)
    record.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        expected=len(verdicts),
        failed=verdicts.count(False),
        counts=counts,
        numpy=numpy.__version__,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
