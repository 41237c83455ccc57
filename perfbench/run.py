"""Benchmark entry point for ramsey-forge.

    python3 perfbench/run.py --workload {search,sweep,verify,crosscheck} \
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  It times fresh interpreters importing
the program (setup_s), then runs timed passes of the workload, each in
a fresh process (perfbench/passes.py), for about T seconds, checks every
output against the frozen reference, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
passes); with --trace 1 the run alternates untraced and traced passes
and reports the per-layer metrics.  The lines before it give each
metric's quartiles and pass count, the environment, and notes.  Full
results and spans are written under .perfbench/ in the checkout.
Exits 2 without a result when the checkout has no program sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
# The child prints the clock when it is done: CLOCK_MONOTONIC is one
# clock for every process on the machine, so the set-up time is read
# without the parent's polling delay on the child's exit.
SETUP_CODE = (
    "import ramsey_forge.cli\n"
    "from ramsey_forge import load_catalog\n"
    "load_catalog()\n"
    "import time\n"
    "print(time.monotonic())\n"
)
# Worker count of the untraced sweep.  Traced runs use one worker so
# every span stays in one process.
SWEEP_WORKERS = 2
# A pass still running this long after the first began is killed.
RUN_LIMIT_S = 160.0


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="ascii"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    median = statistics.median(values)
    if all(isinstance(v, int) for v in values) and median == int(median):
        median = int(median)  # a count that repeated exactly stays a whole number
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure_setup() -> list[float]:
    """Times from starting a fresh interpreter until it has imported the
    CLI and parsed the bundled catalog; one untimed run first writes the
    bytecode caches."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.monotonic()
        r = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_program_env(),
                           capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(r.stdout.split()[-1]) - t0)
    return times


def run_pass(workload: str, seed: int, kind: str, workers: int, run_id: str,
             timeout: float) -> dict:
    """One pass in a fresh process; its record as passes.py prints it."""
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--kind", kind, "--workers", str(workers),
           "--run-id", run_id, "--out", str(OUT)]
    proc = subprocess.Popen(cmd, env=_program_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} pass ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: int,
               workers: int) -> list[dict]:
    """Passes until the next one would end after `seconds`; at least one
    of each kind.  A traced run alternates untraced and traced passes."""
    kinds = ("plain", "traced") if trace else ("plain",)
    passes: list[dict] = []
    longest = dict.fromkeys(kinds, 0.0)
    start = time.perf_counter()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        elapsed = time.perf_counter() - start
        if len(passes) >= len(kinds) and elapsed + longest[kind] > seconds:
            return passes
        run_id = f"{workload}-seed{seed}-trace{trace}-pass{len(passes)}"
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, kind, workers, run_id,
                               max(RUN_LIMIT_S - elapsed, 10.0)))
        longest[kind] = max(longest[kind], time.perf_counter() - t0)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (CHECKOUT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ramsey_forge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, workers: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "workers": workers,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ramsey_forge" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'ramsey_forge'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    workers = SWEEP_WORKERS if args.workload == "sweep" and not args.trace else 1
    setup = [] if args.trace else measure_setup()
    passes = run_passes(args.workload, args.seed, args.seconds, args.trace, workers)

    units = declared_metrics(args.trace)
    samples: dict[str, list[float]] = {}
    counts = passes[0]["counts"]
    exact = all(p["counts"] == counts for p in passes)
    if args.trace:
        plain = [p["wall_s"] for p in passes if p["kind"] == "plain"]
        traced = [p for p in passes if p["kind"] == "traced"]
        for p in traced:
            for name, value in p["layers"].items():
                samples.setdefault(name, []).append(value)
        samples["trace.overhead_s"] = [
            statistics.median(p["wall_s"] for p in traced) - statistics.median(plain)
        ]
        exact &= all(
            len(set(vals)) == 1 for name, vals in samples.items() if units[name] == "count"
        )
    else:
        samples["wall_s"] = [p["wall_s"] for p in passes]
        samples["cpu_s"] = [p["cpu_s"] for p in passes]
        samples["peak_rss_mib"] = [p["peak_rss_mib"] for p in passes]
        samples["setup_s"] = setup

    summary = {name: {**_quartiles(samples[name]), "unit": unit} for name, unit in units.items()}
    attempted = sum(p["expected"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = environment(args.seed, workers, passes[0]["numpy"])
    notes = []
    if args.trace and args.workload == "sweep":
        notes.append("traced sweep runs with --workers 1 so every span stays in one process; "
                     "its untraced comparison passes use 1 worker too")
    if not exact:
        notes.append("counts differ between passes")

    record = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "metrics": summary, "counts": counts, "counts_repeat_exactly": exact,
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted if attempted else 1.0,
        "notes": notes, "passes": passes,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii")

    print("environment: " + json.dumps(env))
    for name, s in summary.items():
        print(f"{name}: median {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    print(f"counts: {json.dumps(counts)} (all counts repeat exactly across passes: {exact})")
    print(f"failed_fraction: {record['failed_fraction']:.6g} ({failed} of {attempted} outputs)")
    for note in notes:
        print("note: " + note)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and exact,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
