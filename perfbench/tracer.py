"""Span tracing installed from outside the program.

The benchmark wraps public functions of ``ramsey_forge`` under every
module attribute that is bound to them, which is the name their callers
look up at call time (``ramsey_forge.search.check_candidate``,
``ramsey_forge.classcount.class_index_table`` and so on).  Nothing under
``src/`` changes.  Each call becomes one span; spans are kept in memory
and written out when the benchmark ends, and the per-layer metrics are
derived from them.

Spans only nest correctly within one thread of one process, so traced
passes must keep all work in the calling process (``--workers 1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass

# Span name -> (defining module, attribute).  The name is also the
# prefix of the layer metric the span feeds.
TRACED = {
    "sieve_primes": ("numbertheory", "sieve_primes"),
    "prime_factors": ("numbertheory", "prime_factors"),
    "smallest_generator": ("numbertheory", "smallest_generator"),
    "search_all": ("search", "search_all"),
    "sweep_nonexistence": ("search", "sweep_nonexistence"),
    "check_candidate": ("checker", "check_candidate"),
    "full_fast_check": ("checker", "full_fast_check"),
    "counting_report": ("classcount", "counting_report"),
    "class_index_table": ("classcount", "class_index_table"),
    "pair_sum_class_matrix": ("classcount", "pair_sum_class_matrix"),
    "load_catalog": ("catalog", "load_catalog"),
    "verify_row": ("catalog", "verify_row"),
    "build_partition": ("partition", "build_partition"),
    "naive_check": ("oracle", "naive_check"),
}

# Spans whose self time is the search layer's own work: the candidate
# loop and the sum-free screen, which are not public functions.
SEARCH_SPANS = ("search_all", "sweep_nonexistence")
CHECKER_SPANS = ("check_candidate", "full_fast_check")
OUTCOMES = ("pass", "symmetric", "sum_free", "cyclic_basis", "triangle")
ROOT = "cli.main"


def program_modules() -> list:
    """Every module of the ramsey_forge package, imported."""
    package = importlib.import_module("ramsey_forge")
    return [
        importlib.import_module(f"ramsey_forge.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    def to_json(self) -> str:
        return json.dumps(
            {"id": self.sid, "name": self.name, "start": self.start,
             "end": self.end, "parent": self.parent, "run": self.run_id},
            separators=(",", ":"),
        )


class Tracer:
    """Collects spans for calls into the program; install() patches the
    bindings, uninstall() restores them."""

    def __init__(self, run_id: str) -> None:
        self.spans: list[Span] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.returns: dict[str, list] = {}

    def _enter(self, name: str) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.run_id)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        span = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn):
        summarise = SUMMARIES.get(name)
        keep = self.returns.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if summarise is not None:
                keep.append(summarise(result))
            return result

        return traced

    def install(self) -> None:
        modules = program_modules()
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(importlib.import_module(f"ramsey_forge.{mod_name}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            for span in self.spans:
                f.write(span.to_json() + "\n")


# The part of a returned value the layer metrics need, by span name.
SUMMARIES = {
    "check_candidate": lambda report: report.failed_condition or "pass",
    "full_fast_check": lambda report: report.failed_condition or "pass",
    "class_index_table": lambda table: int(table.nbytes),
    "search_all": lambda records: sum(r.candidates_tested for r in records),
    "sweep_nonexistence": lambda result: result.record.candidates_tested,
}


def layer_metrics(spans: list[Span], returns: dict[str, list],
                  wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and the
    summaries of the values its wrapped calls returned."""
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_s: Counter = Counter()
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        self_s[s.name] += s.end - s.start - child_time[s.sid]
    by_id = {s.sid: s for s in spans}

    def under_search(s: Span) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name in SEARCH_SPANS:
                return True
        return False

    checks_in_search = sum(
        1 for s in spans if s.name == "check_candidate" and under_search(s)
    )
    outcomes = Counter(o for k in CHECKER_SPANS for o in returns.get(k, ()))
    candidates = sum(returns.get("search_all", ())) + sum(returns.get("sweep_nonexistence", ()))
    tables = calls["class_index_table"]

    out = {
        "sieve_primes.calls": calls["sieve_primes"],
        "sieve_primes.busy_s": busy["sieve_primes"],
        "prime_factors.busy_s": busy["prime_factors"],
        "smallest_generator.busy_s": busy["smallest_generator"],
        "search.candidates": candidates,
        "search.screen_rejects": candidates - checks_in_search,
        "search.self_s": sum(self_s[n] for n in SEARCH_SPANS),
        "check_candidate.calls": calls["check_candidate"],
        "check_candidate.busy_s": busy["check_candidate"],
    }
    out.update({f"checker.outcome.{o}": outcomes[o] for o in OUTCOMES})
    out.update({
        "class_index_table.calls": tables,
        "class_index_table.busy_s": busy["class_index_table"],
        "class_index_table.bytes_computed": sum(returns.get("class_index_table", ())),
        "class_index_table.decisive_ratio":
            (outcomes["pass"] + outcomes["triangle"]) / tables if tables else 0.0,
        "pair_sum_class_matrix.calls": calls["pair_sum_class_matrix"],
        "pair_sum_class_matrix.busy_s": busy["pair_sum_class_matrix"],
        "counting_report.self_s": self_s["counting_report"],
        "verify_row.self_s": self_s["verify_row"],
        "load_catalog.busy_s": busy["load_catalog"],
        "build_partition.busy_s": busy["build_partition"],
        "naive_check.busy_s": busy["naive_check"],
        "full_fast_check.busy_s": busy["full_fast_check"],
        "cli.main.self_s": self_s[ROOT],
        "trace.unattributed_s": wall_s - sum(
            s.end - s.start for s in spans if s.parent is None
        ),
    })
    return out
