"""The shipped table of minimal moduli, plus row verification and
edge-coloring export.

One row per color count m from 2 through 400 (m = 8 and m = 13 are
absent: no qualifying modulus exists for them below the relevant
bounds).  Each row (m, N, x) pins the least modulus found and the least
generator of its multiplicative group; `verify_row` re-derives both
claims instead of trusting the file.  `verify_rows` checks the rows as
jobs of `search.in_order`, so any worker count yields the same results
in row order, and a minimality check runs each row's search in its worker.
"""

from __future__ import annotations

import json
import time
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from importlib import resources
from typing import Callable, Iterable, Iterator

import numpy as np

from .checker import check_candidate
from .numbertheory import smallest_generator
from .partition import CyclotomicPartition
from .report import CheckReport
from .search import in_order, search_min_modulus

CATALOG_CSV_HEADER = "m,N,x"
CATALOG_M_RANGE = (2, 400)
CATALOG_MISSING = frozenset({8, 13})
# An export lists all N(N - 1)/2 edges: about 330 MiB of peak memory at
# N = 2,017, growing with N^2.  Every catalog row up to 2,000 fits.
EXPORT_MAX_MODULUS = 2000

# color index -> DOT color name; indexes past the end wrap around
DOT_PALETTE = (
    "red", "blue", "green", "orange", "purple",
    "cyan", "magenta", "gold", "brown", "pink",
)


@dataclass(frozen=True)
class CatalogRow:
    m: int
    N: int
    x: int


def _default_catalog_text() -> str:
    return (
        resources.files("ramsey_forge")
        .joinpath("data/catalog.csv")
        .read_text(encoding="ascii")
    )


def load_catalog(text: str | None = None) -> list[CatalogRow]:
    """Parse and validate the minimal-modulus table.

    Aborts with the offending row if m values are not exactly
    2..400 minus the known gaps, strictly ascending, or if any row
    breaks N = 1 (mod 2m).
    """
    if text is None:
        text = _default_catalog_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CATALOG_CSV_HEADER:
        raise ValueError("catalog must start with header 'm,N,x'")
    rows: list[CatalogRow] = []
    for idx, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"catalog line {idx}: expected 3 fields, got {ln!r}")
        m, N, x = (int(p) for p in parts)
        if m < 1:
            raise ValueError(f"catalog line {idx}: color count {m} below 1")
        if rows and m <= rows[-1].m:
            raise ValueError(f"catalog line {idx}: m={m} not ascending")
        if N % (2 * m) != 1:
            raise ValueError(f"catalog line {idx}: N={N} is not 1 mod {2 * m}")
        if x < 2:
            raise ValueError(f"catalog line {idx}: generator {x} out of range")
        rows.append(CatalogRow(m, N, x))
    lo, hi = CATALOG_M_RANGE
    expected = [m for m in range(lo, hi + 1) if m not in CATALOG_MISSING]
    if [r.m for r in rows] != expected:
        raise ValueError(
            f"catalog must list every m in {lo}..{hi} except "
            f"{sorted(CATALOG_MISSING)}; got {len(rows)} rows"
        )
    return rows


@dataclass(frozen=True)
class RowVerification:
    row: CatalogRow
    generator_ok: bool
    report: CheckReport
    minimal_ok: bool | None
    first_smaller_pass: int | None
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.generator_ok and self.report.overall and self.minimal_ok is not False

    def to_dict(self) -> dict:
        return {
            "m": self.row.m,
            "N": self.row.N,
            "x": self.row.x,
            "generator_ok": self.generator_ok,
            "report": self.report.to_dict(),
            "minimal_ok": self.minimal_ok,
            "first_smaller_pass": self.first_smaller_pass,
            "passed": self.passed,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def verify_row(row: CatalogRow, *, minimality: bool = False) -> RowVerification:
    """Re-derive everything a row claims: the partition passes all four
    checks, x is the least generator, and (optionally) every smaller
    qualifying prime fails, which is a search below N coming up empty.
    """
    t0 = time.perf_counter()
    generator_ok = smallest_generator(row.N) == row.x
    report = check_candidate(row.N, row.m, row.x)
    minimal_ok: bool | None = None
    first_pass: int | None = None
    if minimality:
        record = search_min_modulus(row.m, row.N - 1)
        minimal_ok = record.status == "exhausted"
        first_pass = record.N
    ms = (time.perf_counter() - t0) * 1000.0
    return RowVerification(row, generator_ok, report, minimal_ok, first_pass, ms)


def verify_rows(
    rows: Iterable[CatalogRow],
    *,
    minimality: bool = False,
    workers: int = 1,
    progress: Callable[[int, int, int], None] | None = None,
) -> list[RowVerification]:
    """`verify_row` on each row, in row order, on up to `workers`
    processes; `progress` fires in row order as each result arrives."""
    job = partial(verify_row, minimality=minimality)
    results = in_order(job, rows, workers)
    out = []
    with closing(results):
        for i, v in enumerate(results, 1):
            out.append(v)
            if progress:
                progress(v.row.m, v.row.N, i)
    return out


@dataclass(frozen=True)
class EdgeColoring:
    """Complete-graph edge coloring induced by a partition: the edge
    {u, v} takes the index of the class containing u - v.  Well defined
    only because classes are symmetric, which the constructor enforces.
    """

    N: int
    m: int
    x: int
    diff_class: np.ndarray

    @classmethod
    def from_partition(cls, p: CyclotomicPartition) -> "EdgeColoring":
        table = np.full(p.N, -1, dtype=np.int64)
        for i, c in enumerate(p.classes):
            table[np.asarray(c)] = i
        rev = table[(p.N - np.arange(p.N)) % p.N]
        if not np.array_equal(table[1:], rev[1:]):
            raise ValueError("classes are not symmetric; edge colors would be ambiguous")
        table.setflags(write=False)
        return cls(p.N, p.m, p.x, table)

    def color(self, u: int, v: int) -> int:
        if u == v or not (0 <= u < self.N and 0 <= v < self.N):
            raise ValueError(f"not an edge of K_{self.N}: ({u}, {v})")
        return int(self.diff_class[(u - v) % self.N])

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """(u, v, color) for every unordered pair, u < v, lexicographic."""
        for u in range(self.N):
            for v in range(u + 1, self.N):
                yield u, v, int(self.diff_class[(v - u) % self.N])


def check_export_modulus(N: int) -> None:
    """Refuse N > EXPORT_MAX_MODULUS before any partition is built."""
    if N > EXPORT_MAX_MODULUS:
        raise ValueError(
            f"export limited to N <= {EXPORT_MAX_MODULUS}, got {N}: "
            f"the coloring lists all N(N - 1)/2 edges"
        )


def export_coloring(p: CyclotomicPartition, fmt: str) -> str:
    """Render the coloring as Graphviz DOT or as JSON.

    DOT names colors from a fixed palette (0 red, 1 blue, 2 green, ...)
    cycling when m exceeds it; JSON keeps numeric class indexes in an
    edges array of {u, v, color} objects with u < v.  Refuses
    N > EXPORT_MAX_MODULUS.
    """
    check_export_modulus(p.N)
    coloring = EdgeColoring.from_partition(p)
    if fmt == "dot":
        out = [
            f"graph ramsey_N{p.N}_m{p.m} {{",
            f'  label="N={p.N} m={p.m} x={p.x}";',
            "  node [shape=circle];",
        ]
        for u, v, c in coloring.iter_edges():
            out.append(f'  {u} -- {v} [color="{DOT_PALETTE[c % len(DOT_PALETTE)]}"];')
        out.append("}")
        return "\n".join(out) + "\n"
    if fmt == "json":
        doc = {
            "N": p.N,
            "m": p.m,
            "x": p.x,
            "edges": [
                {"u": u, "v": v, "color": c} for u, v, c in coloring.iter_edges()
            ],
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"
    raise ValueError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
