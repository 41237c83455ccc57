import dataclasses
import hashlib
import json
from importlib import resources
from itertools import combinations_with_replacement

import pytest

from ramsey_forge.catalog import (
    CATALOG_CSV_HEADER,
    CATALOG_MISSING,
    DOT_PALETTE,
    CatalogRow,
    EdgeColoring,
    export_coloring,
    load_catalog,
    verify_row,
    verify_rows,
)
from ramsey_forge.partition import CyclotomicPartition, build_partition

# frozen fingerprint of the shipped table; regenerating it must be a
# deliberate act
CATALOG_SHA256 = "24a25ca974837d61112d2e8bbd1ea4b688f858fed7f936efa308f6565aba76ec"

SPOT_ROWS = [
    (2, 5, 2),
    (3, 13, 2),
    (4, 41, 6),
    (14, 1709, 3),
    (100, 95801, 3),
    (200, 479201, 3),
    (300, 940801, 41),
    (373, 2387201, 3),
    (400, 1772801, 3),
]


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_catalog_loads_397_rows(catalog):
    assert len(catalog) == 397
    ms = [r.m for r in catalog]
    assert ms == [m for m in range(2, 401) if m not in CATALOG_MISSING]


def test_catalog_checksum():
    raw = resources.files("ramsey_forge").joinpath("data/catalog.csv").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == CATALOG_SHA256


def test_catalog_spot_rows(catalog):
    by_m = {r.m: r for r in catalog}
    for m, N, x in SPOT_ROWS:
        assert by_m[m] == CatalogRow(m, N, x)


def test_catalog_rejects_bad_text():
    with pytest.raises(ValueError):
        load_catalog("who,what,where\n2,5,2\n")
    good = CATALOG_CSV_HEADER + "\n"
    with pytest.raises(ValueError):
        load_catalog(good + "3,13,2\n2,5,2\n")  # not ascending
    with pytest.raises(ValueError):
        load_catalog(good + "2,7,2\n")  # 7 != 1 mod 4
    with pytest.raises(ValueError):
        load_catalog(good + "2,5,1\n")  # generator below 2
    with pytest.raises(ValueError):
        load_catalog(good + "2,5\n")  # field count
    with pytest.raises(ValueError):
        load_catalog(good + "2,5,2\n")  # coverage: one row is not 2..400


def test_catalog_refuses_a_color_count_below_one():
    for m in (0, -3):
        with pytest.raises(ValueError, match="^catalog line 2: "):
            load_catalog(f"{CATALOG_CSV_HEADER}\n{m},5,2")


def test_verify_row_first_entry():
    v = verify_row(CatalogRow(2, 5, 2), minimality=True)
    assert v.generator_ok
    assert v.report.overall
    assert v.minimal_ok is True
    assert v.first_smaller_pass is None
    assert v.passed


def test_verify_row_minimality_replays_failures():
    v = verify_row(CatalogRow(3, 13, 2), minimality=True)
    assert v.passed and v.minimal_ok is True
    # without the flag the question is left open
    v2 = verify_row(CatalogRow(3, 13, 2))
    assert v2.minimal_ok is None and v2.passed


def test_verify_row_validity_is_not_minimality():
    # 13 = 1 (mod 4) qualifies for two colors and 2 generates, but the
    # halves of Z_13* are not sum-free and N=5 already passes
    v = verify_row(CatalogRow(2, 13, 2), minimality=True)
    assert v.generator_ok
    assert not v.report.overall
    assert v.report.failed_condition == "sum_free"
    assert v.minimal_ok is False
    assert v.first_smaller_pass == 5
    assert not v.passed


def test_verify_rows_orders_and_passes(catalog):
    head = catalog[:12]
    out = verify_rows(head)
    assert [v.row.m for v in out] == [r.m for r in head]
    assert all(v.passed for v in out)
    assert all(v.minimal_ok is None for v in out)


def test_pooled_verify_rows_match_one_worker(catalog):
    # results come back in row order whatever the worker count, so only
    # the timings differ
    untimed = lambda out: [dataclasses.replace(v, elapsed_ms=0.0) for v in out]
    one = verify_rows(catalog[:60], workers=1)
    two = verify_rows(catalog[:60], workers=2)
    assert untimed(two) == untimed(one)
    assert [v.row for v in two] == catalog[:60]


def test_single_row_starts_no_pool(catalog, no_pool):
    (v,) = verify_rows(catalog[:1], workers=2)
    assert v.row == catalog[0] and v.passed


def test_progress_error_cancels_queued_rows(catalog, counting_pool):
    # progress fires from the consumer, so its error stops the pool with
    # at most workers * 4 rows past the first submitted
    def stop_at_first_row(m, N, done):
        raise RuntimeError("progress failed")

    with pytest.raises(RuntimeError, match="progress failed"):
        verify_rows(catalog, workers=2, progress=stop_at_first_row)
    assert 0 < len(counting_pool) <= 2 * 4 + 1


def test_verify_row_large_spot(catalog):
    by_m = {r.m: r for r in catalog}
    v = verify_row(by_m[100])
    assert v.passed and v.report.overall


def test_published_row_266_is_not_minimal(catalog):
    # the shipped table's m=266 entry is beaten by a smaller qualifying
    # prime (1159229 passes every check); verification reports the row
    # as valid but not minimal
    by_m = {r.m: r for r in catalog}
    v = verify_row(by_m[266], minimality=True)
    assert v.generator_ok and v.report.overall
    assert v.minimal_ok is False
    assert v.first_smaller_pass == 1159229
    assert not v.passed


def test_row_verification_serializes():
    v = verify_row(CatalogRow(2, 5, 2), minimality=True)
    d = v.to_dict()
    assert d["m"] == 2 and d["N"] == 5 and d["x"] == 2
    assert d["passed"] is True
    assert d["report"]["overall"] is True
    json.dumps(d)


def test_edge_coloring_well_defined():
    col = EdgeColoring.from_partition(build_partition(13, 3, 2))
    for u in range(13):
        for v in range(13):
            if u != v:
                assert col.color(u, v) == col.color(v, u)
    # color of {0, a} is just the class of a
    p = build_partition(13, 3, 2)
    for i, c in enumerate(p.classes):
        for a in c.tolist():
            assert col.color(0, a) == i


def test_edge_coloring_rejects_non_edges():
    col = EdgeColoring.from_partition(build_partition(5, 2, 2))
    with pytest.raises(ValueError):
        col.color(3, 3)
    with pytest.raises(ValueError):
        col.color(0, 5)


def test_edge_coloring_rejects_asymmetric_classes():
    # hand-built object whose classes are not negation-closed
    fake = CyclotomicPartition(N=5, m=2, k=2, x=2, classes=((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        EdgeColoring.from_partition(fake)


def test_iter_edges_lexicographic():
    col = EdgeColoring.from_partition(build_partition(5, 2, 2))
    edges = list(col.iter_edges())
    assert len(edges) == 10
    assert edges == sorted(edges)
    assert all(u < v for u, v, _ in edges)
    assert all(c == col.color(u, v) for u, v, c in edges)


def test_dot_export_k5():
    dot = export_coloring(build_partition(5, 2, 2), "dot")
    assert dot == (
        "graph ramsey_N5_m2 {\n"
        '  label="N=5 m=2 x=2";\n'
        "  node [shape=circle];\n"
        '  0 -- 1 [color="red"];\n'
        '  0 -- 2 [color="blue"];\n'
        '  0 -- 3 [color="blue"];\n'
        '  0 -- 4 [color="red"];\n'
        '  1 -- 2 [color="red"];\n'
        '  1 -- 3 [color="blue"];\n'
        '  1 -- 4 [color="blue"];\n'
        '  2 -- 3 [color="red"];\n'
        '  2 -- 4 [color="blue"];\n'
        '  3 -- 4 [color="red"];\n'
        "}\n"
    )


def test_palette_head_is_fixed():
    assert len(DOT_PALETTE) == 10
    assert DOT_PALETTE[:3] == ("red", "blue", "green")


def test_json_export_k13():
    doc = json.loads(export_coloring(build_partition(13, 3, 2), "json"))
    assert (doc["N"], doc["m"], doc["x"]) == (13, 3, 2)
    edges = doc["edges"]
    assert len(edges) == 78
    assert {e["color"] for e in edges} == {0, 1, 2}
    assert all(e["u"] < e["v"] for e in edges)


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        export_coloring(build_partition(5, 2, 2), "gml")


def _triangle_types(col: EdgeColoring):
    """Map each edge to the sorted color triples of triangles through it."""
    per_edge = {}
    for u, v, c in col.iter_edges():
        types = set()
        for w in range(col.N):
            if w != u and w != v:
                types.add(tuple(sorted((c, col.color(u, w), col.color(v, w)))))
        per_edge[(u, v)] = types
    return per_edge


@pytest.mark.parametrize("N,m,x", [(5, 2, 2), (13, 3, 2)])
def test_exported_colorings_have_mandatory_triangles(N, m, x):
    col = EdgeColoring.from_partition(build_partition(N, m, x))
    per_edge = _triangle_types(col)
    mono = {(c, c, c) for c in range(m)}
    nonmono = {
        t
        for t in combinations_with_replacement(range(m), 3)
        if len(set(t)) > 1
    }
    for (u, v), types in per_edge.items():
        assert not (types & mono), f"monochromatic triangle on {(u, v)}"
        c = col.color(u, v)
        wanted = {t for t in nonmono if c in t}
        assert types == wanted, f"edge {(u, v)} misses {wanted - types}"
