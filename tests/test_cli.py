import hashlib
import importlib.metadata
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ramsey_forge
from ramsey_forge import cli
from ramsey_forge.catalog import CatalogRow, RowVerification, export_coloring
from ramsey_forge.cli import (
    SCAN_CSV_HEADER,
    SEARCH_CSV_HEADER,
    VERIFY_CSV_HEADER,
    _parse_m_range,
    _resolve_workers,
    main,
)
from ramsey_forge.oracle import ScanRecord
from ramsey_forge.partition import build_partition
from ramsey_forge.search import CandidateFailure


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def strip_elapsed(csv_text):
    """Drop the trailing elapsed_ms column, the only nondeterminism."""
    return [ln.rsplit(",", 1)[0] for ln in csv_text.splitlines()]


def test_parse_m_range():
    assert _parse_m_range("7") == (7, 7)
    assert _parse_m_range("2..50") == (2, 50)
    with pytest.raises(Exception):
        _parse_m_range("9..3")


def test_resolve_workers_priority(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("RAMSEY_FORGE_WORKERS", raising=False)
    assert _resolve_workers(3) == 3
    assert _resolve_workers(0) == 1
    monkeypatch.setenv("RAMSEY_FORGE_WORKERS", "5")
    assert _resolve_workers(None) == 5
    assert _resolve_workers(2) == 2  # explicit flag beats env
    monkeypatch.delenv("RAMSEY_FORGE_WORKERS")
    assert _resolve_workers(None) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_workers(None) == 1
    # the pool holds the count to the CPUs (test_pool_never_outnumbers_the_cpus)
    assert _resolve_workers(100_000) == 100_000

    # a non-integer env value is a clear error, before any work starts
    monkeypatch.setenv("RAMSEY_FORGE_WORKERS", "lots")
    with pytest.raises(ValueError, match="RAMSEY_FORGE_WORKERS"):
        _resolve_workers(None)
    for argv in (["search", "--m", "2", "--bound", "100"],
                 ["sweep", "--m", "3", "--bound", "12"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "error: RAMSEY_FORGE_WORKERS must be an integer, got 'lots'" in err


def test_search_csv_output(capsys):
    code, out, err = run_cli(
        capsys, "search", "--m", "2..7", "--bound", "1000", "--workers", "1", "-q"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SEARCH_CSV_HEADER
    assert len(lines) == 7
    assert lines[1].startswith("2,found,5,2,1000,1,")
    assert lines[6].startswith("7,found,491,2,1000,")


def test_search_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--m", "3..3", "--bound", "100", "--format", "json",
        "--workers", "1", "-q",
    )
    assert code == 0
    (row,) = [json.loads(ln) for ln in out.splitlines()]
    assert (row["m"], row["status"], row["N"], row["x"]) == (3, "found", 13, 2)


def test_search_deterministic_modulo_timing(capsys):
    code1, out1, _ = run_cli(
        capsys, "search", "--m", "2..12", "--bound", "2000", "--workers", "1", "-q"
    )
    code2, out2, _ = run_cli(
        capsys, "search", "--m", "2..12", "--bound", "2000", "--workers", "3", "-q"
    )
    assert code1 == code2 == 0
    assert strip_elapsed(out1) == strip_elapsed(out2)


def test_search_oracle_confirmation(capsys):
    code, _, err = run_cli(
        capsys, "search", "--m", "2..4", "--bound", "100", "--oracle", "--workers", "1"
    )
    assert code == 0
    assert "oracle confirmed m=2 N=5" in err
    assert "oracle confirmed m=3 N=13" in err
    assert "oracle confirmed m=4 N=41" in err


def test_search_rejects_low_m(capsys):
    code, _, err = run_cli(capsys, "search", "--m", "1..4", "--bound", "100")
    assert code == 1
    assert "m >= 2" in err


def test_search_out_file_and_resume(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code, _, _ = run_cli(
        capsys, "search", "--m", "2..9", "--bound", "2000",
        "--out", str(out), "--workers", "1", "-q",
    )
    assert code == 0
    first = out.read_text()
    code, _, _ = run_cli(
        capsys, "search", "--m", "2..9", "--bound", "2000",
        "--out", str(out), "--resume", "--workers", "1", "-q",
    )
    assert code == 0
    # resumed run re-emits the cached records verbatim, timings included
    assert out.read_text() == first


@pytest.mark.parametrize(
    "content", [b"m,who,knows\n", b"m,\xff"], ids=["bad_header", "non_ascii"]
)
def test_search_resume_rejects_corrupt_file(tmp_path, capsys, content):
    # a bad header and a non-ASCII byte are both refused with the file named
    out = tmp_path / "records.csv"
    out.write_bytes(content)
    code, _, err = run_cli(
        capsys, "search", "--m", "2..3", "--bound", "100",
        "--out", str(out), "--resume", "-q",
    )
    assert code == 1
    assert err.startswith(f"error: cannot resume from {out}: ")


def test_search_resume_needs_out(capsys, monkeypatch):
    # without --out there is nothing to resume from: refused before any
    # work, rather than start the search over
    def unreachable(*args, **kwargs):
        raise AssertionError("search started")

    monkeypatch.setattr(cli, "search_all", unreachable)
    code, out, err = run_cli(capsys, "search", "--m", "2..3", "--bound", "100", "--resume")
    assert (code, out, err) == (1, "", "error: --resume needs --out\n")


def records_without_elapsed(text, fmt):
    if fmt == "csv":
        return strip_elapsed(text)
    rows = [json.loads(ln) for ln in text.splitlines()]
    for r in rows:
        del r["elapsed_ms"]
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_search_resume_drops_torn_last_line(tmp_path, capsys, fmt):
    argv = ["search", "--m", "2..9", "--bound", "2000", "--format", fmt,
            "--workers", "1", "-q"]
    code, whole, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = whole.splitlines(keepends=True)
    # a run killed while writing its fifth line leaves half of it behind
    kept = "".join(lines[:4])
    torn = kept + lines[4][: len(lines[4]) // 2]
    out = tmp_path / "records.out"
    out.write_text(torn)
    code, _, err = run_cli(capsys, *argv, "--out", str(out), "--resume")
    assert code == 0
    assert f"dropping the unfinished last line of {out}" in err
    resumed = out.read_text()
    assert resumed.startswith(kept)
    assert records_without_elapsed(resumed, fmt) == records_without_elapsed(whole, fmt)

    # a complete line that does not parse is still refused
    out.write_text(torn + "\n")
    code, _, err = run_cli(capsys, *argv, "--out", str(out), "--resume")
    assert code == 1
    assert "cannot resume" in err
    assert out.read_text() == torn + "\n"

    # a run may be cut anywhere, the header included
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(cut=st.integers(0, len(whole)))
    def resumes_from_any_prefix(cut):
        prefix = whole[:cut]
        out.write_text(prefix)
        code, _, err = run_cli(capsys, *argv, "--out", str(out), "--resume")
        assert code == 0, err
        resumed = out.read_text()
        assert resumed.startswith(prefix[: prefix.rfind("\n") + 1])
        assert records_without_elapsed(resumed, fmt) == records_without_elapsed(whole, fmt)

    resumes_from_any_prefix()


PROGRESS_LINES = {
    ("search", "--m", "2..4", "--bound", "100"): [
        "search: m=2 N=5 tested=1", "search: m=3 N=13 tested=2", "search: m=4 N=41 tested=2",
    ],
    # one line per SWEEP_BLOCK failures
    ("sweep", "--m", "8", "--bound", "20000"): [
        "sweep: m=8 N=3889 tested=64", "sweep: m=8 N=8609 tested=128",
        "sweep: m=8 N=13649 tested=192", "sweep: m=8 N=18097 tested=256",
    ],
    ("verify", "--m", "2..4"): [
        "verify: m=2 N=5 tested=1", "verify: m=3 N=13 tested=2", "verify: m=4 N=41 tested=3",
    ],
}


@pytest.mark.parametrize("argv", list(PROGRESS_LINES))
def test_progress_lines_in_order_and_silenced_by_quiet(capsys, argv):
    # an interval shorter than any step lets every progress call print
    fast = (*argv, "--workers", "1", "--progress-interval", "1e-9")
    code, _, err = run_cli(capsys, *fast)
    assert code == 0
    assert [ln for ln in err.splitlines() if " tested=" in ln] == PROGRESS_LINES[argv]
    code, _, err = run_cli(capsys, *fast, "-q")
    assert code == 0 and err == ""


def test_search_and_sweep_refuse_bad_bounds(tmp_path, capsys):
    # a bound below 2 used to break the worker pool with a traceback
    code, out, err = run_cli(capsys, "search", "--m", "2", "--bound", "1", "--workers", "2")
    assert code == 1 and out == ""
    assert "error: bound must be >= 2, got 1" in err

    out = tmp_path / "records.csv"
    code, _, _ = run_cli(
        capsys, "search", "--m", "2..3", "--bound", "100", "--out", str(out), "-q"
    )
    assert code == 0
    before = out.read_text()
    tracemalloc.start()
    try:
        for argv in (
            ["search", "--m", "2..3", "--bound", "2147483648", "--out", str(out),
             "--resume"],
            ["sweep", "--m", "13", "--bound", "2147483648"],
        ):
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 1 and stdout == ""
            assert err.startswith("error: bound 2147483648 too large")
            assert "MAX_COUNTING_MODULUS" in err
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the refused search leaves the file it would resume from as it was
    assert out.read_text() == before


def test_sweep_explicit_bound(capsys):
    code, out, err = run_cli(capsys, "sweep", "--m", "3", "--bound", "12", "--workers", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SEARCH_CSV_HEADER
    assert lines[1].startswith("3,exhausted,,,12,1,")
    assert "sweep m=3: exhausted, 1 candidates, 1 failures logged" in err
    assert "sweep m=3: bound 12 stops below the sum-free cut-off 16," in err
    code, _, err = run_cli(capsys, "sweep", "--m", "3", "--bound", "16", "--workers", "1")
    assert code == 0
    assert "sweep m=3: bound 16 reaches the sum-free cut-off 16," in err
    code, _, err = run_cli(capsys, "sweep", "--m", "3", "--bound", "16", "-q")
    assert code == 0 and err == ""


def test_sweep_failures_file(tmp_path, capsys):
    path = tmp_path / "failures.jsonl"
    code, _, _ = run_cli(
        capsys, "sweep", "--m", "8", "--bound", "5000",
        "--failures", str(path), "--workers", "2", "-q",
    )
    assert code == 0
    rows = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert rows
    assert all(r["N"] % 16 == 1 for r in rows)
    assert all(r["failed_check"] in ("sum_free", "cyclic_basis", "triangle") for r in rows)
    assert all(r["witness"]["condition"] == r["failed_check"] for r in rows)


def test_sweep_failures_file_is_replaced_whole(tmp_path, capsys, monkeypatch):
    path = tmp_path / "failures.jsonl"
    path.write_bytes(b'{"old":"log"}\n')
    to_json = CandidateFailure.to_json
    calls = []

    def fail_on_third(self):
        calls.append(self.N)
        if len(calls) == 3:
            raise RuntimeError("disk full")
        return to_json(self)

    monkeypatch.setattr(CandidateFailure, "to_json", fail_on_third)
    with pytest.raises(RuntimeError, match="disk full"):
        run_cli(capsys, "sweep", "--m", "8", "--bound", "5000",
                "--failures", str(path), "--workers", "1", "-q")
    assert len(calls) == 3
    assert path.read_bytes() == b'{"old":"log"}\n'
    assert os.listdir(tmp_path) == ["failures.jsonl"]


@pytest.mark.parametrize(
    "argv,record",
    [
        (("verify", "--m", "2..6", "--format", "json", "-q"), RowVerification),
        (("scan", "--nmax", "60", "--format", "json"), ScanRecord),
    ],
)
def test_out_file_is_replaced_whole(tmp_path, capsys, monkeypatch, argv, record):
    path = tmp_path / "out.jsonl"
    path.write_bytes(b'{"old":"doc"}\n')
    to_dict = record.to_dict
    calls = []

    def fail_on_third(self):
        calls.append(self)
        if len(calls) == 3:
            raise RuntimeError("disk full")
        return to_dict(self)

    monkeypatch.setattr(record, "to_dict", fail_on_third)
    with pytest.raises(RuntimeError, match="disk full"):
        run_cli(capsys, *argv, "--out", str(path))
    assert len(calls) == 3
    assert path.read_bytes() == b'{"old":"doc"}\n'
    assert os.listdir(tmp_path) == ["out.jsonl"]

    monkeypatch.undo()
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert all("old" not in json.loads(ln) for ln in path.read_text().splitlines())
    assert os.listdir(tmp_path) == ["out.jsonl"]


@pytest.mark.parametrize(
    "argv,owner,work",
    [
        (("search", "--m", "2..3", "--bound", "100", "--out"), cli, "search_all"),
        (("search", "--resume", "--m", "2..3", "--bound", "100", "--out"),
         cli, "search_all"),
        (("sweep", "--m", "3", "--bound", "50", "--out"), cli, "sweep_nonexistence"),
        (("sweep", "--m", "3", "--bound", "50", "--failures"), cli, "sweep_nonexistence"),
        (("verify", "--all", "-q", "--out"), cli.catalog_mod, "verify_rows"),
        (("scan", "--nmax", "60", "--out"), cli.oracle_mod, "exhaustive_small_scan"),
        (("export", "--m", "2", "--N", "5", "--x", "2", "--format", "dot", "--out"),
         cli, "build_partition"),
    ],
    ids=["search", "search-resume", "sweep-out", "sweep-failures", "verify", "scan", "export"],
)
def test_unwritable_output_fails_before_the_work(tmp_path, capsys, monkeypatch, argv, owner, work):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the output was opened")

    monkeypatch.setattr(owner, work, unreachable)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert os.listdir(tmp_path) == []

    # an existing directory is refused the same way, with nothing written
    # beside it or into it
    path = tmp_path / "dir"
    path.mkdir()
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err == f"error: cannot write {path}: Is a directory\n"
    assert os.listdir(tmp_path) == ["dir"] and os.listdir(path) == []


@pytest.mark.parametrize("failures", ["P", "./P"])
def test_sweep_refuses_one_file_for_both_documents(tmp_path, capsys, monkeypatch, failures):
    # both documents would be written through the same temporary file,
    # and the second rename would find it gone
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "sweep", "--m", "8", "--bound", "5000", "--out", "P", "--failures", failures
    )
    assert (code, out, err) == (1, "", "error: --out and --failures name the same file: P\n")
    assert os.listdir(tmp_path) == []


def test_sweep_default_bound_m13(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--m", "13", "-q")
    assert code == 0
    row = out.splitlines()[1]
    assert row.startswith("13,exhausted,,,190997,")


def test_sweep_no_default_bound(capsys):
    code, _, err = run_cli(capsys, "sweep", "--m", "9")
    assert code == 1
    assert "no default bound" in err
    code, out, err = run_cli(capsys, "sweep", "--m", "1", "--bound", "100")
    assert (code, out, err) == (1, "", "error: sweep needs m >= 2, got 1\n")


def test_verify_range_csv(capsys):
    code, out, err = run_cli(capsys, "verify", "--m", "2..6", "-q")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == VERIFY_CSV_HEADER
    assert len(lines) == 6
    assert lines[1].startswith("2,5,2,true,true,true,true,true,true,,true,")
    assert all(",true," in ln for ln in lines[1:])


def test_verify_json_minimality(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--m", "3..3", "--minimality", "--format", "json", "-q"
    )
    assert code == 0
    (row,) = [json.loads(ln) for ln in out.splitlines()]
    assert row["minimal_ok"] is True and row["passed"] is True


def test_verify_reports_non_minimal_row(capsys):
    # the one part of the shipped table that honest checking rejects:
    # row 266 is valid but a smaller modulus also passes
    code, out, err = run_cli(capsys, "verify", "--m", "266..266", "--minimality", "-q")
    assert code == 1
    assert "verify FAILED at m=266 N=1229453" in err
    row = out.splitlines()[1]
    assert row.startswith("266,1229453,2,true,true,true,true,true,true,false,false,")


def test_verify_output_is_independent_of_workers(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--m", "2..40", "--workers", "1", "-q")
    code2, out2, _ = run_cli(capsys, "verify", "--m", "2..40", "--workers", "2", "-q")
    assert code1 == code2 == 0
    assert len(out1.splitlines()) == 38
    assert strip_elapsed(out2) == strip_elapsed(out1)


def test_bad_workers_env_stops_verify_and_scan_before_the_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started with a bad worker count")

    monkeypatch.setattr(cli.catalog_mod, "verify_rows", unreachable)
    monkeypatch.setattr(cli.oracle_mod, "exhaustive_small_scan", unreachable)
    monkeypatch.setenv("RAMSEY_FORGE_WORKERS", "x")
    for argv in (["verify", "--all"], ["scan", "--nmax", "50"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: RAMSEY_FORGE_WORKERS must be an integer, got 'x'\n"


def test_verify_needs_selection(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 1
    assert "--all or --m" in err
    code, _, err = run_cli(capsys, "verify", "--m", "401..500")
    assert code == 1
    assert "no catalog rows" in err


def test_verify_reports_a_row_it_cannot_check(capsys, monkeypatch):
    # a row whose x does not generate the group is refused by the
    # engine's generator check, and main reports it like any bad input
    monkeypatch.setattr(cli.catalog_mod, "load_catalog", lambda: [CatalogRow(2, 5, 4)])
    code, out, err = run_cli(capsys, "verify", "--all", "--workers", "1")
    assert (code, out, err) == (1, "", "error: x=4 is not a generator mod 5: its order is below 4\n")


def test_bound_values(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "bound", "--colors", "8")
    assert code == 0 and out.strip() == "109602"
    code, out, _ = run_cli(capsys, "bound", "--colors", "13")
    assert code == 0 and out.strip() == "16926797487"
    code, _, err = run_cli(capsys, "bound", "--colors", "1")
    assert code == 1 and "error" in err
    # the largest bound that converts to a string on Python 3.11+; one
    # color more is refused before the bound is computed
    code, out, _ = run_cli(capsys, "bound", "--colors", "1558")
    assert code == 0 and len(out) == 4301 and out[:-1].isdigit()
    monkeypatch.setattr(cli, "ramsey_recursive_bound", None)
    code, out, err = run_cli(capsys, "bound", "--colors", "1559")
    assert (code, out, err) == (1, "", "error: bound limited to --colors <= 1558, got 1559\n")


def test_export_dot_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--m", "2", "--N", "5", "--x", "2", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph ramsey_N5_m2 {")
    assert out.count(" -- ") == 10


def test_export_json_to_file(tmp_path, capsys):
    path = tmp_path / "coloring.json"
    code, out, _ = run_cli(
        capsys, "export", "--m", "3", "--N", "13", "--x", "2",
        "--format", "json", "--out", str(path),
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert len(doc["edges"]) == 78


def test_export_rejects_bad_triple(capsys):
    code, _, err = run_cli(
        capsys, "export", "--m", "4", "--N", "13", "--x", "2", "--format", "dot"
    )
    assert code == 1
    assert "error" in err


def test_export_refuses_large_modulus_before_building(capsys, monkeypatch):
    # the coloring lists all N(N - 1)/2 edges, so memory grows with N^2
    with pytest.raises(ValueError, match="export limited to N <= 2000, got 2441"):
        export_coloring(build_partition(2441, 20, 6), "json")

    def unreachable(*args):
        raise AssertionError("partition built for a refused export")

    monkeypatch.setattr(cli, "build_partition", unreachable)
    code, out, err = run_cli(
        capsys, "export", "--m", "20", "--N", "2441", "--x", "6", "--format", "dot"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: export limited to N <= 2000, got 2441")


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--nmax", "60")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) > 5
    assert all(ln.endswith(",true") for ln in lines[1:])
    assert "5,2,2,true,true,true,true,true,true,true" in lines
    code, out, err = run_cli(capsys, "scan", "--nmax", "5000")
    assert (code, out, err) == (1, "", "error: scan limited to N <= 2000, got 5000\n")


def test_scan_output_is_independent_of_workers(capsys):
    code1, out1, _ = run_cli(capsys, "scan", "--nmax", "300", "--workers", "1")
    code2, out2, _ = run_cli(capsys, "scan", "--nmax", "300", "--workers", "2")
    assert code1 == code2 == 0
    assert out2 == out1


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("csv", "781dab501bb3d9ad9dae8e569052279c8e8e0ca8a42927e97ad23c4fba9deee1"),
        ("json", "b6e534362d3862a9352bf506bb3c3a25babf64c10240a6936a988d8d84caf198"),
    ],
)
def test_scan_1200_is_pinned(capsys, fmt, digest):
    # the crosscheck's whole output, byte for byte, as every change must keep it
    code, out, _ = run_cli(capsys, "scan", "--nmax", "1200", "--format", fmt, "--workers", "1")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_scan_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--nmax", "40", "--format", "json")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert all(r["agree"] for r in rows)


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def child_env():
    """Environment for a child process that imports this checkout's ramsey_forge.

    The directory holding the imported package goes first on PYTHONPATH, so
    the child sees the same code as this process and never a stale copy in
    site-packages, whatever path set-up the parent had.
    """
    env = dict(os.environ)
    src = str(Path(ramsey_forge.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# The wrapper that pip and setuptools write for a console-script entry.
CONSOLE_SCRIPT = """\
#!{python}
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def test_installed_entry_point(tmp_path):
    """Run `ramsey-forge` by name, as declared in pyproject.toml.

    The test suite runs from a checkout without an install, so the console
    script is written here from the `[project.scripts]` declaration, exactly
    as an install would write it, and put first on the child's PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ramsey-forge"]
    ep = importlib.metadata.EntryPoint(
        name="ramsey-forge", value=declared, group="console_scripts"
    )
    assert ep.load() is main

    # an installed copy must declare the same entry
    for installed in importlib.metadata.entry_points(
        group="console_scripts", name="ramsey-forge"
    ):
        assert installed.value == declared

    script = tmp_path / "ramsey-forge"
    script.write_text(
        CONSOLE_SCRIPT.format(python=sys.executable, module=ep.module, attr=ep.attr)
    )
    script.chmod(0o755)
    env = child_env()
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))

    proc = subprocess.run(
        ["ramsey-forge", "bound", "--colors", "4"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "66"

    # main's return value must become the process exit status
    proc = subprocess.run(
        ["ramsey-forge", "bound", "--colors", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_forge.cli", "bound", "--colors", "2"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def test_closed_stdout_ends_quietly():
    # a reader that stops early, like `head -1`, must not draw a traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramsey_forge.cli", "search", "--m", "2..40",
         "--bound", "200000", "--workers", "1", "-q"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.readline() == f"{SEARCH_CSV_HEADER}\n".encode()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
