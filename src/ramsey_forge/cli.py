"""Command-line front end.

Subcommands: search, sweep, verify, bound, export, scan.  Result
documents (CSV by default, JSON lines with --format json) go to stdout
or the --out file; progress lines go to stderr so the two never mix.
Exit status is 0 only when the operation completed, and for verify only
when every selected row passed.  A refused input or an unwritable output
raises ValueError, which `main` alone reports: one `error: ...` line on
stderr and exit status 1.  search, sweep, verify and scan run on
--workers processes and write the same documents whatever the count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import IO, Callable, Iterator, Sequence

from . import catalog as catalog_mod
from . import oracle as oracle_mod
from .partition import build_partition
from .search import (
    DEFAULT_SEARCH_BOUND,
    SEARCH_CSV_HEADER,
    SearchRecord,
    check_bound,
    ramsey_recursive_bound,
    records_from_csv,
    records_from_jsonl,
    search_all,
    sum_free_cutoff,
    sweep_nonexistence,
)

WORKERS_ENV = "RAMSEY_FORGE_WORKERS"
# The most colors whose bound prints: Python 3.11+ converts at most 4,300
# digits from int to str by default, and the bound's cost grows as colors^2.
MAX_BOUND_COLORS = 1558

VERIFY_CSV_HEADER = (
    "m,N,x,generator_ok,symmetric,sum_free,cyclic_basis,triangle,"
    "overall,minimal_ok,passed,elapsed_ms"
)
SCAN_CSV_HEADER = (
    "N,m,x,fast_symmetric,fast_sum_free,fast_cyclic_basis,fast_triangle,"
    "fast_overall,naive_overall,agree"
)


def _flag(v: bool | None) -> str:
    return "" if v is None else ("true" if v else "false")


def _parse_m_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty m range {text!r}")
    return lo, hi


def _resolve_workers(value: int | None) -> int:
    """--workers, else $RAMSEY_FORGE_WORKERS, else the CPU count; at least
    1, and `in_order` holds a pool to the CPU count."""
    if value is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return os.cpu_count() or 1
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return max(1, value)


class _Progress:
    """Rate-limited status lines on stderr; interval 0 or --quiet silences."""

    def __init__(self, label: str, interval: float, quiet: bool):
        self.label = label
        self.interval = interval
        self.quiet = quiet or interval <= 0
        self.last = time.monotonic()

    def __call__(self, m: int, N: int, tested: int) -> None:
        if self.quiet:
            return
        now = time.monotonic()
        if now - self.last >= self.interval:
            self.last = now
            print(f"{self.label}: m={m} N={N} tested={tested}", file=sys.stderr)


def _create(path: str, shown: str) -> IO[str]:
    try:
        return open(path, "w", encoding="ascii", newline="")
    except OSError as e:
        raise ValueError(f"cannot write {shown}: {e.strerror}") from None


@contextmanager
def _document(path: str | None) -> Iterator[IO[str]]:
    """Stdout, or a file that replaces `path` only once it is whole: it
    is written as PATH.<pid>.tmp and renamed into place, and an error
    leaves the old file and no temporary behind.  Entered before the
    work, it stops a command whose path is a directory or cannot be
    written."""
    if path is None:
        yield sys.stdout
        return
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: Is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with _create(tmp, path) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _emit(sink: IO[str], line: str) -> None:
    sink.write(line + "\n")
    sink.flush()


def _writer(sink: IO[str], fmt: str, header: str, csv_row: Callable) -> Callable:
    """The emit function for --format: CSV writes `header` now and
    csv_row(r) per record, JSON one compact to_dict() line per record."""
    if fmt == "csv":
        _emit(sink, header)
        return lambda r: _emit(sink, csv_row(r))
    return lambda r: _emit(sink, json.dumps(r.to_dict(), separators=(",", ":")))


def _verify_csv_row(v) -> str:
    cells = (v.generator_ok, *v.report.flags(), v.report.overall, v.minimal_ok, v.passed)
    return f"{v.row.m},{v.row.N},{v.row.x},{','.join(map(_flag, cells))},{v.elapsed_ms:.3f}"


def _scan_csv_row(r) -> str:
    cells = (*r.fast.flags(), r.fast.overall, r.naive.overall, r.agree)
    return f"{r.N},{r.m},{r.x},{','.join(map(_flag, cells))}"


def _cmd_search(args) -> int:
    lo, hi = args.m
    if lo < 2:
        raise ValueError(f"search needs m >= 2, got {lo}")
    if args.resume and not args.out:
        raise ValueError("--resume needs --out")
    workers = _resolve_workers(args.workers)
    check_bound(args.bound)
    progress = _Progress("search", args.progress_interval, args.quiet)

    resume_records: list[SearchRecord] = []
    if args.resume and os.path.isfile(args.out):
        parse = records_from_csv if args.format == "csv" else records_from_jsonl
        try:
            with open(args.out, encoding="ascii") as f:
                text = f.read()
            # records are written a line at a time and flushed, so an
            # unterminated last line is a record cut off mid-write
            cut = text.rfind("\n") + 1
            if text[cut:]:
                print(f"search: dropping the unfinished last line of {args.out}: "
                      f"{text[cut:]!r}", file=sys.stderr)
                text = text[:cut]
            resume_records = parse(text)
        except (ValueError, KeyError) as e:
            raise ValueError(f"cannot resume from {args.out}: {e}") from None

    # records stream straight into --out, which --resume reads back
    out = _create(args.out, args.out) if args.out else nullcontext(sys.stdout)
    with out as sink:
        emit = _writer(sink, args.format, SEARCH_CSV_HEADER, SearchRecord.to_csv_row)

        def on_record(rec: SearchRecord) -> None:
            emit(rec)
            progress(rec.m, rec.N or 0, rec.candidates_tested)

        records = search_all(lo, hi, args.bound, workers=workers,
                             resume_records=resume_records, on_record=on_record)

    if args.oracle:
        for r in records:
            if r.status == "found" and r.N is not None and r.N <= oracle_mod.ORACLE_SCAN_MAX:
                p = build_partition(r.N, r.m, r.x)
                rep = oracle_mod.naive_check(p)
                if not rep.overall:
                    print(
                        f"oracle disagreement at m={r.m} N={r.N}: {rep.to_json()}",
                        file=sys.stderr,
                    )
                    return 1
                if not args.quiet:
                    print(f"oracle confirmed m={r.m} N={r.N}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    if args.out and args.failures and os.path.realpath(args.out) == os.path.realpath(args.failures):
        raise ValueError(f"--out and --failures name the same file: {args.out}")
    progress = _Progress("sweep", args.progress_interval, args.quiet)
    failure_log = _document(args.failures) if args.failures else nullcontext()
    workers = _resolve_workers(args.workers)
    with _document(args.out) as sink, failure_log as log:
        result = sweep_nonexistence(args.m, args.bound, workers=workers, progress=progress)
        emit = _writer(sink, args.format, SEARCH_CSV_HEADER, SearchRecord.to_csv_row)
        emit(result.record)
        if log:
            log.writelines(fail.to_json() + "\n" for fail in result.failures)
    if not args.quiet:
        print(
            f"sweep m={args.m}: {result.record.status}, "
            f"{result.record.candidates_tested} candidates, "
            f"{len(result.failures)} failures logged",
            file=sys.stderr,
        )
        bound, cutoff = result.record.bound_used, sum_free_cutoff(args.m)
        reach = "reaches" if bound >= cutoff else "stops below"
        print(
            f"sweep m={args.m}: bound {bound} {reach} the sum-free "
            f"cut-off {cutoff}, past which no prime modulus can pass",
            file=sys.stderr,
        )
    return 0


def _cmd_verify(args) -> int:
    workers = _resolve_workers(args.workers)
    rows = catalog_mod.load_catalog()
    if not args.all:
        if args.m is None:
            raise ValueError("pass --all or --m <range>")
        lo, hi = args.m
        rows = [r for r in rows if lo <= r.m <= hi]
        if not rows:
            raise ValueError(f"no catalog rows with m in {lo}..{hi}")
    progress = _Progress("verify", args.progress_interval, args.quiet)
    with _document(args.out) as sink:
        results = catalog_mod.verify_rows(
            rows, minimality=args.minimality, workers=workers, progress=progress
        )
        emit = _writer(sink, args.format, VERIFY_CSV_HEADER, _verify_csv_row)
        for v in results:
            emit(v)

    failed = [v for v in results if not v.passed]
    if failed:
        for v in failed:
            print(f"verify FAILED at m={v.row.m} N={v.row.N}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"verify: all {len(results)} rows passed", file=sys.stderr)
    return 0


def _cmd_bound(args) -> int:
    if args.colors > MAX_BOUND_COLORS:
        raise ValueError(f"bound limited to --colors <= {MAX_BOUND_COLORS}, got {args.colors}")
    print(ramsey_recursive_bound(args.colors))
    return 0


def _cmd_export(args) -> int:
    with _document(args.out) as sink:
        catalog_mod.check_export_modulus(args.N)
        p = build_partition(args.N, args.m, args.x)
        sink.write(catalog_mod.export_coloring(p, args.format))
    return 0


def _cmd_scan(args) -> int:
    workers = _resolve_workers(args.workers)
    with _document(args.out) as sink:
        records = oracle_mod.exhaustive_small_scan(args.nmax, workers=workers)
        emit = _writer(sink, args.format, SCAN_CSV_HEADER, _scan_csv_row)
        for r in records:
            emit(r)
    disagree = [r for r in records if not r.agree]
    if disagree:
        for r in disagree:
            print(f"checker disagreement at N={r.N} m={r.m}", file=sys.stderr)
        return 1
    return 0


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--quiet", "-q", action="store_true")
    sp.add_argument("--progress-interval", type=float, default=10.0, metavar="SEC")
    sp.add_argument("--workers", type=int, metavar="W")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramsey-forge",
        description="Search and verify symmetric sum-free cyclic multi-bases.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="least passing modulus per color count")
    sp.add_argument("--m", type=_parse_m_range, required=True, metavar="A..B")
    sp.add_argument("--bound", type=int, default=DEFAULT_SEARCH_BOUND, metavar="B")
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--resume", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("sweep", help="exhaust all candidates up to a bound")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--bound", type=int, default=None, metavar="B")
    sp.add_argument("--failures", metavar="PATH")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("verify", help="re-derive catalog rows")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--m", type=_parse_m_range, default=None, metavar="A..B")
    sp.add_argument("--minimality", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("bound", help="recursive multicolor Ramsey bound")
    sp.add_argument("--colors", type=int, required=True)
    sp.set_defaults(fn=_cmd_bound)

    sp = sub.add_parser("export", help="emit an edge coloring as DOT or JSON")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--format", choices=("dot", "json"), required=True)
    sp.add_argument("--out", metavar="PATH")
    sp.set_defaults(fn=_cmd_export)

    sp = sub.add_parser("scan", help="cross-check both checkers on small moduli")
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--workers", type=int, metavar="W")
    sp.set_defaults(fn=_cmd_scan)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to the null
        # device, so that the final flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
