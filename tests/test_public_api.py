import re
from pathlib import Path

import ramsey_forge
import ramsey_forge.checker
from ramsey_forge import catalog, classcount, search

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve():
    missing = [n for n in ramsey_forge.__all__ if not hasattr(ramsey_forge, n)]
    assert not missing


def test_all_is_sorted_and_unique():
    names = list(ramsey_forge.__all__)
    assert names == sorted(set(names))


def test_retired_names_are_gone():
    # check_candidate is the one report function, and every partition
    # comes off partition.generator_walk
    for name in ("counting_report", "class_columns"):
        assert name not in ramsey_forge.__all__, name
        assert not hasattr(ramsey_forge, name), name
        assert not hasattr(ramsey_forge.classcount, name), name


def test_bindings_the_benchmark_tracer_wraps_exist():
    # perfbench/tracer.py and its self-test look these up by name, and
    # Tier-1 does not run perfbench's tests; ROADMAP item 2, a harness
    # that reads the program's own counters, may drop them
    assert callable(ramsey_forge.checker.check_candidate)
    assert search.check_candidate is catalog.check_candidate is ramsey_forge.checker.check_candidate
    assert callable(classcount.class_index_table)


def test_version_string():
    major, minor, patch = ramsey_forge.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_readme_library_imports_are_public():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"from ramsey_forge import \((.*?)\)", library, re.S)
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert "build_partition" in names
    assert sorted(set(names) - set(ramsey_forge.__all__)) == []
