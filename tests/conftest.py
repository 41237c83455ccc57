import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ramsey_forge import search as search_mod
from ramsey_forge.oracle import exhaustive_small_scan, relation_algebra_check
from ramsey_forge.partition import build_partition


@pytest.fixture(scope="session")
def relation_scan_200():
    """relation_algebra_check beside naive_check's verdict on every
    exhaustive_small_scan(200) partition, computed once per session for
    the two tests that compare them: ([(N, m, relation_ok, naive_ok)],
    seconds taken)."""
    start = time.perf_counter()
    rows = [
        (r.N, r.m, relation_algebra_check(build_partition(r.N, r.m, r.x)), r.naive.overall)
        for r in exhaustive_small_scan(200)
    ]
    return rows, time.perf_counter() - start


@pytest.fixture
def no_pool(monkeypatch):
    """Fail any test that starts the worker pool, which every batch
    command reaches through `search.in_order`."""
    def refuse(*args, **kwargs):
        raise AssertionError("worker pool started")

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", refuse)


@pytest.fixture
def counting_pool(monkeypatch):
    """Run the worker pool on threads and return the list of its
    submitted jobs, one argument tuple each."""
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", CountingPool)
    return submitted
