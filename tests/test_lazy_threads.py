"""Lazily built parts shared by two threads are built once.

:class:`SearchPipeline` creates its worker pool and its tiered executor
on first use, :class:`StreamingSearch` its sharded scan, and
:class:`PreprocessCache` fills an entry on first sight.  Each is a
check-then-create: two threads arriving together must
not both build, or the overwritten pool is never closed and the cache
preprocesses the same database twice.  Every fake constructor below
sleeps so an unguarded check-then-create loses the race reliably.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.parallel.backend as backend_mod
import repro.search.sharded as sharded_mod
import repro.search.tiered as tiered_mod
import repro.service.cache as cache_mod
from repro.db import SequenceDatabase
from repro.db.fasta import FastaRecord
from repro.db.synthetic import SyntheticSwissProt
from repro.exceptions import ParallelError
from repro.metrics import MetricsRegistry
from repro.search import SearchOptions, SearchPipeline, StreamingSearch
from repro.service import PreprocessCache

QUERY = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"


@pytest.fixture(scope="module")
def db() -> SequenceDatabase:
    return SyntheticSwissProt(seed=29).generate(scale=0.0003)


def run_together(fn, n=2):
    """Call ``fn`` from ``n`` threads released at once; return results."""
    barrier = threading.Barrier(n)
    got = []

    def call():
        barrier.wait(timeout=5)
        got.append(fn())

    threads = [threading.Thread(target=call) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(got) == n
    return got


def test_concurrent_searches_build_one_pool(monkeypatch, db):
    built, used = [], []

    class SlowBackend:
        """A pool that is slow to start and then cannot score."""

        closed = False

        def __init__(self, *args, **kwargs):
            time.sleep(0.05)
            built.append(self)

        def score_groups(self, *args, **kwargs):
            used.append(self)
            raise ParallelError("fake pool scores nothing")

        def close(self):
            self.closed = True

    monkeypatch.setattr(backend_mod, "ProcessPoolBackend", SlowBackend)
    serial = SearchPipeline(SearchOptions()).search(QUERY, db)
    pipe = SearchPipeline(
        SearchOptions(), workers=2, metrics=MetricsRegistry()
    )
    results = run_together(lambda: pipe.search(QUERY, db))
    assert len(built) == 1
    assert used == [built[0], built[0]]
    for res in results:  # both fell back in-process to the same scores
        np.testing.assert_array_equal(res.scores, serial.scores)
    pipe.close()
    assert all(b.closed for b in built)


def test_concurrent_streamed_searches_build_one_sharded_scan(monkeypatch, db):
    built = []

    class SlowSharded:
        """A sharded scan slow to build whose pool cannot start."""

        closed = False

        def __init__(self, *args, **kwargs):
            time.sleep(0.05)
            built.append(self)

        def start(self):
            raise ParallelError("fake pool cannot start")

        def close(self):
            self.closed = True

    monkeypatch.setattr(sharded_mod, "ShardedStreamingSearch", SlowSharded)
    serial = StreamingSearch(SearchOptions()).search_database(QUERY, db)
    stream = StreamingSearch(
        SearchOptions(), workers=2, metrics=MetricsRegistry()
    )
    results = run_together(lambda: stream.search_database(QUERY, db))
    assert len(built) == 1
    for res in results:  # both fell back to the serial scan
        assert [(h.index, h.score) for h in res.hits] == [
            (h.index, h.score) for h in serial.hits
        ]
    stream.close()
    assert all(b.closed for b in built)


def test_concurrent_tiered_searches_build_one_executor(monkeypatch, db):
    built = []

    class SlowTiered:
        def __init__(self, *args, **kwargs):
            time.sleep(0.05)
            built.append(self)

        def search(self, *args, **kwargs):
            return self

    monkeypatch.setattr(tiered_mod, "TieredSearch", SlowTiered)
    pipe = SearchPipeline(SearchOptions(mode="fast"))
    got = run_together(lambda: pipe.search(QUERY, db))
    assert len(built) == 1
    assert got == [built[0], built[0]]


def test_concurrent_misses_fill_once(monkeypatch, db):
    fills = []
    real = cache_mod.preprocess_database

    def slow_preprocess(*args, **kwargs):
        time.sleep(0.05)
        fills.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "preprocess_database", slow_preprocess)
    cache = PreprocessCache(metrics=MetricsRegistry())
    got = run_together(lambda: cache.get(db, lanes=8))
    assert len(fills) == 1
    assert cache.misses == 1 and cache.hits == 1
    assert got[0] is got[1]


def test_cache_counters_hold_under_stress():
    # More threads than cores and a short switch interval: a lost update
    # to the counters or a second fill of one key breaks the totals.
    dbs = [
        SequenceDatabase.from_records(
            [FastaRecord(f"s{k}", "MKTAYIAK" * (k + 1)) for k in range(n)],
            name=f"stress-{n}",
        )
        for n in (3, 4, 5)
    ]
    cache = PreprocessCache(metrics=MetricsRegistry())
    rounds, workers = 40, 8
    barrier = threading.Barrier(workers)
    errors = []

    def hammer(offset):
        try:
            barrier.wait(timeout=5)
            for r in range(rounds):
                cache.get(dbs[(offset + r) % len(dbs)], lanes=8)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert cache.misses == len(dbs)
    assert cache.hits + cache.misses == rounds * workers
