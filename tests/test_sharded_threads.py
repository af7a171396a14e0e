"""One :class:`ShardedStreamingSearch` shared by two threads.

Its worker pool is created lazily and its ``resume`` flag is
configuration.  A concurrent call may neither build a second pool (the
overwritten one would never be closed) nor see another call's resume.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.parallel.backend as backend_mod
from repro.db import SequenceDatabase
from repro.db.synthetic import SyntheticSwissProt
from repro.metrics import MetricsRegistry
from repro.search import SearchOptions, ShardedStreamingSearch, StreamingSearch

QUERY = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"


@pytest.fixture(scope="module")
def db() -> SequenceDatabase:
    return SyntheticSwissProt(seed=23).generate(scale=0.0006)


def hit_tuples(result):
    return [(h.score, h.index, h.header, h.length) for h in result.hits]


class CrashedStream(RuntimeError):
    """Simulates the scanning process dying mid-scan."""


def crashing_stream(db, crash_after):
    for i, item in enumerate(zip(db.headers, db.sequences)):
        if i == crash_after:
            raise CrashedStream(f"stream died at record {i}")
        yield item


def test_concurrent_start_builds_one_pool(monkeypatch):
    built = []

    class SlowBackend:
        """A pool whose construction is slow enough to race."""

        closed = False

        def __init__(self, *args, **kwargs):
            time.sleep(0.05)
            built.append(self)

        def close(self):
            self.closed = True

    monkeypatch.setattr(backend_mod, "ProcessPoolBackend", SlowBackend)
    sharded = ShardedStreamingSearch(SearchOptions(), workers=2)
    barrier = threading.Barrier(2)
    got = []

    def start():
        barrier.wait(timeout=5)
        got.append(sharded.start())

    threads = [threading.Thread(target=start) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(built) == 1
    assert len(got) == 2 and got[0] is got[1] is built[0]
    sharded.close()
    assert built[0].closed


def test_resume_does_not_flip_the_shared_flag(db, tmp_path):
    opts = SearchOptions(chunk_size=16, top_k=6)
    serial = StreamingSearch(opts).search_database(QUERY, db)
    registry = MetricsRegistry()
    seen = []

    def observed_stream():
        # Runs on the first next(): what would a concurrent
        # search_records on this object see right now?
        seen.append(sharded.resume_enabled)
        yield from zip(db.headers, db.sequences)

    with ShardedStreamingSearch(
        opts, workers=2, shard_records=64,
        journal=tmp_path / "scan.journal", metrics=registry,
    ) as sharded:
        with pytest.raises(CrashedStream):
            sharded.search_records(
                QUERY, crashing_stream(db, min(200, len(db) - 30)),
                database_name=db.name,
            )
        resumed = sharded.resume(
            QUERY, observed_stream(), database_name=db.name
        )

    assert seen == [False]
    assert sharded.resume_enabled is False
    assert registry.snapshot()["resume.loaded"] == 1
    assert hit_tuples(resumed) == hit_tuples(serial)
    assert resumed.sequences_scanned == serial.sequences_scanned
