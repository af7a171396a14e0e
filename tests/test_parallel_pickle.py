"""Broadcast payloads must be lean, self-contained and state-free.

Everything that crosses the process boundary — the packed database, the
pre-processed database, chunk tasks — must pickle cleanly and must NOT
drag along ambient process state: the metrics registry, tracers or
trace collectors, or live fault injectors.  Accidentally capturing one
of those (e.g. through a closure or a cached attribute) would silently
re-pickle it per task and desynchronise worker-side state from the
parent's; this suite pins the payload contents down.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.alphabet import PROTEIN
from repro.db.database import SequenceDatabase
from repro.db.preprocess import preprocess_database
from repro.faults.injection import FaultPlan
from repro.parallel import PackedDatabase, SharedDatabaseBroadcast
from repro.parallel.shared import attach_shared_database
from repro.parallel.worker import ChunkTask, EngineConfig
from repro.scoring import BLOSUM62, GapModel
from tests.conftest import random_protein

#: Ambient-state markers that must never appear in a broadcast pickle.
FORBIDDEN_TOKENS = (
    b"repro.metrics",
    b"repro.obs",
    b"MetricsRegistry",
    b"TraceCollector",
    b"Tracer",
    b"FaultInjector",
)


def make_db(rng, n=21) -> SequenceDatabase:
    seqs = [random_protein(rng, int(k)) for k in rng.integers(3, 50, n)]
    return SequenceDatabase(
        "pickle-db", [PROTEIN.encode(s) for s in seqs],
        [f"s{i}" for i in range(n)],
    )


def assert_clean(payload: bytes, what: str) -> None:
    for token in FORBIDDEN_TOKENS:
        assert token not in payload, f"{what} pickle drags in {token!r}"


class TestPreprocessedDatabase:
    def test_round_trip(self, rng):
        db = make_db(rng)
        pre = preprocess_database(db, lanes=4)
        payload = pickle.dumps(pre)
        assert_clean(payload, "PreprocessedDatabase")
        loaded = pickle.loads(payload)
        assert loaded.lanes == pre.lanes
        assert len(loaded.groups) == len(pre.groups)
        for a, b in zip(loaded.groups, pre.groups):
            np.testing.assert_array_equal(a.codes, b.codes)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_round_trip_after_fingerprint_cache(self, rng):
        # fingerprint() caches a hash on the database; the cache must
        # not make the pickle stateful or dirty.
        db = make_db(rng)
        before = pickle.dumps(preprocess_database(db, lanes=4))
        db.fingerprint()
        after = pickle.dumps(preprocess_database(db, lanes=4))
        assert_clean(after, "PreprocessedDatabase")
        assert pickle.loads(before).lanes == pickle.loads(after).lanes


class TestPackedDatabase:
    def test_round_trip(self, rng):
        packed = PackedDatabase.from_preprocessed(
            preprocess_database(make_db(rng), lanes=4)
        )
        payload = pickle.dumps(packed)
        assert_clean(payload, "PackedDatabase")
        loaded = pickle.loads(payload)
        assert loaded.n_groups == packed.n_groups
        for name, arr in packed.arrays().items():
            np.testing.assert_array_equal(getattr(loaded, name), arr)
        assert loaded._keepalive == ()

    def test_shared_view_pickles_self_contained(self, rng):
        # A shm-backed PackedDatabase is views over segments owned by
        # another object; its pickle must materialise real copies that
        # outlive the broadcast.
        packed = PackedDatabase.from_preprocessed(
            preprocess_database(make_db(rng), lanes=4)
        )
        owner = SharedDatabaseBroadcast(packed)
        attached = None
        try:
            attached = attach_shared_database(owner.handle())
            assert attached._keepalive  # really view-backed
            payload = pickle.dumps(attached)
            loaded = pickle.loads(payload)
        finally:
            for shm in getattr(attached, "_keepalive", ()):
                shm.close()
            owner.close()
        assert_clean(payload, "shared PackedDatabase")
        assert loaded._keepalive == ()
        for name, arr in packed.arrays().items():
            np.testing.assert_array_equal(getattr(loaded, name), arr)

    def test_group_views_match_preprocessed(self, rng):
        pre = preprocess_database(make_db(rng), lanes=4)
        packed = PackedDatabase.from_preprocessed(pre)
        assert packed.n_groups == len(pre.groups)
        for g, grp in enumerate(pre.groups):
            view = packed.group(g)
            np.testing.assert_array_equal(view.codes, grp.codes)
            np.testing.assert_array_equal(view.lengths, grp.lengths)
            np.testing.assert_array_equal(view.indices, grp.indices)


class TestChunkTask:
    def test_round_trip_with_plan(self, rng):
        task = ChunkTask(
            chunk_id=3,
            kind="groups",
            query=PROTEIN.encode(random_protein(rng, 18)),
            matrix=BLOSUM62,
            gaps=GapModel(10, 2),
            engine=EngineConfig(lanes=8),
            group_ids=(0, 1, 2),
            plan=FaultPlan(seed=5, corrupt_rate=0.25),
        )
        payload = pickle.dumps(task)
        # A FaultPlan (pure declarative rates) is fine; a live
        # FaultInjector (carries tracer hooks) is not.
        assert_clean(payload, "ChunkTask")
        loaded = pickle.loads(payload)
        assert loaded.group_ids == task.group_ids
        assert loaded.plan == task.plan
        np.testing.assert_array_equal(loaded.query, task.query)

    def test_task_payload_is_small(self, rng):
        # The whole point of the one-time broadcast: per-task payloads
        # must not scale with the database.
        db = make_db(rng, n=60)
        pre = preprocess_database(db, lanes=8)
        task = ChunkTask(
            chunk_id=0,
            kind="groups",
            query=PROTEIN.encode(random_protein(rng, 24)),
            matrix=BLOSUM62,
            gaps=GapModel(10, 2),
            engine=EngineConfig(lanes=8),
            group_ids=tuple(range(len(pre.groups))),
        )
        broadcast_bytes = PackedDatabase.from_preprocessed(pre).nbytes()
        assert len(pickle.dumps(task)) < 4096 + broadcast_bytes // 10
