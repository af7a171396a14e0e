"""Shared pre-processing cache for multi-query traffic.

Step 2 of Algorithm 1 (sort by length + lane packing) depends only on
the database and the lane width — never on the query — yet the
single-query pipeline recomputes it per search.  Under multi-query
traffic that is pure waste: this LRU keyed on ``(database fingerprint,
lanes)`` runs the sort/pack once per distinct database and hands every
subsequent query the same :class:`~repro.db.preprocess.PreprocessedDatabase`.

Hit/miss/eviction counts are reported through :mod:`repro.metrics`
(``service.preprocess_cache.*``) so serving deployments can watch the
hit rate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..db.database import SequenceDatabase
from ..db.preprocess import PreprocessedDatabase, preprocess_database
from ..exceptions import PipelineError
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import get_tracer

__all__ = ["PreprocessCache"]


class PreprocessCache:
    """LRU of :func:`~repro.db.preprocess_database` results.

    Parameters
    ----------
    capacity:
        Distinct ``(database, lanes)`` combinations kept resident; the
        least-recently-used entry is evicted beyond that.
    metrics:
        Registry receiving ``service.preprocess_cache.{hits,misses,
        evictions}``; defaults to the process-wide one.
    """

    def __init__(
        self, capacity: int = 8, *, metrics: MetricsRegistry = METRICS
    ) -> None:
        if capacity < 1:
            raise PipelineError(
                f"cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.metrics = metrics
        self._entries: OrderedDict[tuple[int, int], PreprocessedDatabase] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # One lock over lookup, fill, eviction and the counters: two
        # threads missing on the same content fill it once, not twice.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, database: SequenceDatabase, *, lanes: int
    ) -> PreprocessedDatabase:
        """The sorted/lane-packed form of ``database`` at ``lanes``.

        Computes and caches on first sight of the content; every later
        call with equal content (whatever object carries it) is a hit,
        including one that waited for a concurrent fill.
        """
        with get_tracer().span("cache.get") as sp, \
                self.metrics.timer(
                    "service.preprocess_cache.get.seconds"
                ).time(), self._lock:
            key = (database.fingerprint(), int(lanes))
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self.metrics.increment("service.preprocess_cache.hits")
                self._entries.move_to_end(key)
                if sp:
                    sp.set_attributes(hit=True, lanes=int(lanes))
                return entry
            self.misses += 1
            self.metrics.increment("service.preprocess_cache.misses")
            entry = preprocess_database(database, lanes=lanes)
            self._entries[key] = entry
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self.metrics.increment("service.preprocess_cache.evictions")
            if sp:
                sp.set_attributes(hit=False, lanes=int(lanes))
            return entry

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Counters plus occupancy, for reports and the CLI."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "size": len(self._entries),
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        """Drop every cached entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()
