"""The batched search front-end.

One object, one ``run()``: :class:`SearchService` accepts a batch of
:class:`~repro.search.SearchRequest` and runs it through the local
Algorithm 1 pipeline.  The whole batch shares one sort/lane-pack through
:class:`~repro.service.PreprocessCache` (keyed on database fingerprint +
lane count), so N queries pay for one ``preprocess_database`` instead
of N.  The pipeline scores in this process, on a persistent worker pool
(``executor="process"``), or streams big databases through bounded
shards (``executor="sharded"``).

The paper's modelled host/coprocessor split (Algorithm 2, static or
dynamic work queue) is not a serving concern: it lives in
:class:`~repro.search.HybridSearchPipeline`.

Every outcome satisfies the :class:`~repro.search.SearchOutcome`
protocol and is score-identical to the single-query pipeline.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..db.database import SequenceDatabase
from ..exceptions import PipelineError, ServiceOverloaded
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import Tracer, get_tracer, use_tracer
from ..search.api import SearchOptions, SearchOutcome, SearchRequest
from ..search.pipeline import SearchPipeline
from ..search.result import Hit
from .cache import PreprocessCache

__all__ = ["ServiceBatchResult", "SearchService"]

EXECUTORS = ("inprocess", "process", "sharded")


@dataclass
class ServiceBatchResult:
    """Outcomes of one batch, in request order, plus serving stats."""

    requests: tuple[SearchRequest, ...]
    outcomes: tuple[SearchOutcome, ...]
    database_name: str
    cache_stats: dict

    def __post_init__(self) -> None:
        if len(self.requests) != len(self.outcomes):
            raise PipelineError(
                f"{len(self.requests)} requests but "
                f"{len(self.outcomes)} outcomes"
            )

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def results(self) -> dict[str, SearchOutcome]:
        """Request name -> outcome (last wins on duplicate names)."""
        return {
            req.name: out for req, out in zip(self.requests, self.outcomes)
        }

    @property
    def total_cells(self) -> int:
        """DP cells across the whole batch."""
        return sum(o.result.cells if hasattr(o, "result") else o.cells
                   for o in self.outcomes)

    # -- SearchOutcome protocol ----------------------------------------
    @property
    def hits(self) -> list[Hit]:
        """All outcomes' hits, re-ranked by score (request order ties)."""
        merged = [
            (hit, k)
            for k, out in enumerate(self.outcomes)
            for hit in out.hits
        ]
        merged.sort(key=lambda pair: (-pair[0].score, pair[1], pair[0].index))
        return [hit for hit, _ in merged]

    def best_score(self) -> int:
        """Highest alignment score across the batch."""
        return max((o.best_score() for o in self.outcomes), default=0)

    @property
    def gcups(self) -> float:
        """Mean of the outcomes' headline throughputs."""
        if not self.outcomes:
            return 0.0
        return sum(o.gcups for o in self.outcomes) / len(self.outcomes)

    @property
    def provenance(self) -> dict:
        """Identifying fields (:class:`~repro.search.SearchOutcome`)."""
        return {
            "kind": "service-batch",
            "database_name": self.database_name,
            "queries": [r.name for r in self.requests],
            "cache": dict(self.cache_stats),
        }

    def summary(self) -> str:
        """One line per request, for the CLI.

        Outcomes of the modelled host/coprocessor split print their
        ``modeled_gcups`` as "modelled GCUPS"; the rest print wall GCUPS.
        """
        lines = []
        for req, out in zip(self.requests, self.outcomes):
            top = out.hits[0] if out.hits else None
            modeled = getattr(out, "modeled_gcups", None)
            lines.append(
                f"  {req.name:<12s} best {out.best_score():>6d}"
                + (f"  {top.accession}" if top else "  (no hits)")
                + (
                    f"  {out.gcups:8.2f} GCUPS" if modeled is None
                    else f"  {modeled:8.2f} modelled GCUPS"
                )
            )
        return "\n".join(lines)


class SearchService:
    """Unified, batched front door over the local search pipeline.

    Parameters
    ----------
    options:
        Shared :class:`~repro.search.SearchOptions` for every request
        (per-request ``top_k``/``traceback``/``deadline`` still apply).
    executor:
        ``"inprocess"`` (default) runs everything on this process;
        ``"process"`` scores on a persistent pool of ``workers`` real
        OS processes (``SearchPipeline(workers=N)``).  ``"sharded"``
        streams databases larger than ``shard_residues`` through the
        bounded-memory sharded scan on the worker pool instead of
        preprocessing them whole — the out-of-core path; smaller
        databases (and traceback requests, which need the resident
        pipeline) still take the cached-preprocess route.  Scores are
        identical every way; a pool that cannot start falls back to
        in-process execution.
    workers:
        Pool size for the process/sharded executors; defaults to the
        CPU count.  Passing ``workers > 1`` implies
        ``executor="process"`` when no executor was chosen.
    cache_capacity:
        :class:`PreprocessCache` size.
    shard_residues:
        Sharded-executor knob: databases above this many residues
        stream through shards of (at most) this size; others go
        through the resident pipeline.
    max_queue_depth:
        Admission cap: a batch larger than this is rejected whole with
        :class:`~repro.exceptions.ServiceOverloaded` (counted in
        ``service.load_shed``) before any work starts — shedding load
        early beats missing every deadline in the batch.  ``None``
        (default) admits any batch size.
    metrics:
        Registry every layer under this service reports into — the
        cache *and* the pipelines it drives.  Pass an isolated
        :class:`MetricsRegistry` and the process-wide :data:`METRICS`
        stays untouched.
    tracer:
        Optional :class:`~repro.obs.Tracer` activated (via
        :func:`~repro.obs.use_tracer`) for the duration of every
        :meth:`search`/:meth:`run` call, so one batch yields a full
        span tree without touching global tracer state outside the
        call.  ``None`` (default) leaves whatever tracer is already
        active in place.
    """

    def __init__(
        self,
        options: SearchOptions | None = None,
        *,
        executor: str = "inprocess",
        workers: int | None = None,
        cache_capacity: int = 8,
        shard_residues: int = 1_000_000,
        max_queue_depth: int | None = None,
        metrics: MetricsRegistry = METRICS,
        tracer: Tracer | None = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise PipelineError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if workers is not None:
            if int(workers) < 1:
                raise PipelineError(
                    f"worker count must be positive, got {workers}"
                )
            if int(workers) > 1 and executor == "inprocess":
                executor = "process"
        if shard_residues < 1:
            raise PipelineError(
                f"shard_residues must be positive, got {shard_residues}"
            )
        if max_queue_depth is not None and max_queue_depth < 1:
            raise PipelineError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        if executor != "inprocess" and workers is None:
            workers = os.cpu_count() or 2
        self.executor = executor
        self.workers = int(workers) if workers is not None else 1
        self.options = options if options is not None else SearchOptions()
        self.metrics = metrics
        self.tracer = tracer
        self.cache = PreprocessCache(cache_capacity, metrics=metrics)
        self.shard_residues = int(shard_residues)
        self.max_queue_depth = (
            int(max_queue_depth) if max_queue_depth is not None else None
        )
        self._pipe = SearchPipeline(
            self.options, metrics=metrics,
            workers=self.workers if executor == "process" else None,
        )
        self._stream = None
        if executor == "sharded":
            from ..search.streaming import StreamingSearch

            self._stream = StreamingSearch(
                self.options, metrics=metrics,
                workers=self.workers,
                shard_residues=self.shard_residues,
            )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the process executor's worker pool, if any."""
        self._pipe.close()
        if self._stream is not None:
            self._stream.close()

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(
        requests: Iterable[SearchRequest | str] | SearchRequest | str,
    ) -> tuple[SearchRequest, ...]:
        """Accept one request, a bare sequence string, or any mix."""
        if isinstance(requests, (SearchRequest, str)):
            requests = [requests]
        out = []
        for k, req in enumerate(requests):
            if isinstance(req, str):
                req = SearchRequest(query=req, name=f"query-{k}")
            out.append(req)
        return tuple(out)

    def _trace_scope(self):
        """Activate this service's tracer, if it has one."""
        return (
            use_tracer(self.tracer) if self.tracer is not None
            else nullcontext()
        )

    def _run_one(
        self, req: SearchRequest, database: SequenceDatabase
    ) -> SearchOutcome:
        self.metrics.increment("service.requests")
        with get_tracer().span("service.request") as sp, \
                self.metrics.timer("service.request.seconds").time():
            if sp:
                sp.set_attributes(request=req.name, database=database.name)
            if (
                self._stream is not None
                and not req.traceback
                and database.total_residues > self.shard_residues
            ):
                # Out-of-core route: never preprocess/cache the whole
                # database, stream it in bounded shards.
                return self._stream.search_database(
                    req.query, database, query_name=req.name,
                    top_k=req.top_k, deadline=req.deadline,
                )
            # Tiered modes never consume a lane-pack; skip the
            # preprocess cache rather than building an unused one.
            pre = (
                self.cache.get(database, lanes=self._pipe.lanes)
                if self.options.mode == "exact" else None
            )
            return self._pipe.search(
                req.query, database, query_name=req.name,
                top_k=req.top_k, traceback=req.traceback,
                preprocessed=pre, deadline=req.deadline,
            )

    def search(
        self, request: SearchRequest | str, database: SequenceDatabase
    ) -> SearchOutcome:
        """One request through the configured executor."""
        (req,) = self._normalize(request)
        with self._trace_scope():
            return self._run_one(req, database)

    def run(
        self,
        requests: Sequence[SearchRequest | str],
        database: SequenceDatabase,
    ) -> ServiceBatchResult:
        """The whole batch, amortising pre-processing across requests."""
        reqs = self._normalize(requests)
        if not reqs:
            raise PipelineError("the request batch is empty")
        self.metrics.set_gauge("service.queue.depth", float(len(reqs)))
        if (
            self.max_queue_depth is not None
            and len(reqs) > self.max_queue_depth
        ):
            self.metrics.increment("service.load_shed")
            get_tracer().event(
                "service.load_shed", requests=len(reqs),
                max_queue_depth=self.max_queue_depth,
            )
            raise ServiceOverloaded(
                f"batch of {len(reqs)} requests exceeds the admission cap "
                f"of {self.max_queue_depth}; rejected whole (load shed)"
            )
        with self._trace_scope():
            with get_tracer().span("service.batch") as root:
                if root:
                    root.set_attributes(
                        database=database.name, requests=len(reqs),
                    )
                outcomes = tuple(self._run_one(r, database) for r in reqs)
        self.metrics.increment("service.batches")
        return ServiceBatchResult(
            requests=reqs,
            outcomes=outcomes,
            database_name=database.name,
            cache_stats=self.cache.stats(),
        )
