"""Heterogeneous search pipeline — Algorithm 2 with real alignments.

Where :class:`repro.runtime.HybridExecutor` models Algorithm 2's *timing*
over bare length distributions, this pipeline *executes* it: the
database is split at the workload fraction (step 2), the device share
runs through an asynchronous offload region carrying a real inter-task
kernel at the device's lane width (step 3, MIC side), the host share
runs concurrently in host lane width (step 3, CPU side), and the two
score sets merge into one ranking (step 4).  Wall time is real Python;
device time is modelled per side — so the result both *is* a correct
search and *says* what the paper's machine would have taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import as_codes
from ..db.database import SequenceDatabase
from ..db.preprocess import split_database
from ..exceptions import PipelineError
from ..metrics.counters import MetricsRegistry
from ..obs.tracer import get_tracer
from ..perfmodel.model import DevicePerformanceModel, RunConfig, Workload
from ..runtime.offload import OffloadRegion
from ..runtime.pcie import PCIE_GEN2_X16, PCIeLink
from .api import SearchOptions, unify_options
from .pipeline import SearchPipeline
from .result import Hit, SearchResult
from .scan import merge_by_header, rank_hits

__all__ = ["HybridSearchResult", "HybridSearchPipeline"]


@dataclass
class HybridSearchResult:
    """A merged search result plus the per-side modelled timing."""

    result: SearchResult
    device_fraction: float
    host_modeled_seconds: float
    device_modeled_seconds: float  # transfers included
    scheduler: str = "static"
    #: Static-split reference makespan, set when the dynamic work-queue
    #: scheduler produced this result (for tuned-vs-untuned comparison).
    static_modeled_makespan: float | None = None

    @property
    def modeled_makespan(self) -> float:
        """Algorithm 2's wall time: the slower of the two sides."""
        return max(self.host_modeled_seconds, self.device_modeled_seconds)

    @property
    def modeled_gcups(self) -> float:
        """Combined modelled throughput (the paper's Fig. 8 quantity)."""
        return self.result.cells / self.modeled_makespan / 1e9

    # -- SearchOutcome protocol ----------------------------------------
    @property
    def hits(self) -> list[Hit]:
        """Ranked hits of the merged search."""
        return self.result.hits

    def best_score(self) -> int:
        """Highest alignment score across both sides."""
        return self.result.best_score()

    @property
    def gcups(self) -> float:
        """Headline throughput: the modelled heterogeneous GCUPS."""
        return self.modeled_gcups

    @property
    def provenance(self) -> dict:
        """Identifying fields (:class:`~repro.search.SearchOutcome`)."""
        return {
            **self.result.provenance,
            "kind": "hybrid",
            "scheduler": self.scheduler,
            "device_fraction": self.device_fraction,
        }


def require_exact(options: SearchOptions, owner: str) -> None:
    """Refuse a tiered ``mode`` on a modelled heterogeneous split.

    Both schedulers search each side with ``top_k=0`` and merge the
    per-sequence score arrays; a tiered search leaves pruned sequences
    at score 0, so the merged ranking would silently be wrong.
    """
    if options.mode != "exact":
        raise PipelineError(
            f"{owner} runs exact searches only, got mode="
            f"{options.mode!r}: the modelled host/device split merges "
            f"whole score arrays, which a tiered search does not produce"
        )


class HybridSearchPipeline:
    """Runs Algorithm 2 for real across two modelled devices.

    ``scheduler`` selects how the database is distributed: ``"static"``
    is the paper's fixed split at ``device_fraction``; ``"queue"``
    replaces it with the dynamic work-queue scheduler
    (:class:`repro.service.WorkQueueScheduler`) — chunks are pulled by
    whichever side is free, no per-workload ratio tuning, and
    ``device_fraction`` only positions the static reference makespan
    reported next to the dynamic one.  Scores are identical either way.

    ``workers > 1`` (queue scheduler only) drains the planned chunks on
    a pool of real worker processes, built once and released by
    :meth:`close`; the static split is purely modelled and rejects it.
    Only ``mode="exact"`` options are accepted (see
    :func:`require_exact`).
    """

    def __init__(
        self,
        host_model: DevicePerformanceModel,
        device_model: DevicePerformanceModel,
        options: SearchOptions | None = None,
        *,
        link: PCIeLink = PCIE_GEN2_X16,
        scheduler: str = "static",
        chunks: int = 24,
        metrics: MetricsRegistry | None = None,
        workers: int | None = None,
    ) -> None:
        opts = unify_options(options, owner="HybridSearchPipeline")
        if scheduler not in ("static", "queue"):
            raise PipelineError(
                f"scheduler must be 'static' or 'queue', got {scheduler!r}"
            )
        require_exact(opts, "HybridSearchPipeline")
        if scheduler == "static" and workers not in (None, 1):
            raise PipelineError(
                "the static scheduler is purely modelled and has no "
                f"process executor (workers={workers}); use "
                "scheduler='queue' for a worker pool"
            )
        self.options = opts
        self.host_model = host_model
        self.device_model = device_model
        self.link = link
        self.scheduler = scheduler
        self.chunks = chunks
        self.alphabet = opts.alphabet
        self.metrics = metrics
        self._queue = None
        if scheduler == "queue":
            # Imported lazily: repro.service builds on this package.
            from ..service.scheduler import WorkQueueScheduler

            self._queue = WorkQueueScheduler(
                host_model, device_model, opts, link=link, chunks=chunks,
                metrics=metrics, workers=workers,
            )
        else:
            # One real pipeline per side, each at its device's lane
            # width (unless the options pin an explicit width).
            self._host_pipe = SearchPipeline(
                opts.merged(
                    lanes=opts.resolved_lanes(host_model.spec.lanes32)
                ),
                metrics=metrics,
            )
            self._device_pipe = SearchPipeline(
                opts.merged(
                    lanes=opts.resolved_lanes(device_model.spec.lanes32)
                ),
                metrics=metrics,
            )

    def close(self) -> None:
        """Release the queue scheduler's worker pool, if one is running."""
        if self._queue is not None:
            self._queue.close()

    def __enter__(self) -> "HybridSearchPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def search(
        self,
        query,
        database: SequenceDatabase,
        *,
        device_fraction: float = 0.55,
        query_name: str = "query",
        top_k: int | None = None,
    ) -> HybridSearchResult:
        """One Algorithm 2 execution: split, offload, compute, merge."""
        if len(database) == 0:
            raise PipelineError("cannot search an empty database")
        if top_k is None:
            top_k = self.options.top_k
        if self.scheduler == "queue":
            return self._search_queue(
                query, database, device_fraction=device_fraction,
                query_name=query_name, top_k=top_k,
            )
        q = as_codes(query, self.alphabet)
        tracer = get_tracer()
        with tracer.span("hybrid.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, database=database.name,
                    scheduler="static", device_fraction=device_fraction,
                )
            host_db, dev_db = split_database(database, device_fraction)

            # --- device side: async offload region with a real kernel -
            dev_seconds = 0.0
            dev_result: SearchResult | None = None
            if len(dev_db):
                with tracer.span(
                    "hybrid.offload", worker="device"
                ) as sp:
                    wl = Workload.from_lengths(
                        dev_db.lengths, self.device_model.spec.lanes32
                    )
                    compute = self.device_model.run_seconds(
                        wl, len(q), RunConfig()
                    )
                    region = OffloadRegion(self.link)
                    handle = region.run_async(
                        in_bytes=dev_db.total_residues + len(q),
                        out_bytes=4 * len(dev_db),
                        compute_seconds=compute,
                        kernel=lambda: self._device_pipe.search(
                            q, dev_db, query_name=query_name, top_k=0
                        ),
                    )
                    dev_seconds = region.wait(handle)
                    dev_result = handle.result
                    if sp:
                        sp.set_attributes(
                            sequences=len(dev_db),
                            modeled_seconds=dev_seconds,
                        )
                        sp.set_virtual(0.0, dev_seconds)

            # --- host side (overlapped in Algorithm 2) ----------------
            host_seconds = 0.0
            host_result: SearchResult | None = None
            if len(host_db):
                with tracer.span("hybrid.host", worker="host") as sp:
                    wl = Workload.from_lengths(
                        host_db.lengths, self.host_model.spec.lanes32
                    )
                    host_seconds = self.host_model.run_seconds(
                        wl, len(q), RunConfig()
                    )
                    host_result = self._host_pipe.search(
                        q, host_db, query_name=query_name, top_k=0
                    )
                    if sp:
                        sp.set_attributes(
                            sequences=len(host_db),
                            modeled_seconds=host_seconds,
                        )
                        sp.set_virtual(0.0, host_seconds)

            # --- merge (step 4) ---------------------------------------
            with tracer.span("hybrid.merge"):
                merged = self._merge(
                    query_name, q, database, host_db, dev_db,
                    host_result, dev_result, top_k,
                )
            if root:
                merged.trace = {"span_id": root.span_id, "span": root.name}
            return HybridSearchResult(
                result=merged,
                device_fraction=device_fraction,
                host_modeled_seconds=host_seconds,
                device_modeled_seconds=dev_seconds,
            )

    # ------------------------------------------------------------------
    def _search_queue(
        self, query, database, *, device_fraction, query_name, top_k,
    ) -> HybridSearchResult:
        """Dynamic path: delegate to the work-queue scheduler."""
        outcome = self._queue.search(
            query, database, query_name=query_name, top_k=top_k,
            static_fraction=device_fraction,
        )
        return HybridSearchResult(
            result=outcome.result,
            device_fraction=outcome.plan.device_residue_fraction,
            host_modeled_seconds=outcome.plan.host_seconds,
            device_modeled_seconds=outcome.plan.device_seconds,
            scheduler="queue",
            static_modeled_makespan=outcome.static_modeled_makespan,
        )

    # ------------------------------------------------------------------
    def _merge(
        self, query_name, q, database, host_db, dev_db,
        host_result, dev_result, top_k,
    ) -> SearchResult:
        parts = [
            (part_db, part_result)
            for part_db, part_result in ((host_db, host_result),
                                         (dev_db, dev_result))
            if part_result is not None
        ]
        scores = merge_by_header(
            database, [(db, r.scores) for db, r in parts], owner="hybrid"
        )
        return SearchResult(
            query_name=query_name,
            query_length=len(q),
            database_name=database.name,
            scores=scores,
            hits=rank_hits(scores, database, top_k),
            cells=len(q) * database.total_residues,
            wall_seconds=sum(r.wall_seconds for _, r in parts),
        )
