"""Streaming database search — out-of-core Algorithm 1.

The paper's future-work databases (TrEMBL, tens of gigabases) do not fit
comfortably in memory.  Real tools stream: read a chunk of FASTA
records, align, keep the running top-k, discard the chunk.  This module
is that driver over the library's engines — only the current chunk and
the hit heap are ever resident.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.engine import as_codes
from ..db.fasta import FastaRecord
from ..db.shards import encode_record
from ..exceptions import ParallelError, PipelineError
from ..faults.policy import Deadline
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import get_tracer
from .api import SearchOptions, unify_options
from .gcups import Stopwatch, gcups
from .result import Hit
from .scan import ScanContext, TopK, score_stream_chunk
from .tiered import TIER_PRESETS, TieredFilter, TierStats

__all__ = ["StreamingResult", "PartialResult", "StreamingSearch"]


@dataclass
class StreamingResult:
    """Top hits and accounting of one streamed search."""

    query_name: str
    query_length: int
    hits: list[Hit]            # best first
    sequences_scanned: int
    cells: int
    chunks: int
    wall_seconds: float
    corrupted_redone: int = 0  # chunks recomputed after a checksum mismatch
    database_name: str = "<stream>"
    #: Sequences the numpy kernel redid past its first rung, the same
    #: count as a resident scan's at any chunk size (see
    #: :attr:`~repro.search.SearchResult.saturated_recomputed`).
    saturated_recomputed: int = 0

    @property
    def wall_gcups(self) -> float:
        """Python throughput of the streamed scan.

        ``0.0`` for a zero-duration measurement (tiny input, coarse
        clock); raises only on negative time.
        """
        return gcups(self.cells, self.wall_seconds)

    @property
    def gcups(self) -> float:
        """Headline throughput (:class:`~repro.search.SearchOutcome`)."""
        return self.wall_gcups

    def best_score(self) -> int:
        """Highest score seen (0 when nothing scored)."""
        return self.hits[0].score if self.hits else 0

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"query {self.query_name} (len {self.query_length}) vs "
            f"{self.database_name}: {self.sequences_scanned} sequences in "
            f"{self.chunks} chunks, {self.cells / 1e9:.3f} Gcells in "
            f"{self.wall_seconds:.3f}s ({self.wall_gcups:.4f} GCUPS wall)"
        ]
        if self.corrupted_redone:
            lines.append(
                f"  {self.corrupted_redone} chunk(s) recomputed after "
                f"checksum mismatch"
            )
        for rank, hit in enumerate(self.hits[:10], start=1):
            lines.append(
                f"  #{rank:<2d} score {hit.score:>6d}  {hit.accession} "
                f"(len {hit.length})"
            )
        return "\n".join(lines)

    @property
    def provenance(self) -> dict:
        """Identifying fields (:class:`~repro.search.SearchOutcome`)."""
        return {
            "kind": "streaming",
            "query_name": self.query_name,
            "query_length": self.query_length,
            "database_name": self.database_name,
            "sequences": self.sequences_scanned,
            "chunks": self.chunks,
        }


@dataclass
class PartialResult(StreamingResult):
    """A deadline-truncated streamed search: everything merged in time.

    The contract: :attr:`hits` are the exact top-k of the *prefix* of
    the stream that was fully merged before the deadline expired — the
    first :attr:`sequences_scanned` records — identical to what a
    complete scan over just that prefix would return.  Nothing
    half-merged ever leaks in: the sharded driver only folds whole
    shards, the serial driver whole chunks.

    ``total_records`` (when the caller knows the database size) makes
    :meth:`completion` a real fraction; ``journal_path`` points at the
    scan journal a resumable scan left behind, so the caller can
    :meth:`~repro.search.ShardedStreamingSearch.resume` instead of
    rescanning.
    """

    total_records: int | None = None
    shards_merged: int = 0
    journal_path: str | None = None

    def completion(self) -> float | None:
        """Fraction of the stream merged, or ``None`` if size unknown."""
        if not self.total_records:
            return None
        return self.sequences_scanned / self.total_records

    @property
    def provenance(self) -> dict:
        prov = StreamingResult.provenance.fget(self)  # type: ignore[attr-defined]
        prov["partial"] = True
        if self.total_records is not None:
            prov["total_records"] = self.total_records
        return prov

    def summary(self) -> str:
        done = self.completion()
        frac = f" ({done:.0%} of {self.total_records} records)" \
            if done is not None else ""
        return (
            f"PARTIAL result: deadline expired after "
            f"{self.sequences_scanned} sequences{frac}\n"
            + StreamingResult.summary(self)
        )


class _StreamEntrypoints:
    """``search_fasta`` / ``search_database`` over ``search_records``."""

    def search_fasta(
        self, query, path, *, query_name: str = "query",
        top_k: int | None = None, deadline: Deadline | None = None,
    ) -> StreamingResult:
        """Stream a FASTA file from disk (never fully loaded)."""
        from pathlib import Path

        from ..db.fasta import read_fasta

        return self.search_records(
            query, read_fasta(path), query_name=query_name,
            database_name=Path(path).stem, top_k=top_k, deadline=deadline,
        )

    def search_database(
        self, query, database, *, query_name: str = "query",
        top_k: int | None = None, deadline: Deadline | None = None,
    ) -> StreamingResult:
        """Stream a resident :class:`~repro.db.SequenceDatabase`, in order."""
        return self.search_records(
            query, zip(database.headers, database.sequences),
            query_name=query_name, database_name=database.name,
            top_k=top_k, total_records=len(database), deadline=deadline,
        )


class StreamingSearch(_StreamEntrypoints):
    """Chunked scan keeping a bounded top-k heap.

    Parameters
    ----------
    options:
        A :class:`~repro.search.SearchOptions`; ``chunk_size`` bounds
        peak memory (records aligned per batch) and ``top_k`` is the
        number of hits retained — ties at the heap boundary resolve
        toward the earlier database record (deterministic).  With a
        fault injector set, each chunk's score payload crosses a
        checksum guard; corrupted chunks are recomputed, so the top-k
        matches the fault-free scan.
    workers:
        ``1`` (default) scans serially in-process.  ``> 1`` routes
        every chunk through a persistent worker-process pool, reading
        shards of ``shard_residues`` residues (or ``shard_records``
        records) double-buffered against execution — results stay
        bit-identical to the serial scan (see
        :class:`~repro.search.sharded.ShardedStreamingSearch`).  When
        the pool cannot start, the scan falls back to serial and the
        ``streaming.fallback`` counter records it.
    journal, resume, chunk_timeout:
        Resilience knobs forwarded to the sharded driver
        (``workers > 1`` only): a scan-journal path for resumable
        scans, whether to continue from a matching journal, and the
        pool's hang watchdog (see
        :class:`~repro.search.sharded.ShardedStreamingSearch`).

    A ``deadline`` passed to a search call bounds that scan end-to-end;
    on expiry both the serial and the sharded path return a typed
    :class:`PartialResult` with everything merged in time.
    """

    def __init__(
        self,
        options: SearchOptions | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        workers: int = 1,
        shard_residues: int | None = None,
        shard_records: int | None = None,
        journal=None,
        resume: bool = False,
        chunk_timeout: float | None = None,
    ) -> None:
        opts = unify_options(options, owner="StreamingSearch")
        if int(workers) < 1:
            raise PipelineError(
                f"worker count must be positive, got {workers}"
            )
        self.options = opts
        self.context = ScanContext.resolve(opts)
        self.workers = int(workers)
        self.shard_residues = shard_residues
        self.shard_records = shard_records
        self.journal = journal
        self.resume = bool(resume)
        self.chunk_timeout = chunk_timeout
        self.metrics = metrics if metrics is not None else METRICS
        self.engine = self.context.make_engine()
        self._sharded = None
        # Guards the check-then-create of ``_sharded``: two threads
        # sharing a fresh instance must not each build (and one leak)
        # a sharded scan and its worker pool.
        self._sharded_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _sharded_driver(self):
        """The lazily built pool-backed driver (``workers > 1`` only)."""
        with self._sharded_lock:
            if self._sharded is None:
                from .sharded import ShardedStreamingSearch

                self._sharded = ShardedStreamingSearch(
                    self.options,
                    workers=self.workers,
                    shard_residues=self.shard_residues,
                    shard_records=self.shard_records,
                    journal=self.journal,
                    resume=self.resume,
                    chunk_timeout=self.chunk_timeout,
                    metrics=self.metrics,
                )
            return self._sharded

    def close(self) -> None:
        """Shut down the worker pool, if one was started (idempotent)."""
        with self._sharded_lock:
            sharded, self._sharded = self._sharded, None
        if sharded is not None:
            sharded.close()

    def __enter__(self) -> "StreamingSearch":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def search_records(
        self,
        query,
        records: Iterable,
        *,
        query_name: str = "query",
        database_name: str = "<stream>",
        top_k: int | None = None,
        total_records: int | None = None,
        deadline: Deadline | None = None,
    ) -> StreamingResult:
        """Stream records through the engine; return the top-k.

        ``records`` may be :class:`~repro.db.fasta.FastaRecord` objects
        or ``(header, sequence)`` pairs.  ``top_k`` overrides the
        options' value for this one search (``0`` = scores-only
        accounting, no ranked hits).  An expired ``deadline`` ends the
        scan at a chunk (sharded: shard) boundary with a
        :class:`PartialResult`; ``total_records`` (when known) only
        annotates it with its completion fraction.

        A tiered ``mode`` runs the seed -> verify -> rescore funnel on
        each chunk in place of the exhaustive scorer.  Its filter is
        per-sequence deterministic, so the top-k is chunking-invariant;
        what survives is too little work to feed a pool, so tiered
        scans always run here, whatever ``workers`` says.
        """
        opts, ctx = self.options, self.context
        if top_k is None:
            top_k = opts.top_k
        if self.workers > 1 and opts.mode == "exact":
            try:
                driver = self._sharded_driver()
                # Start the pool before touching the stream so a failed
                # start can still fall back over the same iterator.
                driver.start()
            except ParallelError as exc:
                self.metrics.increment("streaming.fallback")
                get_tracer().event(
                    "streaming.fallback", reason=str(exc),
                    workers=self.workers,
                )
            else:
                return driver.search_records(
                    query, records, query_name=query_name,
                    database_name=database_name, top_k=top_k,
                    total_records=total_records, deadline=deadline,
                )
        q = as_codes(query, ctx.alphabet)
        topk = TopK(top_k)
        scanned = cells = chunks = corrupted_redone = saturated = 0
        watch = Stopwatch()
        tracer = get_tracer()

        with tracer.span("streaming.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, query_length=len(q),
                    database=database_name, chunk_size=opts.chunk_size,
                    top_k=top_k, mode=opts.mode,
                )
            expired = False
            with watch:
                filt = stats = None
                if opts.mode != "exact":
                    filt = TieredFilter(
                        q, ctx.matrix, ctx.gaps, TIER_PRESETS[opts.mode],
                        alphabet=ctx.alphabet,
                    )
                    stats = TierStats(mode=opts.mode)
                for chunk in _chunked(records, opts.chunk_size):
                    if deadline is not None and deadline.expired:
                        # Whole-chunk truncation: everything merged so
                        # far is exactly the scan of the stream prefix.
                        expired = True
                        break
                    chunks += 1
                    with tracer.span("streaming.chunk") as sp:
                        if sp:
                            sp.set_attributes(
                                chunk=chunks - 1, records=len(chunk)
                            )
                        pairs = [
                            encode_record(item, ctx.alphabet)
                            for item in chunk
                        ]
                        headers = [h for h, _ in pairs]
                        seqs = [s for _, s in pairs]
                        only = None
                        if filt is None:
                            scores, batch, redos = score_stream_chunk(
                                self.engine, q, seqs, ctx.matrix, ctx.gaps,
                                opts.injector, chunks - 1,
                            )
                            cells += batch.cells
                            corrupted_redone += redos
                            saturated += len(batch.saturated)
                        else:
                            stats.candidates += len(seqs)
                            stats.exhaustive_cells += len(q) * sum(
                                len(s) for s in seqs
                            )
                            scores, only = filt.funnel(
                                seqs, self.engine, stats
                            )
                        topk.offer(scores, scanned, headers, seqs, only=only)
                        scanned += len(seqs)

            if scanned == 0 and not expired:
                raise PipelineError("the record stream was empty")
            if stats is not None:
                cells = stats.total_cells
                stats.record(self.metrics, watch.seconds)
            if root:
                root.set_attributes(
                    chunks=chunks, sequences=scanned, partial=expired
                )
                if stats is not None:
                    root.set_attributes(**stats.span_attributes())
            self.metrics.increment("streaming.searches")
            self.metrics.increment("streaming.chunks", chunks)
            self.metrics.observe("streaming.search.seconds", watch.seconds)
            common = dict(
                query_name=query_name,
                query_length=len(q),
                hits=topk.hits(),
                sequences_scanned=scanned,
                cells=cells,
                chunks=chunks,
                wall_seconds=watch.seconds,
                corrupted_redone=corrupted_redone,
                database_name=database_name,
                saturated_recomputed=saturated,
            )
            if expired:
                self.metrics.increment("deadline.partial")
                tracer.event(
                    "deadline.expired", where="streaming.serial",
                    scanned=scanned,
                )
                return PartialResult(**common, total_records=total_records)
            return StreamingResult(**common)


def _chunked(
    records: Iterable[FastaRecord], size: int
) -> Iterator[list[FastaRecord]]:
    chunk: list[FastaRecord] = []
    for rec in records:
        chunk.append(rec)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk
