"""Sharded out-of-core parallel search — streaming meets the pool.

Before this module the library could search databases bigger than
memory (:class:`~repro.search.StreamingSearch`, strictly serial) or
search on many real cores (:class:`~repro.parallel.ProcessPoolBackend`,
fully-resident databases only) — but not both at once.  This driver
composes them, SWAPHI-style: the record stream is split into
bounded-memory *shards* (:mod:`repro.db.shards`), every shard's chunks
are scored on the persistent worker pool, and a single bounded top-k
heap merges the results.

Determinism and fault guarantees match the serial scan exactly:

* **Chunk alignment** — shard boundaries fall on multiples of the
  streaming ``chunk_size``, so every pool task is one *serial* chunk
  and its fault-injection unit is the global chunk index.  Corruption
  decisions (and therefore ``corrupted_redone``) replay bit for bit.
* **Order-free merge** — heap entries are totally ordered by
  ``(score, -global index)``; the k largest under a total order do not
  depend on insertion order, so ties still resolve toward the earlier
  database record and the ranked hits are bit-identical to the serial
  scan whatever the worker count or completion order.
* **Double buffering** — shard *k* executes on the pool while the
  driver reads and encodes shard *k + 1*; at most two shards (plus the
  heap) are ever resident in the driver, which is what bounds peak
  memory by shard size rather than database size.

Resilience (this is the layer long scans ride on):

* **Self-healing execution** — worker deaths and hangs are absorbed by
  the pool (:class:`~repro.parallel.ProcessPoolBackend`): it heals,
  re-submits only the lost chunks, and quarantines poison chunks, so a
  mid-scan crash costs one heal, not the scan.
* **Deadlines** — an :attr:`SearchOptions.deadline` bounds the scan
  end-to-end; on expiry the driver cancels the in-flight shard and
  returns a typed :class:`~repro.search.PartialResult` whose hits are
  exactly the scan of the merged prefix (whole shards only).
* **Resumable scans** — with a ``journal`` path, the merge state is
  snapshotted after every shard (:class:`~repro.search.ScanJournal`);
  :meth:`resume` (or ``resume=True``) continues a crashed or
  deadline-killed scan from the last merged shard, producing output
  bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import threading
from itertools import islice

import numpy as np
from pathlib import Path
from typing import Iterable, Iterator

from ..core.engine import as_codes
from ..db.shards import Shard, ShardSpec, encode_record, iter_shards
from ..exceptions import DeadlineExceeded, PipelineError
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import get_tracer
from .api import SearchOptions
from .gcups import Stopwatch
from .journal import ScanJournal, ScanState, chain_record_digest
from .scan import ScanContext, TopK
from .streaming import PartialResult, StreamingResult, _StreamEntrypoints

__all__ = ["DEFAULT_SHARD_RESIDUES", "ShardedStreamingSearch"]

#: Default residue bound per shard — a few thousand typical protein
#: sequences: big enough to keep a small pool saturated, small enough
#: that two resident shards stay far below any realistic database.
DEFAULT_SHARD_RESIDUES = 1_000_000


class ShardedStreamingSearch(_StreamEntrypoints):
    """Out-of-core top-k scan executed on a persistent worker pool.

    Parameters
    ----------
    options:
        Shared :class:`~repro.search.SearchOptions`; ``chunk_size`` is
        the per-task record batch (identical meaning to the serial
        :class:`~repro.search.StreamingSearch`), ``top_k`` the hits
        retained (``0`` = scores-only accounting, no hits), and
        ``deadline`` (when set) bounds the scan end-to-end.  Only
        ``mode="exact"`` is accepted: a tiered scan prunes most of the
        stream before exact scoring and runs serially in
        :class:`~repro.search.StreamingSearch`.
    workers:
        Real worker processes scoring chunks concurrently.
    shard_residues, shard_records:
        Bounds of one shard (:class:`~repro.db.shards.ShardSpec`);
        defaults to :data:`DEFAULT_SHARD_RESIDUES` residues when
        neither is given.
    journal:
        Path for the scan journal.  When set, the merge state is
        snapshotted after every shard, a completed scan removes the
        file, and a :class:`~repro.search.PartialResult` points at it.
    resume:
        Continue from a matching journal instead of starting over
        (also available per-call via :meth:`resume`).  A journal whose
        fingerprint does not match this scan is ignored.
    chunk_timeout:
        Pool hang watchdog (seconds without any chunk completing);
        forwarded to :class:`~repro.parallel.ProcessPoolBackend`.
    max_heals, poison_threshold:
        Pool self-healing budget and poison-chunk quarantine bound;
        forwarded to the backend.
    metrics:
        Registry receiving ``streaming.*``, ``streaming.shard.*``,
        ``resume.*`` and ``deadline.*`` metrics (defaults to the
        process-wide one).

    The pool starts lazily on the first search (or via :meth:`start`)
    and persists across searches; :meth:`close` shuts it down.
    """

    def __init__(
        self,
        options: SearchOptions | None = None,
        *,
        workers: int,
        shard_residues: int | None = None,
        shard_records: int | None = None,
        journal: str | Path | None = None,
        resume: bool = False,
        chunk_timeout: float | None = None,
        max_heals: int = 8,
        poison_threshold: int = 3,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if int(workers) < 1:
            raise PipelineError(
                f"worker count must be positive, got {workers}"
            )
        opts = options if options is not None else SearchOptions()
        if opts.mode != "exact":
            raise PipelineError(
                f"the sharded scan is exhaustive; mode={opts.mode!r} runs "
                f"in StreamingSearch, which never pools a tiered scan"
            )
        self.options = opts
        # The serial streamed scan's engine comes from the same
        # resolution, so pooled and serial engines cannot drift apart.
        self.context = ScanContext.resolve(opts)
        self.chunk_size = opts.chunk_size
        self.workers = int(workers)
        if shard_residues is None and shard_records is None:
            shard_residues = DEFAULT_SHARD_RESIDUES
        self.spec = ShardSpec(
            max_residues=shard_residues, max_records=shard_records
        )
        self.journal = ScanJournal(journal) if journal is not None else None
        self.resume_enabled = bool(resume)
        self.chunk_timeout = chunk_timeout
        self.max_heals = max_heals
        self.poison_threshold = poison_threshold
        self.metrics = metrics if metrics is not None else METRICS
        self._backend = None
        # Guards the check-then-create in start(): two threads sharing a
        # fresh instance must not each build (and one leak) a pool.
        self._backend_lock = threading.Lock()

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Start (or return) the streaming worker pool.

        Raises :class:`~repro.exceptions.ParallelError` when the pool
        cannot come up — deliberately *before* any record is consumed,
        so callers can still fall back to the serial scan over the very
        same stream.
        """
        from ..parallel.backend import ProcessPoolBackend

        with self._backend_lock:
            if self._backend is None or self._backend.closed:
                self._backend = ProcessPoolBackend(
                    None,
                    workers=self.workers,
                    chunk_timeout=self.chunk_timeout,
                    max_heals=self.max_heals,
                    poison_threshold=self.poison_threshold,
                    metrics=self.metrics,
                )
            return self._backend

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        with self._backend_lock:
            backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "ShardedStreamingSearch":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # the sharded scan
    # ------------------------------------------------------------------
    def _read_shards(self, records: Iterable, tracer) -> Iterator[Shard]:
        """Yield shards, timing each read/encode leg (`shard.read`)."""
        source = iter_shards(
            records, self.spec,
            alphabet=self.context.alphabet, align_records=self.chunk_size,
        )
        while True:
            watch = Stopwatch()
            with tracer.span("shard.read") as sp, watch:
                shard = next(source, None)
                if sp and shard is not None:
                    sp.set_attributes(
                        shard=shard.shard_id,
                        records=shard.n_records,
                        residues=shard.residues,
                    )
            if shard is None:
                return
            self.metrics.increment("streaming.shard.count")
            self.metrics.increment("streaming.shard.records", shard.n_records)
            self.metrics.increment("streaming.shard.residues", shard.residues)
            self.metrics.observe("streaming.shard.read.seconds", watch.seconds)
            yield shard

    def _submit(self, backend, q, shard: Shard, deadline):
        """One pool task per serial chunk of ``shard`` (non-blocking)."""
        from ..parallel.worker import ChunkTask

        ctx = self.context
        injector = self.options.injector
        plan = injector.plan if injector is not None else None
        tasks = []
        for off in range(0, shard.n_records, self.chunk_size):
            base = shard.base_index + off
            unit = base // self.chunk_size  # global serial chunk index
            tasks.append(ChunkTask(
                chunk_id=unit,
                kind="stream",
                query=q,
                matrix=ctx.matrix,
                gaps=ctx.gaps,
                engine=ctx.engine_config,
                seqs=tuple(shard.sequences[off:off + self.chunk_size]),
                base_index=base,
                plan=plan,
                fault_unit_base=unit,
                deadline=deadline,
            ))
        return backend.submit_tasks_async(tasks), len(tasks)

    def _merge(
        self, backend, shard: Shard, futures, topk: TopK, tracer, deadline
    ) -> tuple:
        """Harvest ``shard``'s results and fold them into ``topk``."""
        watch = Stopwatch()
        with tracer.span("shard.score") as sp, watch:
            results = backend.collect(futures, deadline=deadline)
            if sp:
                sp.set_attributes(
                    shard=shard.shard_id, chunks=len(results),
                    workers=len({r.pid for r in results}),
                )
        self.metrics.observe("streaming.shard.score.seconds", watch.seconds)

        scanned = cells = redone = 0
        merge_watch = Stopwatch()
        with tracer.span("shard.merge") as sp, merge_watch:
            if sp:
                sp.set_attributes(shard=shard.shard_id)
            # collect() returns every chunk of the shard, in order.
            scores = np.zeros(shard.n_records, dtype=np.int64)
            for res in results:
                cells += res.cells
                redone += res.redone
                scanned += len(res.positions)
                scores[res.positions - shard.base_index] = res.scores
            topk.offer(
                scores, shard.base_index, shard.headers, shard.sequences
            )
        self.metrics.observe(
            "streaming.shard.merge.seconds", merge_watch.seconds
        )
        return scanned, cells, redone

    def _load_state(self, fingerprint: str | None, resume: bool) -> ScanState:
        """The resume snapshot when ``resume`` and matching, else fresh."""
        if self.journal is None or not resume or fingerprint is None:
            return ScanState()
        state = self.journal.load(fingerprint)
        if state is None:
            return ScanState()
        self.metrics.increment("resume.loaded")
        self.metrics.increment("resume.records_skipped", state.records_done)
        get_tracer().event(
            "resume.loaded", records_done=state.records_done,
            shards_merged=state.shards_merged,
        )
        return state

    def search_records(
        self,
        query,
        records: Iterable,
        *,
        query_name: str = "query",
        database_name: str = "<stream>",
        top_k: int | None = None,
        total_records: int | None = None,
        _resume: bool = False,
    ) -> StreamingResult:
        """Stream records through the pool; return the serial top-k.

        ``records`` may be :class:`~repro.db.fasta.FastaRecord` objects
        or ``(header, sequence)`` pairs (sequences as residue letters or
        encoded arrays).  Hits, tie order and ``corrupted_redone`` are
        bit-identical to :class:`~repro.search.StreamingSearch` over the
        same stream — including when the pool healed worker deaths
        mid-scan, and including a resumed scan continuing a journal.
        On deadline expiry a :class:`~repro.search.PartialResult` is
        returned instead (``total_records``, when known, gives it a
        completion fraction).  ``_resume`` turns resume on for this call
        only, leaving :attr:`resume_enabled` untouched (see :meth:`resume`).
        """
        ctx = self.context
        q = as_codes(query, ctx.alphabet)
        if top_k is None:
            top_k = self.options.top_k
        deadline = self.options.deadline
        injector = self.options.injector
        backend = self.start()
        fingerprint = None
        if self.journal is not None:
            fingerprint = ScanJournal.fingerprint(
                q,
                database_name=database_name,
                top_k=top_k,
                chunk_size=self.chunk_size,
                max_residues=self.spec.max_residues,
                max_records=self.spec.max_records,
                matrix=ctx.matrix,
                gaps=ctx.gaps,
                alphabet=ctx.alphabet,
                plan=injector.plan if injector is not None else None,
            )
        state = self._load_state(fingerprint, self.resume_enabled or _resume)
        resume_records = state.records_done
        resume_shards = state.shards_merged
        topk = TopK(top_k, state.heap_entries())
        records = iter(records)
        if resume_records:
            # Skip the journalled prefix, re-hashing it on the way: the
            # fingerprint keys the scan *parameters* but cannot see the
            # stream's content, so the chained record digest is what
            # proves this is the same stream the journal came from.
            consumed = 0
            digest = ""
            for item in islice(records, resume_records):
                header, codes = encode_record(item, ctx.alphabet)
                digest = chain_record_digest(digest, header, codes)
                consumed += 1
            if consumed < resume_records:
                raise PipelineError(
                    f"scan journal covers {resume_records} records but the "
                    f"stream only provided {consumed} — wrong stream for "
                    f"this journal"
                )
            if digest != state.prefix_digest:
                raise PipelineError(
                    f"scan journal prefix checksum does not match the "
                    f"first {resume_records} records of this stream — "
                    f"wrong stream for this journal"
                )
        watch = Stopwatch()
        tracer = get_tracer()
        expired = False

        with tracer.span("streaming.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, query_length=len(q),
                    database=database_name, chunk_size=self.chunk_size,
                    top_k=top_k, executor="sharded",
                    workers=self.workers,
                    shard_residues=self.spec.max_residues,
                    shard_records=self.spec.max_records,
                    resumed_records=resume_records,
                )

            def fold(done_shard, futures, n_tasks):
                s, c, r = self._merge(
                    backend, done_shard, futures, topk, tracer, deadline
                )
                state.scanned += s
                state.cells += c
                state.corrupted_redone += r
                state.chunks += n_tasks
                state.records_done += done_shard.n_records
                state.shards_merged += 1
                if self.journal is not None:
                    digest = state.prefix_digest
                    for header, codes in zip(
                        done_shard.headers, done_shard.sequences
                    ):
                        digest = chain_record_digest(digest, header, codes)
                    state.prefix_digest = digest
                    state.heap = ScanState.pack_heap(topk.entries)
                    self.journal.save(fingerprint, state)
                    self.metrics.increment("resume.saved")

            with watch:
                pending: tuple | None = None
                try:
                    # Double buffer: while shard k executes on the
                    # pool, the loop header reads/encodes shard k+1.
                    for shard in self._read_shards(records, tracer):
                        # Rebase a resumed stream to global
                        # coordinates: record indices, shard ids and
                        # fault units must match the uninterrupted
                        # scan exactly.
                        shard.shard_id += resume_shards
                        shard.base_index += resume_records
                        if pending is not None:
                            fold(*pending)
                        if deadline is not None:
                            deadline.check("shard submission")
                        futures, n_tasks = self._submit(
                            backend, q, shard, deadline
                        )
                        pending = (shard, futures, n_tasks)
                    if pending is not None:
                        fold(*pending)
                except DeadlineExceeded:
                    expired = True
                    if pending is not None:
                        backend.cancel(pending[1])

            if state.scanned == 0 and not expired:
                raise PipelineError("the record stream was empty")
            if root:
                root.set_attributes(
                    chunks=state.chunks, sequences=state.scanned,
                    shards=state.shards_merged, partial=expired,
                )
            self.metrics.increment("streaming.searches")
            self.metrics.increment("streaming.chunks", state.chunks)
            self.metrics.observe("streaming.search.seconds", watch.seconds)
            common = dict(
                query_name=query_name,
                query_length=len(q),
                hits=topk.hits(),
                sequences_scanned=state.scanned,
                cells=state.cells,
                chunks=state.chunks,
                wall_seconds=watch.seconds,
                corrupted_redone=state.corrupted_redone,
                database_name=database_name,
            )
            if expired:
                self.metrics.increment("deadline.partial")
                tracer.event(
                    "deadline.expired", where="streaming.sharded",
                    scanned=state.scanned,
                    shards_merged=state.shards_merged,
                )
                return PartialResult(
                    **common,
                    total_records=total_records,
                    shards_merged=state.shards_merged,
                    journal_path=(
                        str(self.journal.path)
                        if self.journal is not None else None
                    ),
                )
            if self.journal is not None:
                self.journal.clear()
            return StreamingResult(**common)

    def resume(
        self,
        query,
        records: Iterable,
        **kwargs,
    ) -> StreamingResult:
        """Continue a journalled scan over the same stream.

        Equivalent to :meth:`search_records` with resume forced on for
        this one call: the journal's merged prefix is skipped and the
        scan continues from the last merged shard.  The final result is
        bit-identical to an uninterrupted run.  Requires a ``journal``
        path; a missing or mismatching journal simply scans from the
        start.
        """
        if self.journal is None:
            raise PipelineError(
                "resume() requires this search to be built with a "
                "journal path"
            )
        return self.search_records(query, records, _resume=True, **kwargs)
