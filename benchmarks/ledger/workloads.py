"""One segment of a ledger workload in a fresh process: set up, measure, check.

``run.py`` starts this several times per workload, one process per
segment, and reads the JSON record it prints as its last stdout line::

    python benchmarks/ledger/workloads.py --workload scan-exact \\
        --inputs DIR --seconds 5 --segment 0 --trace 0

Set-up is timed from the top of this module, before numpy or repro is
imported, to the end of the first (warm-up) operation; for serve-mixed
it runs from the server's spawn to its first answer.  The record holds
the segment's value of each end-to-end metric (``None`` when no
operation succeeded); ``run.py`` combines the segments.  Every output
is checked after the timed region, so a fast wrong program fails
instead of winning.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

# Imports follow T0 on purpose: importing the program is set-up work.
import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro.core import ScanEngine  # noqa: E402
from repro.db import SequenceDatabase  # noqa: E402
from repro.metrics import MetricsRegistry  # noqa: E402
from repro.obs import Tracer, use_tracer  # noqa: E402
from repro.scoring import GapModel, get_matrix  # noqa: E402
from repro.search import (  # noqa: E402
    SearchOptions,
    SearchPipeline,
    SearchRequest,
    StreamingSearch,
)
from repro.serve import SearchClient  # noqa: E402

from inputs import SERVE_CYCLE, WORKLOADS  # noqa: E402
from layers import export_trace, passes, probe_layers, span_shares  # noqa: E402

#: Phase-B (open loop) Poisson arrival rate of serve-mixed, about a
#: fifth of phase A's capacity at the commit that introduced the ledger:
#: queueing amplifies the host's speed drift into latency.  Arrival
#: times come from a fixed stream per segment, like the database
#: lengths, so seeds differ only in residues.
SERVE_RATE_RPS = 36.0
ARRIVALS_SEED = 99
SERVE_CLIENTS = 2
#: serve-mixed checks every this-many-th answer against a local search.
CHECK_EVERY = 20
#: Share of a serve-mixed segment spent in phase A (the rest is B).
PHASE_A_SHARE = 0.25
#: Shares of ``--seconds`` the traced run spends untraced and traced
#: (the rest goes to the layer probes).
UNTRACED_SHARE = TRACED_SHARE = 0.4

SCAN_LANES = 128  # the numpy kernel's library default
SERVE_LANES = 8   # what `repro serve` runs without --lanes

LAYER_UNITS = {
    "db.fasta_read_ms": "ms",
    "db.preprocess_ms": "ms",
    "core.kernel_gcups": "GCUPS",
    "serve.wire_roundtrip_us": "us",
}


def options(lanes: int, **extra) -> SearchOptions:
    """Pinned search semantics: a changed default cannot move a workload."""
    return SearchOptions(
        matrix=get_matrix("BLOSUM62"), gaps=GapModel(10, 2), kernel="numpy",
        lanes=lanes, profile="sequence", top_k=10, **extra,
    )


def hits_of(result) -> list[list[int]]:
    return [[h.index, h.score] for h in result.hits]


def ranked(hits: list[list[int]]) -> bool:
    """Descending score, ties toward the earlier record."""
    return hits == sorted(hits, key=lambda h: (-h[1], h[0]))


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(samples: list[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when every operation failed."""
    return float(np.percentile(samples, q)) if samples else None


def gcups(cells: int, walls: list[float], tally: "Tally") -> float | None:
    """Median GCUPS over the passes that each did ``cells`` cells.

    A segment in which an operation failed did less work than ``cells``
    says, so it gives no throughput.
    """
    if tally.failed:
        return None
    return statistics.median(cells / w / 1e9 for w in walls)


class Tally:
    """Operations attempted, failed (raised) and wrong (bad output)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = self.failed = self.wrong = 0

    def error(self, exc: Exception) -> None:
        with self.lock:
            self.failed += 1
            first = self.failed == 1
        if first:
            print(f"operation failed: {exc!r}", file=sys.stderr)


class Scan:
    """scan-exact, scan-tiered and stream-fasta: three queries per pass."""

    def __init__(self, name: str, inputs: Path) -> None:
        self.name = name
        self.fasta = inputs / f"{name}.fasta"
        meta = json.loads((inputs / f"{name}.json").read_text("utf-8"))
        self.queries = [tuple(q) for q in meta["queries"]]
        self.planted = [tuple(p) for p in meta["planted"]]
        self.warmup = meta["warmup"]
        self.probe_query = min((q for _, q in self.queries), key=len)
        self.longest = max(self.queries, key=lambda q: len(q[1]))[0]
        self.tally = Tally()
        self.outputs: dict[str, list] = {n: [] for n, _ in self.queries}
        self.latency: dict[str, list[float]] = {n: [] for n, _ in self.queries}
        self.db: SequenceDatabase | None = None

    def setup(self):
        """Build the searcher and run the warm-up query (sets ``setup_s``)."""
        if self.name == "stream-fasta":
            stream = StreamingSearch(options(SCAN_LANES, chunk_size=256))
            self.search = lambda q, name: stream.search_fasta(
                q, self.fasta, query_name=name)
        else:
            self.db = SequenceDatabase.from_fasta(self.fasta)
            mode = "sensitive" if self.name == "scan-tiered" else "exact"
            pipe = SearchPipeline(options(SCAN_LANES, mode=mode))
            self.search = lambda q, name: pipe.search(
                q, self.db, query_name=name)
        warm = self.search(self.warmup, "warmup")
        self.setup_s = time.perf_counter() - T0
        return warm

    def run_pass(self, tracer=None) -> None:
        for name, query in self.queries:
            self.tally.attempted += 1
            scope = (
                tracer.span(f"ledger.{self.name}.search", query=name)
                if tracer is not None else nullcontext()
            )
            t = time.perf_counter()
            try:
                with scope:
                    result = self.search(query, name)
            except Exception as exc:  # counted in `failed`, run continues
                self.tally.error(exc)
                continue
            self.latency[name].append(time.perf_counter() - t)
            self.outputs[name].append(hits_of(result))

    def resident(self) -> SequenceDatabase:
        if self.db is None:
            self.db = SequenceDatabase.from_fasta(self.fasta)
        return self.db

    def reference(self) -> dict[str, list]:
        """stream-fasta's oracle: the resident pipeline's top-10 per query.

        Computed by the first segment of a run and kept next to the
        inputs for the others.
        """
        path = self.fasta.with_suffix(".expected.json")
        if path.exists():
            return json.loads(path.read_text("utf-8"))
        pipe = SearchPipeline(options(SCAN_LANES))
        expected = {
            name: hits_of(pipe.search(query, self.resident()))
            for name, query in self.queries
        }
        path.write_text(json.dumps(expected), encoding="utf-8")
        return expected

    def check(self) -> tuple[bool, float]:
        """Count wrong outputs; returns (recall floor met, recall@10).

        scan-exact: the top-3 hits rescored by the independent
        ScanEngine; scan-tiered: every hit.  Both must be ranked, and
        every later output must equal the checked first one.
        stream-fasta: every output must equal the resident pipeline's
        top-10 (index, score, order).
        """
        db = self.resident()
        matrix, gaps = get_matrix("BLOSUM62"), GapModel(10, 2)
        scan = ScanEngine()
        reference = self.reference() if self.name == "stream-fasta" else {}
        found = 0
        for name, query in self.queries:
            outs = self.outputs[name]
            if not outs:
                continue
            expected = reference.get(name, outs[0])
            if self.name != "stream-fasta":
                rescored = (
                    expected if self.name == "scan-tiered" else expected[:3]
                )
                if not ranked(expected) or any(
                    scan.score_pair(query, db.sequences[i], matrix, gaps).score
                    != score for i, score in rescored
                ):
                    expected = None
            self.tally.wrong += sum(out != expected for out in outs)
            top = {i for i, _ in outs[0]}
            found += sum(p == name and i in top for p, i in self.planted)
        recall = found / len(self.planted)
        floor = 0.95 if self.name == "scan-tiered" else 1.0
        return recall >= floor, recall

    # ------------------------------------------------------------------
    def measure(self, seconds: float, segment: int):
        walls = passes(self.run_pass, seconds)
        rss = peak_rss_mb()
        ok, recall = self.check()
        cells = (sum(len(q) for _, q in self.queries)
                 * self.resident().total_residues)
        latency = [x * 1e3 for v in self.latency.values() for x in v]
        values = {
            "search_gcups": gcups(cells, walls, self.tally),
            "latency_p50_ms": percentile(latency, 50),
            "latency_tail_ms": percentile(
                [x * 1e3 for x in self.latency[self.longest]], 50),
            "peak_rss_mb": rss,
        }
        return values, ok, {"recall_at_10": recall, "latency_ms": latency}

    def traced(self, seconds: float, warm):
        tracer = Tracer()
        layer = probe_layers(
            tracer, self.name, self.fasta, SCAN_LANES, self.probe_query, warm,
            (1.0 - UNTRACED_SHARE - TRACED_SHARE) * seconds)
        untraced = passes(self.run_pass, UNTRACED_SHARE * seconds)
        with use_tracer(tracer):
            traced = passes(lambda: self.run_pass(tracer),
                            TRACED_SHARE * seconds)
        ok, recall = self.check()
        layer.update(span_shares(tracer.collector.spans(),
                                 f"ledger.{self.name}.search"))
        layer["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced))
        path, valid = export_trace(tracer, self.name)
        return layer, ok and valid, {
            "recall_at_10": recall, "trace": str(path), "trace_valid": valid}

    def close(self) -> None:
        pass


class Serve:
    """serve-mixed: a ``repro serve`` subprocess, two client threads."""

    name = "serve-mixed"

    def __init__(self, inputs: Path) -> None:
        self.fasta = inputs / "serve-mixed.fasta"
        meta = json.loads((inputs / "serve-mixed.json").read_text("utf-8"))
        self.pool: list[str] = meta["pool"]
        self.warmup: str = meta["warmup"]
        self.probe_query = next(q for q in self.pool if len(q) == 60)
        self.tally = Tally()
        self.sent = 0
        self.sampled: list[tuple[int, list]] = []
        self.proc: subprocess.Popen | None = None

    def setup(self):
        """Spawn the server; set-up ends with its first answer."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--db-fasta", str(self.fasta), "--port", "0",
             "--kernel", "numpy", "--lanes", str(SERVE_LANES),
             "--matrix", "BLOSUM62", "--gap-open", "10", "--gap-extend", "2",
             "--profile", "sequence", "--mode", "exact", "--top", "10"],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        found = re.search(r"at (http://\S+)", line)
        if found is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.clients = [
            SearchClient(found.group(1), options=options(SERVE_LANES),
                         metrics=MetricsRegistry())
            for _ in range(SERVE_CLIENTS)
        ]
        warm = self.clients[0].search(
            SearchRequest(query=self.warmup, name="warmup"))
        self.setup_s = time.perf_counter() - start
        return warm

    def claim(self, until: int | None = None) -> int | None:
        """The next request number (``None`` once ``until`` is reached)."""
        with self.tally.lock:
            if until is not None and self.sent >= until:
                return None
            self.sent += 1
            self.tally.attempted += 1
            return self.sent - 1

    def request(self, client: SearchClient, k: int, tracer=None) -> bool:
        """Send request ``k`` (pool query ``k``); False when it failed."""
        query = self.pool[k % len(self.pool)]
        scope = (
            tracer.span("ledger.serve-mixed.request")
            if tracer is not None else nullcontext()
        )
        try:
            with scope:
                result = client.search(
                    SearchRequest(query=query, name=f"r{k}"))
        except Exception as exc:  # counted in `failed`, load continues
            self.tally.error(exc)
            return False
        if k % CHECK_EVERY == 0:
            with self.tally.lock:
                self.sampled.append((k % len(self.pool), hits_of(result)))
        return True

    def _threads(self, target) -> None:
        threads = [
            threading.Thread(target=target, args=(client,))
            for client in self.clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def batch(self, tracer=None) -> None:
        """One pool cycle (the exact query mix), both clients back to back."""
        end = self.sent + len(SERVE_CYCLE)

        def drive(client: SearchClient) -> None:
            while (k := self.claim(end)) is not None:
                self.request(client, k, tracer)

        self._threads(drive)

    def open_loop(
        self, seconds: float, rng: np.random.Generator
    ) -> list[tuple[float, float]]:
        """Poisson arrivals at SERVE_RATE_RPS for ``seconds``.

        Returns (latency from the due time, send lateness) per answered
        request.
        """
        gaps = rng.exponential(
            1.0 / SERVE_RATE_RPS, size=int(SERVE_RATE_RPS * seconds * 2) + 16)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        answered: list[tuple[float, float]] = []
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter()

        def drive(client: SearchClient) -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(due):
                    return
                target = start + due[i]
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if self.request(client, self.claim()):
                    done = time.perf_counter()
                    with lock:
                        answered.append((done - target, sent - target))

        self._threads(drive)
        return answered

    def close(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0.0
        proc.terminate()
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def check(self) -> None:
        """Every sampled answer must equal the resident pipeline's top-10."""
        db = SequenceDatabase.from_fasta(self.fasta)
        pipe = SearchPipeline(options(SERVE_LANES))
        expected: dict[int, list] = {}
        for k, hits in self.sampled:
            if k not in expected:
                expected[k] = hits_of(pipe.search(self.pool[k], db))
            self.tally.wrong += hits != expected[k]

    def server_counters(self) -> dict:
        snap = self.clients[0].server_metrics()
        hits = snap.get("service.preprocess_cache.hits", 0)
        misses = snap.get("service.preprocess_cache.misses", 0)
        return {
            "cache_hit_ratio": hits / max(hits + misses, 1),
            "server_shed": snap.get("serve.shed", 0),
            "server_errors": snap.get("serve.errors", 0),
        }

    # ------------------------------------------------------------------
    def measure(self, seconds: float, segment: int):
        walls = passes(self.batch, PHASE_A_SHARE * seconds)
        answered = self.open_loop(
            (1.0 - PHASE_A_SHARE) * seconds,
            np.random.default_rng([ARRIVALS_SEED, segment]))
        counters = self.server_counters()
        rss = self.close()
        self.check()
        cells = sum(SERVE_CYCLE) * SequenceDatabase.from_fasta(
            self.fasta).total_residues
        latency = [due * 1e3 for due, _ in answered]
        values = {
            "search_gcups": gcups(cells, walls, self.tally),
            "latency_p50_ms": percentile(latency, 50),
            # The highest percentile with at least ten samples beyond it
            # in a segment's ~140 phase-B requests.
            "latency_tail_ms": percentile(latency, 90),
            "peak_rss_mb": rss,
        }
        return values, True, {
            **counters,
            "capacity_qps": [len(SERVE_CYCLE) / w for w in walls],
            "latency_ms": latency,
            "late_ms": [late * 1e3 for _, late in answered],
        }

    def traced(self, seconds: float, warm):
        tracer = Tracer()
        layer = probe_layers(
            tracer, self.name, self.fasta, SERVE_LANES, self.probe_query, warm,
            (1.0 - UNTRACED_SHARE - TRACED_SHARE) * seconds)
        untraced = passes(self.batch, UNTRACED_SHARE * seconds)
        with use_tracer(tracer):
            traced = passes(lambda: self.batch(tracer), TRACED_SHARE * seconds)
        counters = self.server_counters()
        self.close()
        self.check()
        layer.update(span_shares(tracer.collector.spans(),
                                 "ledger.serve-mixed.request"))
        layer["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced))
        path, valid = export_trace(tracer, self.name)
        return layer, valid, {
            **counters, "trace": str(path), "trace_valid": valid}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--segment", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = (
        Serve(args.inputs) if args.workload == "serve-mixed"
        else Scan(args.workload, args.inputs)
    )
    try:
        warm = work.setup()
        if args.trace:
            values, ok, checks = work.traced(args.seconds, warm)
            body = {"metrics": {
                name: {"value": value, "unit": LAYER_UNITS.get(name, "ratio")}
                for name, value in values.items()
            }}
        else:
            values, ok, checks = work.measure(args.seconds, args.segment)
            body = {"values": values}
    finally:
        work.close()
    tally = work.tally
    record = {
        "workload": args.workload,
        "correct": ok and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed + tally.wrong,
        "wrong": tally.wrong,
        "setup_s": work.setup_s,
        **body,
        "checks": checks,
    }
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
