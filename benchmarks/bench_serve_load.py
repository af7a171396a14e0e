"""Load harness for the serving layer: skewed queries, shed accounting.

Drives a live :class:`~repro.serve.SearchServer` (ephemeral port, tiny
synthetic database) with a pool of concurrent clients issuing a
*skewed* query mix — mostly short queries with a heavy tail of long
ones, the shape a real service sees — against a deliberately small
admission cap, then reports:

- client-observed latency percentiles (p50 / p95 / p99) for the
  requests that were served,
- the shed count (HTTP 429 -> :class:`ServiceOverloaded`) and the
  server's own ``serve.*`` instruments, which must agree,
- throughput over the wall-clock run.

The cap is chosen so the opening volley alone overflows admission:
a correct load-shed path *must* produce a non-zero shed count here,
and the pytest entry point asserts it.

Runs as a plain pytest test and as a script::

    PYTHONPATH=src python benchmarks/bench_serve_load.py
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.db import SyntheticSwissProt
from repro.exceptions import ServiceOverloaded
from repro.metrics import MetricsRegistry
from repro.search import SearchRequest
from repro.serve import SearchClient, SearchServer

DB_SCALE = 0.0001
MAX_INFLIGHT = 2
CLIENT_THREADS = 8
REQUESTS_PER_CLIENT = 12
SEED = 29

#: The skewed mix: (query length, weight).  80% short lookups, a 5%
#: tail of long queries that hold the service ~10x longer.
QUERY_MIX = [(15, 0.80), (60, 0.15), (200, 0.05)]


def make_queries(rng: np.random.Generator, count: int) -> list[str]:
    """Draw ``count`` random protein queries from the skewed mix."""
    letters = np.array(list("ACDEFGHIKLMNPQRSTVWY"))
    lengths = rng.choice(
        [length for length, _ in QUERY_MIX],
        size=count,
        p=[weight for _, weight in QUERY_MIX],
    )
    return [
        "".join(rng.choice(letters, size=int(length))) for length in lengths
    ]


def drive(url: str, queries: list[str], latencies: list[float],
          outcomes: dict, lock: threading.Lock) -> None:
    """One client worker: fire every query, record latency or shed."""
    client = SearchClient(url, metrics=MetricsRegistry())
    for query in queries:
        t0 = time.perf_counter()
        try:
            result = client.search(SearchRequest(query=query))
            elapsed = time.perf_counter() - t0
            with lock:
                latencies.append(elapsed)
                outcomes["served"] += 1
                outcomes["best_scores"].append(result.best_score())
        except ServiceOverloaded:
            with lock:
                outcomes["shed"] += 1


def run_load(
    *,
    threads: int = CLIENT_THREADS,
    per_client: int = REQUESTS_PER_CLIENT,
    max_inflight: int = MAX_INFLIGHT,
    seed: int = SEED,
) -> dict:
    """Run the harness; returns the report dict (also printed by main)."""
    rng = np.random.default_rng(seed)
    db = SyntheticSwissProt().generate(scale=DB_SCALE)
    server_metrics = MetricsRegistry()
    latencies: list[float] = []
    outcomes = {"served": 0, "shed": 0, "best_scores": []}
    lock = threading.Lock()

    with SearchServer(
        db, max_inflight=max_inflight, metrics=server_metrics
    ) as server:
        workers = [
            threading.Thread(
                target=drive,
                args=(server.url, make_queries(rng, per_client),
                      latencies, outcomes, lock),
            )
            for _ in range(threads)
        ]
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wall = time.perf_counter() - t0
        snapshot = server_metrics.snapshot()

    lat = np.asarray(sorted(latencies))
    total = threads * per_client
    return {
        "total": total,
        "served": outcomes["served"],
        "shed": outcomes["shed"],
        "wall_seconds": wall,
        "rps": outcomes["served"] / wall if wall > 0 else 0.0,
        "p50": float(np.percentile(lat, 50)) if lat.size else 0.0,
        "p95": float(np.percentile(lat, 95)) if lat.size else 0.0,
        "p99": float(np.percentile(lat, 99)) if lat.size else 0.0,
        "server_shed": snapshot.get("serve.shed", 0),
        "server_requests": snapshot.get("serve.requests", 0),
        "server_errors": snapshot.get("serve.errors", 0),
    }


def report(stats: dict) -> str:
    return "\n".join([
        f"serve load: {stats['total']} requests from "
        f"{CLIENT_THREADS} concurrent clients "
        f"(max_inflight={MAX_INFLIGHT}, skewed mix "
        + "/".join(f"{l}aa@{w:.0%}" for l, w in QUERY_MIX) + ")",
        f"  served: {stats['served']}  shed: {stats['shed']} "
        f"(server counted {stats['server_shed']})",
        f"  wall: {stats['wall_seconds']:.2f}s "
        f"({stats['rps']:.1f} served req/s)",
        f"  latency p50={stats['p50'] * 1e3:.1f}ms  "
        f"p95={stats['p95'] * 1e3:.1f}ms  "
        f"p99={stats['p99'] * 1e3:.1f}ms",
    ])


def test_load_shed_and_percentiles():
    """Capped overload serves correctly, sheds visibly, reports tails."""
    stats = run_load()
    assert stats["served"] + stats["shed"] == stats["total"]
    # Every served answer scored something against the database.
    assert stats["served"] > 0
    # 8 clients against an admission cap of 2: the opening volley alone
    # must overflow — a zero shed count means admission control is off.
    assert stats["shed"] > 0
    assert stats["server_shed"] == stats["shed"]
    assert 0.0 < stats["p50"] <= stats["p95"] <= stats["p99"]


if __name__ == "__main__":
    print(report(run_load()))
