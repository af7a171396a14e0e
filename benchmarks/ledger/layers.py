"""Timing helpers and the per-layer numbers of the ledger's traced run.

Per-layer numbers come from two sources, both recorded as spans in one
:class:`repro.obs.Tracer`:

* the benchmark's own ``ledger.<workload>.<op>`` spans around direct
  calls into each layer's public functions (:func:`probe_layers`);
* the spans the program emits under the benchmark's per-operation root
  span ``ledger.<workload>.<root>``, aggregated by role into self time
  (:func:`span_shares`).

Every per-layer metric is measured on every workload and is nonzero on
each, so none reads a placeholder.  The per-stage spans behind a share
(``tiered.seed``, ``pipeline.rank``, ...) stay in the Chrome trace.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
WORK = LEDGER / ".work"

#: Program spans whose self time is the exact DP kernel at work (the
#: streamed chunk includes encoding its records).
KERNEL_SPANS = {"pipeline.score", "streaming.chunk", "tiered.rescore"}
#: The other program spans of the search path.  The rest of an
#: operation (client, HTTP, server, service, cache, the benchmark's own
#: call, work before a path opens its span) is outside it.
SEARCH_SPANS = {
    "pipeline.search", "pipeline.preprocess", "pipeline.rank",
    "streaming.search", "tiered.search", "tiered.seed", "tiered.verify",
}


def passes(
    fn: Callable[[], object], seconds: float, min_calls: int = 1
) -> list[float]:
    """Wall seconds per call of ``fn``, calling it for about ``seconds``.

    A call starts only if, at the median call time so far, it should
    end in time; at least ``min_calls`` calls are made.
    """
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < min_calls or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        t = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t)
    return walls


def summary(unit: str, samples) -> dict:
    """A metric entry: median of ``samples``, unit, IQR and count.

    With no samples (every operation failed) the value is ``None``.
    """
    samples = [float(x) for x in samples]
    if not samples:
        return {"value": None, "unit": unit, "iqr": None, "n": 0}
    quartiles = (
        statistics.quantiles(samples, n=4) if len(samples) > 1
        else samples * 3
    )
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "iqr": quartiles[2] - quartiles[0],
        "n": len(samples),
    }


def probe_layers(
    tracer, workload: str, fasta: Path, lanes: int, query: str, outcome,
    seconds: float,
) -> dict[str, float]:
    """Direct calls into the db, core and wire layers on a workload's data.

    Each probe repeats for a quarter of ``seconds`` (at least twice),
    every call inside a span ``ledger.<workload>.<probe>``.
    """
    from repro.core.vectorized import make_intertask_engine
    from repro.db import SequenceDatabase, preprocess_database, read_fasta
    from repro.scoring import GapModel, get_matrix
    from repro.search import SearchRequest
    from repro.serve import wire

    db = SequenceDatabase.from_fasta(fasta)
    matrix, gaps = get_matrix("BLOSUM62"), GapModel(10, 2)
    engine = make_intertask_engine("numpy", lanes=lanes)
    request = SearchRequest(query=query, name="probe")
    wire_reps = 100

    def roundtrip() -> None:
        for _ in range(wire_reps):
            wire.decode_request(json.loads(json.dumps(
                wire.encode_request(request))))
            wire.decode_outcome(json.loads(json.dumps(
                wire.encode_outcome(outcome))))

    probes = {
        "fasta_read": lambda: list(read_fasta(fasta)),
        "preprocess": lambda: preprocess_database(db, lanes=lanes),
        "kernel": lambda: engine.score_batch(query, db.sequences,
                                             matrix, gaps),
        "wire": roundtrip,
    }
    median = {}
    for name, fn in probes.items():
        def call(name=name, fn=fn) -> None:
            with tracer.span(f"ledger.{workload}.{name}"):
                fn()
        median[name] = statistics.median(passes(call, seconds / 4, 2))
    return {
        "db.fasta_read_ms": median["fasta_read"] * 1e3,
        "db.preprocess_ms": median["preprocess"] * 1e3,
        "core.kernel_gcups":
            len(query) * db.total_residues / median["kernel"] / 1e9,
        "serve.wire_roundtrip_us": median["wire"] / wire_reps * 1e6,
    }


def span_shares(spans, root: str) -> dict[str, float]:
    """Shares of the wall time of every span named ``root``.

    ``search.kernel_share``, ``search.other_share`` and
    ``search.outside_share`` split the roots' time by the role of each
    span's self time and add up to one; the outside share holds the
    serving layers and whatever no program span covers.
    ``trace.coverage`` is the share covered by the program's spans
    directly below the roots.
    """
    finished = [s for s in spans if s.finished]
    children: dict[int, list] = defaultdict(list)
    for s in finished:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    roots = [s for s in finished if s.name == root]
    total = sum(s.wall_seconds for s in roots)
    covered = sum(c.wall_seconds for r in roots for c in children[r.span_id])
    by_role: dict[str, float] = defaultdict(float)
    frontier = list(roots)
    while frontier:
        span = frontier.pop()
        below = children[span.span_id]
        role = (
            "kernel" if span.name in KERNEL_SPANS
            else "search" if span.name in SEARCH_SPANS else "outside"
        )
        by_role[role] += span.wall_seconds - sum(
            c.wall_seconds for c in below
        )
        frontier.extend(below)
    return {
        "search.kernel_share": by_role["kernel"] / total,
        "search.other_share": by_role["search"] / total,
        "search.outside_share": by_role["outside"] / total,
        "trace.coverage": covered / total,
    }


def export_trace(tracer, workload: str) -> tuple[Path, bool]:
    """Write the Chrome trace and check it with ``tools/validate_trace.py``."""
    from repro.obs import write_chrome_trace

    path = WORK / "traces" / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(tracer.collector, path,
                       metadata={"workload": workload, "time": time.time()})
    check = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "validate_trace.py"), str(path)],
        capture_output=True, text=True, timeout=60,
    )
    if check.returncode != 0:
        print(check.stdout + check.stderr, file=sys.stderr)
    return path, check.returncode == 0
