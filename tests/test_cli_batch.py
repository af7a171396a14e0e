"""``repro batch`` and ``repro trace`` across the three schedulers.

``--scheduler local`` serves through :class:`repro.SearchService`;
``static`` and ``queue`` run the paper's modelled host/coprocessor split
through :class:`repro.HybridSearchPipeline`.  Every route reports the
best scores :class:`repro.SearchPipeline` computes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.db import PAPER_QUERIES, SyntheticSwissProt, make_query_set
from repro.search import SearchOptions, SearchPipeline

SCALE = "0.0001"
BATCH = ["--synthetic-scale", SCALE, "--queries", "2", "--chunks", "4"]
VALIDATE_TRACE = (
    Path(__file__).resolve().parent.parent / "tools" / "validate_trace.py"
)


@pytest.fixture(scope="module")
def expected() -> dict[str, int]:
    db = SyntheticSwissProt().generate(scale=float(SCALE))
    specs = PAPER_QUERIES[:2]
    queries = make_query_set(specs)
    pipe = SearchPipeline(SearchOptions(top_k=5))
    return {
        s.accession: pipe.search(queries[s.accession], db).best_score()
        for s in specs
    }


def best_scores(stdout: str) -> dict[str, int]:
    """The per-request ``best`` column of the batch summary."""
    return {
        m.group(1): int(m.group(2))
        for m in re.finditer(r"^\s+(\S+)\s+best\s+(\d+)", stdout, re.M)
    }


def rate_labels(stdout: str) -> set[str]:
    """The throughput labels that end the batch summary's lines."""
    return set(re.findall(
        r"^\s+\S+\s+best\s+\d+.*\d ((?:modelled )?GCUPS)$", stdout, re.M
    ))


@pytest.mark.parametrize("scheduler", ["local", "static", "queue"])
def test_batch_best_scores_match_pipeline(capsys, expected, scheduler):
    code = main(["batch", "--scheduler", scheduler, *BATCH])
    out = capsys.readouterr().out
    assert code == 0
    assert f"with the {scheduler!r} scheduler" in out
    assert best_scores(out) == expected
    # Wall and modelled throughput never share a label.
    assert rate_labels(out) == (
        {"GCUPS"} if scheduler == "local" else {"modelled GCUPS"}
    )


def test_batch_queue_drains_on_a_worker_pool(capsys, expected):
    code = main([
        "batch", "--scheduler", "queue", "--workers", "2", "--metrics",
        *BATCH,
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert best_scores(out) == expected
    assert "modelled makespan: dynamic queue" in out
    assert re.search(r"^\s+parallel\.chunks\s+[1-9]", out, re.M), out
    assert "parallel.fallback" not in out


def test_batch_static_rejects_workers(capsys):
    code = main(["batch", "--scheduler", "static", "--workers", "2", *BATCH])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "static" in err


def test_trace_queue_exports_a_valid_chrome_trace(capsys, tmp_path):
    path = tmp_path / "trace.json"
    code = main(["trace", "--scheduler", "queue", *BATCH,
                 "--output", str(path)])
    assert code == 0
    assert "'queue' scheduler" in capsys.readouterr().out
    check = subprocess.run(
        [sys.executable, str(VALIDATE_TRACE), str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert check.returncode == 0, check.stderr
    names = {e.get("name") for e in json.loads(path.read_text())["traceEvents"]}
    assert {"queue.search", "queue.plan", "queue.chunk"} <= names
