"""Smoke tests for the performance ledger.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from inputs import WORKLOADS, write_inputs
from layers import LEDGER, ROOT, WORK

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture
def workdir():
    path = WORK / f"test-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--seed", "3",
         "--size", "tiny", "--seconds", "1", "--trace", str(trace)]
        + [arg for w in WORKLOADS for arg in ("--workload", w)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    expected = {
        f"{w}/{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]
    }
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == expected


def test_wrong_score_is_counted_and_fails(monkeypatch, workdir, capsys):
    import repro.search.pipeline as pipeline
    import workloads

    search = pipeline.SearchPipeline.search

    def corrupted(self, *args, **kwargs):
        result = search(self, *args, **kwargs)
        hits = list(result.hits)
        hits[0] = dataclasses.replace(hits[0], score=hits[0].score + 1)
        return dataclasses.replace(result, hits=hits)

    monkeypatch.setattr(pipeline.SearchPipeline, "search", corrupted)
    write_inputs("scan-exact", 3, "tiny", workdir)
    code = workloads.main([
        "--workload", "scan-exact", "--inputs", str(workdir),
        "--seconds", "0.5",
    ])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert record["correct"] is False
    assert record["failed"] / record["attempted"] > 0


def test_failing_searches_are_counted_not_fatal(monkeypatch, workdir, capsys):
    import repro.search.pipeline as pipeline
    import run
    import workloads

    warmed = []

    def failing(self, *args, **kwargs):
        if not warmed:  # let the warm-up through, fail every timed search
            warmed.append(True)
            return search(self, *args, **kwargs)
        raise RuntimeError("injected failure")

    search = pipeline.SearchPipeline.search
    monkeypatch.setattr(pipeline.SearchPipeline, "search", failing)
    write_inputs("scan-exact", 3, "tiny", workdir)
    code = workloads.main([
        "--workload", "scan-exact", "--inputs", str(workdir),
        "--seconds", "0.5",
    ])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert record["failed"] == record["attempted"] > 0
    combined = run.combine("scan-exact", [dict(record, exit_code=code)])
    assert combined["correct"] is False
    assert combined["metrics"]["latency_p50_ms"]["value"] is None
    assert "latency_p50_ms" in run.report(combined, SimpleNamespace(
        seed=3, seconds=0.5, trace=0))


def test_inputs_follow_the_seed(workdir):
    def digests(seed, sub):
        out = {}
        for w in WORKLOADS:
            out.update(write_inputs(w, seed, "tiny", workdir / sub))
        return out

    first = digests(7, "a")
    assert digests(7, "b") == first
    other = digests(8, "c")
    assert all(other[name] != digest for name, digest in first.items())
