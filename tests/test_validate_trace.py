"""``tools/validate_trace.py`` on real exports, run as a script."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.obs import Tracer, write_chrome_trace

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "validate_trace.py"


def run(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(path)],
        capture_output=True, text=True, timeout=60,
    )


def test_real_export_valid_and_missing_phase_invalid(tmp_path):
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.event("tick")
    good = tmp_path / "trace.json"
    write_chrome_trace(tracer.collector, good)
    ok = run(good)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith(f"{good}: OK (")

    document = json.loads(good.read_text())
    span = next(e for e in document["traceEvents"] if e.get("ph") == "X")
    del span["ph"]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(document))
    broken = run(bad)
    assert broken.returncode == 1
    assert "INVALID" in broken.stderr
