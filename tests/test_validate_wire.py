"""``tools/validate_wire.py`` on old and new wire envelopes, as a script."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.search import SearchOptions
from repro.serve import wire

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "validate_wire.py"


def run(*paths: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )


def request(options: dict) -> dict:
    return wire.envelope("request", {
        "request": {"query": "MKVLILACLVALALA"}, "options": options,
    })


def test_old_and_new_options_envelopes_valid(tmp_path):
    new = wire.encode_options(SearchOptions(top_k=4))
    assert not set(new) & set(wire.RETIRED_OPTION_KEYS)
    # What every v1 client sent before these keys were retired.
    old = {
        **new, "schedule": "dynamic", "threads": 4,
        "deadline": {"expires_at": 42.0},
    }
    paths = []
    for name, options in (("new", new), ("old", old)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(request(options)))
        paths.append(path)
    result = run(*paths)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("OK (kind=request)") == 2

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(request({**old, "threads": 0})))
    invalid = run(broken)
    assert invalid.returncode == 1
    assert "INVALID" in invalid.stderr
