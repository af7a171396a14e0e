"""Smoke tests for the example scripts (deliverables, so guarded).

Only the quick examples run here (each a subprocess, as a user would);
the slower model-sweep examples are exercised indirectly by the
benchmarks that share their code paths.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = {
    "quickstart.py": ("Smith-Waterman score", "#1"),
    "schedule_gantt.py": ("dynamic", "static"),
    "domain_analysis.py": ("Waterman-Eggert", "E-value"),
    "redundancy_filter.py": ("family-pure", "cluster"),
}


@pytest.mark.parametrize("script,expected", sorted(FAST_EXAMPLES.items()))
def test_example_runs_clean(script, expected):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for needle in expected:
        assert needle in result.stdout, (script, needle)


def test_protein_search_runs_clean():
    # The 20-query protocol at a tiny scale: wall GCUPS next to the
    # modelled dual-Xeon column.
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "protein_search.py"), "0.00005"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for needle in ("modelled GCUPS (Xeon)", "Q9UKN1"):
        assert needle in result.stdout, needle


def test_every_example_has_module_docstring_and_main():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.lstrip().startswith(('"""', "#!")), script.name
        assert 'if __name__ == "__main__":' in text, script.name
