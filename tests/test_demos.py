"""Smoke test of the demo scripts: each runs to completion against ``src``.

The demos call the public API the way the README does, so a renamed
function or a dropped parameter breaks them here rather than silently.
Demo 05 is left out: its random-error sweep and CUE baseline take about
18 s on a 2-core machine, some eight times the other four together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_interference_basics.py",
    "02_grover_systematic_errors.py",
    "03_shor_order_finding.py",
    "04_decoherence.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
