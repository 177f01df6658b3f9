"""Smoke test: the quick demos run to the end and print their key lines.

demos/search_walkthrough.py is left out; it sweeps the resource weight over
full searches and takes about 25 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "partition_walk.py": "15 partitions (Bell number B_4):",
    "expected_cost_vs_oracle.py": "max |analytic - FD| over 27 logits:",
    "metrics_and_rsa.py": "within generating pairs:",
}


@pytest.mark.parametrize("demo", list(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
