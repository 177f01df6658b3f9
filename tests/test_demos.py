"""Smoke test: the demos and the README Quick start run to the end and print
their key lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]

# the lines each demo must print
DEMOS = {
    "partition_walk.py": (
        "15 partitions (Bell number B_4):",
        "groupings per layer: ['0000', '0011', '0123']",
        "cost: 896 MAdds (fully shared would be 384)",
    ),
    "expected_cost_vs_oracle.py": ("max |analytic - FD| over 27 logits:",),
    "metrics_and_rsa.py": ("within generating pairs:",),
    "search_walkthrough.py": ("lambda = 0.5    groupings 0000 | 0000 | 0000",),
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
    assert [line for line in DEMOS[demo] if line not in proc.stdout] == []


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert fresh_python(code) == "['0011', '0011', '0011']\n1024.0\n"
