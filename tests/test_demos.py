"""The demos and the README Quick start run to the end and print exactly
what they printed when their output was last checked by hand."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    PINNED_KERNELS,
    PINNED_PLATFORM,
    describe_kernels,
    fresh_env,
    fresh_python,
    host_kernels,
)

ROOT = Path(__file__).resolve().parents[1]

# each demo's whole standard output
DEMOS = {
    "partition_walk.py": """\
== all groupings of four tasks ==
15 partitions (Bell number B_4):
  0000  blocks=[[0, 1, 2, 3]]
  0001  blocks=[[0, 1, 2], [3]]
  0010  blocks=[[0, 1, 3], [2]]
  0011  blocks=[[0, 1], [2, 3]]
  0012  blocks=[[0, 1], [2], [3]]
  0100  blocks=[[0, 2, 3], [1]]
  0101  blocks=[[0, 2], [1, 3]]
  0102  blocks=[[0, 2], [1], [3]]
  0110  blocks=[[0, 3], [1, 2]]
  0111  blocks=[[0], [1, 2, 3]]
  0112  blocks=[[0], [1, 2], [3]]
  0120  blocks=[[0, 3], [1], [2]]
  0121  blocks=[[0], [1, 3], [2]]
  0122  blocks=[[0], [1], [2, 3]]
  0123  blocks=[[0], [1], [2], [3]]

== refinement ==
0101 refines 0000: True
0000 refines 0101: False
meet(0011, 0111) = 0122

== branched structures over a three-layer chain ==
valid refinement chains: 154
groupings per layer: ['0000', '0011', '0123']
cost: 896 MAdds (fully shared would be 384)
""",
    "expected_cost_vs_oracle.py": """\
== uniform routing over two tasks, two layers ==
subsets  : 3.250000
oracle   : 3.250000
P(layer 1 shared) = 0.5000
P(layer 2 shared) = 0.2500

== random logits, larger instance ==
subsets  : 987.084625274
oracle   : 987.084625274
|diff|   : 0.00e+00

== analytic gradient vs central differences ==
max |analytic - FD| over 27 logits: 1.09e-08
gradient sums to +4.26e-14 (shift invariance)
""",
    "metrics_and_rsa.py": """\
== average per-task drop of a shared encoder vs single-task models ==
delta_m = -6.35%  (negative means net drop)

== RSA on per-task encoders of the pair benchmark ==
task-by-task similarity of probe dissimilarity patterns:
[[1.    0.27  0.018 0.031]
 [0.27  1.    0.021 0.019]
 [0.018 0.021 1.    0.405]
 [0.031 0.019 0.405 1.   ]]
within generating pairs: 0.270 0.405
across pairs:            0.018 0.031 0.021 0.019
""",
    "search_walkthrough.py": """\
benchmark: 4 tasks, generating pairs 0011
supergraph: widths [16, 8, 8, 8], fully shared cost 512 MAdds

lambda = 0.0    groupings 0123 | 0123 | 0123   cost   2048
lambda = 0.05   groupings 0011 | 0011 | 0011   cost   1024
lambda = 0.5    groupings 0000 | 0000 | 0000   cost    512

== retraining the lambda = 0.05 structure from scratch ==
  test MSE t0: 0.00105
  test MSE t1: 0.00087
  test MSE t2: 0.00108
  test MSE t3: 0.00107
final step: tau = 0.10, expected cost = 1093, hash = 65d09bdae85c
""",
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
    assert proc.stdout == DEMOS[demo], PINNED_PLATFORM


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert fresh_python(code) == "['0011', '0011', '0011']\n1024.0\n", PINNED_PLATFORM


def test_pin_failures_name_the_pinned_and_the_host_kernels():
    host = host_kernels()
    assert describe_kernels(PINNED_KERNELS) in PINNED_PLATFORM
    assert describe_kernels(host) in PINNED_PLATFORM
    # the reader asks the loaded library: another core, asked for in a
    # child process only, is the one it names
    if host["openblas_core"] == "unknown" or platform.machine() != "x86_64":
        pytest.skip("no scipy-openblas, or no Haswell kernels, on this host")
    proc = subprocess.run(
        [sys.executable, "-c", "import conftest; print(conftest.host_kernels()['openblas_core'])"],
        capture_output=True,
        text=True,
        env={**fresh_env(), "OPENBLAS_CORETYPE": "Haswell"},
        cwd=ROOT / "tests",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Haswell\n"
