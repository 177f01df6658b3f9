"""The benchmark's tracer (benchmarks/tracing.py) patches bmtas names from
outside. Each name it patches must exist, or `--trace 1` breaks."""

import importlib
import sys
from pathlib import Path

from conftest import fresh_python

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    importlib.import_module("bmtas.cli")
    names = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTERS]
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(sys.modules.get(module), attr)
    ]
    missing += [
        f"{module}.{cls}.{method}"
        for module, cls, method, _ in tracing.METHOD_SPANS
        if not hasattr(getattr(sys.modules.get(module), cls, None), method)
    ]
    assert names and tracing.METHOD_SPANS
    assert missing == []


def test_the_whole_tracer_installs_and_a_verb_runs():
    # install() also patches nncore.Tensor.__init__ by hand, outside the lists
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(BENCHMARKS)!r})\n"
        "import bmtas.cli, tracing\n"
        "tracing.Tracer().install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = bmtas.cli.main(['enumerate', '--tasks', '3', '--layers', '2'])\n"
        "sys.exit(code)"
    )
    assert fresh_python(code) == ""
