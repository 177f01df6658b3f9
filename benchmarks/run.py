"""Benchmark of the bmtas command line.

One workload runs in one Python process, with BLAS pinned to one thread
and no worker processes. Every operation goes through bmtas.cli.main, as
a `bmtas search` or `bmtas expected-cost` call would:

    python3 benchmarks/run.py --workload pairs-t4 --seed 0 --seconds 60 --trace 0

A run is made of cycles: a fresh import of bmtas, one cold operation and
warm ones up to whole rounds. first_op_s and op_s are the means of the
cold and the warm operations' wall times; means, because the machine's
speed moves between states over tens of seconds, and the median of a
run's few operations snaps to one of them. All three times are scaled by
a speed probe sampled all through the run (speed.py), so that they read
as seconds at one fixed speed of the machine.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it
holds the digest of each operation's output.

    python3 benchmarks/run.py --steadiness 10

runs two interleaved sets of ten runs of every workload, one process at
a time, and prints each metric's medians, quartiles and the gap between
the two sets against its bound (see steadiness.py).
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BMTAS_WORKERS", None)

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from tracing import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# set-ups before the first cycle; the first also pays the third-party imports
PRE_SETUPS = 5
# cycles per run, at the least
MIN_CYCLES = 2


def set_up():
    """Import bmtas from this checkout's sources and return bmtas.cli."""
    cli = importlib.import_module("bmtas.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bmtas was imported from {cli.__file__}, not from {SRC}")
    return cli


def drop_bmtas():
    """Forget every bmtas module and free it, so that the next import runs
    the modules afresh and at most one set of their tables is alive."""
    for name in [m for m in sys.modules if m == "bmtas" or m.startswith("bmtas.")]:
        del sys.modules[name]
    gc.collect()


def mean_seconds(ops, cold: bool) -> float:
    return statistics.fmean(op["seconds"] for op in ops if op["cold"] == cold)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    probe = speed.SpeedProbe()
    try:
        probe.start()
        workload.prepare(workdir, seed)
        tracer = Tracer() if trace else None
        ops, problems, digests, setups = [], [], {}, []

        def elapsed(mark: float, probed: float) -> float:
            """Wall time since mark, less the probe's time since then."""
            return time.perf_counter() - mark - (probe.total - probed)

        def operation(i: int, main, cold: bool):
            out, err = io.StringIO(), io.StringIO()
            op = {"cold": cold}
            if tracer:
                op["lo"], before = len(tracer.spans), Counter(tracer.counts)
            probed, start = probe.total, time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = main(workload.argv(i))
            except Exception as exc:  # a crash is one failed operation
                status = f"{type(exc).__name__}: {exc}"
            op["seconds"] = elapsed(start, probed)
            print(f"operation {i} {workload.op_key(i)}: {op['seconds']:.4f} s", file=sys.stderr)
            if tracer:
                op["hi"], op["counts"] = len(tracer.spans), tracer.counts - before
            op["failed"] = status != 0
            ops.append(op)
            if op["failed"]:
                print(f"operation {i} failed ({status}): {err.getvalue()[-2000:]}", file=sys.stderr)
                return
            try:
                digest, found = workload.check(i, out.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                digest, found = None, [f"unreadable output: {type(exc).__name__}: {exc}"]
            key = workload.op_key(i)
            if digests.setdefault(key, digest) != digest:
                found.append(f"{key}: output differs from the same input's earlier output")
            problems.extend(f"operation {i}: {p}" for p in found)

        def fresh_set_up():
            """Import bmtas afresh and validate the inputs, timed from now."""
            drop_bmtas()
            probed, mark = probe.total, time.perf_counter()
            cli = set_up()
            workload.validate_inputs(cli)
            setups.append(elapsed(mark, probed))
            return cli

        # the first set-up is timed from process start
        cli = set_up()
        workload.validate_inputs(cli)
        setups.append(elapsed(PROCESS_START, 0.0))
        for _ in range(PRE_SETUPS - 1):
            cli = None
            cli = fresh_set_up()

        # a cycle is a fresh set-up, one cold operation that pays every
        # first-use build again, and warm operations up to whole rounds; cold
        # and warm operations so sample the machine over the whole run
        i, window, cycles = 0, time.perf_counter(), []
        while len(cycles) < MIN_CYCLES or (
            time.perf_counter() - window + statistics.median(cycles) <= seconds
        ):
            start = time.perf_counter()
            cli = main = None
            cli = fresh_set_up()
            main = cli.main
            if tracer:
                tracer.install()
                main = tracer.span("cli.main", cli.main)
            for k in range(workload.round_size * workload.cycle_rounds):
                operation(i, main, cold=k == 0)
                i += 1
            cycles.append(time.perf_counter() - start)
        probe.stop()
        scale = probe.scale()
        print(f"speed probe: {len(probe.samples)} samples, mean "
              f"{statistics.fmean(probe.samples) * 1e3:.4f} ms; scale {scale:.4f}", file=sys.stderr)

        for p in problems:
            print(p, file=sys.stderr)
        if tracer:
            OUT.mkdir(exist_ok=True)
            write_spans(tracer, OUT / f"spans-{name}-seed{seed}.tsv")
            layers = layer_metrics(tracer, ops)
            layers["traced.op_s"] *= scale
            metrics = {
                k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                for k, v in layers.items()
            }
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
                "first_op_s": {"value": mean_seconds(ops, cold=True) * scale, "unit": "s"},
                "op_s": {"value": mean_seconds(ops, cold=False) * scale, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        print(json.dumps({"workload": name, "seed": seed, "digests": digests}))
        return {
            "correct": not problems,
            "attempted": len(ops),
            "failed": sum(op["failed"] for op in ops),
            "metrics": metrics,
        }
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness", type=int, metavar="RUNS", default=None,
        help="run two interleaved sets of RUNS runs of every workload",
    )
    args = parser.parse_args(argv)
    if not (SRC / "bmtas" / "__init__.py").is_file():
        print(f"no bmtas sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.steadiness is not None:
        from steadiness import steadiness

        return steadiness(args.steadiness, seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
