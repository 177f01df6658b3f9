"""Command-line surface: run orchestration and artifact persistence.

Commands: search, expected-cost, enumerate, eval, export-dot. Artifacts go
to the output directory only; diagnostics are line-oriented JSON on stderr.
Exit codes: 0 success, 1 runtime failure, 2 configuration problem.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import lru_cache, partial
from importlib import import_module
from pathlib import Path

import numpy as np

from .errors import BmtasError, ConfigError, NumericError, SearchError
from .graph import (
    CostTable,
    SupergraphSpec,
    export_dot,
    structure_from_json,
    structure_to_json,
)
from .partition import Partition, block_masks, rgs_table
from .partition import enumerate_partitions  # benchmarks/tracing.py patches this name
from .resloss import (
    ENUM_GUARD,
    ArchitectureParams,
    brute_force_expected_cost,
    check_enumerable,
    expected_cost,
    grouping_distribution,
)

# the training stack's names that a search uses, by module; bound on first use
# by _load_training, so that the other verbs never compile these modules
_TRAINING = {
    "eval": ("SyntheticTaskSpec", "generate_tasks"),
    "search": ("SearchConfig", "retrain", "search"),
    "seeding": ("rng_stream",),
}


def _load_training():
    """Bind the training stack's names into this module; a name already bound,
    as one patched from outside is, is kept."""
    for module, names in _TRAINING.items():
        loaded = import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    # for benchmarks/tracing.py and the tests that read or patch the training
    # stack's names here; it goes when the tracer no longer patches them
    # (ROADMAP item 1, one span timer in src/)
    if any(name in names for names in _TRAINING.values()):
        _load_training()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _log(event: str, **fields):
    print(json.dumps({"event": event, **fields}, sort_keys=True), file=sys.stderr)


def _write_atomic(path: Path, text: str):
    """Write text to path through a sibling .tmp file, which a failed write
    removes; the error then names path."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def _load_json(path) -> dict:
    """Parse a JSON input file; numbers that overflow to inf, NaN and
    Infinity are rejected."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@contextmanager
def _reading_input():
    """Report a rejection of outside input while building objects from it
    as a ConfigError, so that it exits 2 rather than 1 or with a traceback."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


def load_config(path) -> dict:
    """Parse and schema-validate a run config; unknown keys are rejected."""
    _load_training()  # a config is read only to run a search
    from .schema import CONFIG_SCHEMA, first_error  # here: the other verbs do not compile it

    obj = _load_json(path)
    error = first_error(CONFIG_SCHEMA, obj)
    if error is not None:
        raise ConfigError(f"{path}: {error}")
    widths = obj["supergraph"]["widths"]
    if obj["benchmark"]["input_dim"] != widths[0]:
        raise ConfigError("benchmark input_dim must equal the first supergraph width")
    costs = obj["supergraph"].get("unit_costs")
    if costs is not None and len(costs) != len(widths) - 1:
        raise ConfigError("unit_costs must cover every layer")
    max_task = max(t for block in obj["benchmark"]["relatedness"] for t in block)
    if max_task >= obj["benchmark"]["num_tasks"]:
        raise ConfigError("relatedness names a task outside 0..num_tasks-1")
    seeds = obj.get("seeds", [])
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    return obj


def _build_task_spec(cfg: dict) -> SyntheticTaskSpec:
    b = cfg["benchmark"]
    return SyntheticTaskSpec(**{**b, "relatedness": Partition.from_json(b["relatedness"])})


def _build_search_config(cfg: dict, seed: int) -> SearchConfig:
    """Only the keys present are passed on, so SearchConfig's defaults apply.
    Keys are its parameter names, except lambda for resource_weight."""
    s = dict(cfg.get("search", {}))
    if "lambda" in s:
        s["resource_weight"] = s.pop("lambda")
    return SearchConfig(seed=seed, **s)


def _trace_csv(trace, task_names) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["step", "tau"]
        + [f"loss_{n}" for n in task_names]
        + ["resource_loss", "expected_cost", "structure_hash"]
    )
    for row in trace:
        writer.writerow(
            [row.step, row.tau]
            + list(row.task_losses)
            + [row.resource_loss, row.expected_cost, row.structure_hash]
        )
    return buf.getvalue()


@np.errstate(all="ignore")  # here pool workers run too; overflow ends in a NumericError
def _run_seed(job) -> tuple[dict, dict[str, str]]:
    """One full search + retrain; returns the seed's metrics and the text of
    each of its artifacts by file name, and writes nothing. A failed seed
    returns its failure and the files that keep it: the trace.csv of its
    finished search steps, unless its warm-up failed, and failure.json."""
    from .graph import structure_cost, structure_hash

    _load_training()  # a spawned or forkserver worker imports this module afresh
    experiment, supergraph, task_spec, config = job
    data = generate_tasks(task_spec, rng_stream(config.seed, "data"))
    dumps = partial(json.dumps, sort_keys=True, indent=2)
    names = data.task_names
    files = {}
    try:
        result = search(config, supergraph, data)
        files["trace.csv"] = _trace_csv(result.trace, names)
        test_mse = retrain(result.structure, supergraph, data, config).test_mse
    except (NumericError, SearchError) as exc:  # returned, not raised: a pool would drop exc.trace
        if exc.stage is None:  # not a training step's failure
            raise
        if isinstance(exc, SearchError):
            files["trace.csv"] = _trace_csv(exc.trace, names)
        failure = {"stage": exc.stage, "step": exc.step, "message": str(exc)}
        files["failure.json"] = dumps(failure) + "\n"
        return {"seed": config.seed, "error": type(exc), **failure}, files
    metrics = {
        "experiment": experiment,
        "seed": config.seed,
        "lambda": config.resource_weight,
        "structure_hash": structure_hash(result.structure),
        "structure_cost": structure_cost(result.structure, supergraph.cost_table),
        "test_mse": test_mse,
    }
    return metrics, {
        "structure.json": dumps(structure_to_json(result.structure, names)) + "\n",
        "structure.dot": export_dot(result.structure, names),
        "trace.csv": files["trace.csv"],
        "metrics.json": dumps(metrics) + "\n",
    }


def cmd_search(args) -> int:
    cfg = load_config(args.config)
    seeds = [args.seed] if args.seed is not None else cfg.get("seeds", [0])
    if args.lambda_override is not None:
        cfg.setdefault("search", {})["lambda"] = args.lambda_override
    out_root = Path(args.out or cfg.get("output_dir", "runs")) / cfg["experiment"]
    with _reading_input():
        supergraph = SupergraphSpec(**cfg["supergraph"])
        task_spec = _build_task_spec(cfg)
        jobs = [
            (cfg["experiment"], supergraph, task_spec, _build_search_config(cfg, seed))
            for seed in seeds
        ]
        workers = os.environ.get("BMTAS_WORKERS", "1")
        if not workers.strip().isdecimal():
            raise ConfigError(f"BMTAS_WORKERS must be a whole number, got {workers!r}")
        workers = min(int(workers), len(jobs))  # a pool starts all its workers at once
        try:
            out_root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_root}: {exc.strerror or exc}") from exc

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: only a pool needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            _write_seeds(out_root, pool.map(_run_seed, jobs))
    else:
        _write_seeds(out_root, map(_run_seed, jobs))
    _log("search_done", experiment=cfg["experiment"], seeds=seeds)
    return 0


def _write_seeds(out_root: Path, results):
    """Write each seed's artifacts as its result arrives, in seed order, so
    that a failing seed leaves the seeds before it written; the failing seed
    writes its files, then raises an error of the same kind and message."""
    for metrics, artifacts in results:
        seed_dir = out_root / f"seed{metrics['seed']}"
        try:
            seed_dir.mkdir(exist_ok=True)
        except OSError as exc:  # as for the output root
            raise ConfigError(f"cannot write {seed_dir}: {exc.strerror or exc}") from exc
        for name, text in artifacts.items():
            _write_atomic(seed_dir / name, text)
        if "failure.json" in artifacts:
            raise metrics["error"](metrics["message"])
        _log(
            "seed_done",
            seed=metrics["seed"],
            structure_hash=metrics["structure_hash"],
            structure_cost=metrics["structure_cost"],
            out=str(seed_dir),
        )


def _cost_table(unit_costs: str | None, num_layers: int) -> CostTable:
    """The comma-separated unit costs, one per layer; all ones when absent."""
    if unit_costs is None:
        costs = [1.0] * num_layers
    else:
        costs = [float(u) for u in unit_costs.split(",")]
    if len(costs) != num_layers:
        raise ConfigError("unit costs must cover every layer")
    return CostTable(costs)


_HOLE = "\0"  # stands in for a probs list while json.dumps writes the report
# line breaks before a probs entry, its keys, its blocks and their tasks
_ENTRY_BREAK, _KEY_BREAK, _BLOCK_BREAK, _TASK_BREAK = ("\n" + " " * n for n in (8, 10, 12, 14))
_ENTRY_TAIL = _ENTRY_BREAK + "}"


@lru_cache(maxsize=None)
def _probs_entries(num_tasks: int) -> np.ndarray:
    """Each grouping's probs entry in the report text up to its prob, after the
    separator that ends the entry before it, as json.dumps(sort_keys=True,
    indent=2) writes them; a read-only object array, for a mask to index."""
    blocks = np.array([
        f"{_BLOCK_BREAK}[{_TASK_BREAK}"
        + f",{_TASK_BREAK}".join(str(t) for t in range(num_tasks) if mask >> t & 1)
        + f"{_BLOCK_BREAK}]"
        for mask in range(1 << num_tasks)
    ], dtype=object)
    later = "," + blocks  # a block after the first; no text for an empty one
    later[0] = ""
    masks = block_masks(num_tasks)
    entries = f'{_ENTRY_TAIL},{_ENTRY_BREAK}{{{_KEY_BREAK}"partition": [' + blocks[masks[:, 0]]
    for column in masks.T[1:]:
        entries += later[column]
    entries += f'{_KEY_BREAK}],{_KEY_BREAK}"prob": '
    entries.setflags(write=False)
    return entries


def _report_text(report: dict, dist) -> str:
    """json.dumps(report, sort_keys=True, indent=2), each _HOLE filled with the
    probs list of its layer: the groupings of positive probability, in order."""
    entries = _probs_entries(dist.rgs.shape[1])
    text = json.dumps(report, sort_keys=True, indent=2).split(json.dumps(_HOLE))
    parts = text[:1]
    for layer, rest in zip(dist.layers, text[1:]):
        keep = layer > 0
        body = [""] * (2 * int(keep.sum()))
        if body:  # else repr([]) would split into [""], and json.dumps writes []
            body[::2] = entries[keep].tolist()
            body[1::2] = repr(layer[keep].tolist())[1:-1].split(", ")
            body[0] = "[" + body[0][len(_ENTRY_TAIL) + 1 :]  # not the first one's separator
        parts += body
        parts += (f"{_ENTRY_TAIL}\n      ]" if body else "[]", rest)
    return "".join(parts)


@np.errstate(all="ignore")  # softmax's shift may overflow to an exp(-inf) of 0
def cmd_expected_cost(args) -> int:
    with _reading_input():
        alpha = ArchitectureParams.from_json(_load_json(args.alpha))
        # an empty value is given, and fails to parse
        if args.unit_costs is not None and args.widths is not None:
            raise ConfigError("give --widths or --unit-costs, not both")
        if args.widths is not None:
            widths = [int(w) for w in args.widths.split(",")]
            if len(widths) != alpha.num_layers + 1:
                raise ConfigError("widths must have one more entry than layers")
            table = SupergraphSpec(widths).cost_table
        else:
            table = _cost_table(args.unit_costs, alpha.num_layers)
        if args.oracle:
            check_enumerable(alpha)
    dist = grouping_distribution(alpha, table)
    cost = expected_cost(alpha, table)
    report = {
        "expected_cost": cost,
        "normalized": cost / table.fully_shared_cost,
        "grouping_distribution": [
            {"layer": l + 1, "probs": _HOLE} for l in range(alpha.num_layers)
        ],
    }
    status = 0
    if args.oracle:
        reference = brute_force_expected_cost(alpha, table)
        report["oracle"] = reference
        if abs(cost - reference) > 1e-9:
            _log("oracle_mismatch", expected=cost, oracle=reference)
            status = 1
    print(_report_text(report, dist))
    return status


def cmd_enumerate(args) -> int:
    from .graph import count_structures

    if args.layers < 1:
        raise ConfigError(f"--layers must be at least 1, got {args.layers}")
    with _reading_input():
        if args.unit_costs is not None:
            total = _cost_table(args.unit_costs, args.layers).fully_shared_cost
        else:  # a unit cost of 1 a layer, which needs no table
            total = float(args.layers)
        bell = len(rgs_table(args.tasks))
    # cost extremes: one block everywhere vs an immediate full branch
    report = {
        "tasks": args.tasks,
        "layers": args.layers,
        "bell": bell,
        "structures": count_structures(args.tasks, args.layers),
        "min_cost": total,
        "max_cost": args.tasks * total,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_eval(args) -> int:
    from .eval import MetricRecord, delta_m

    with _reading_input():
        model = MetricRecord.from_json(_load_json(args.model))
        baseline = MetricRecord.from_json(_load_json(args.baseline))
        delta = delta_m(model, baseline)
    print(f"{delta:.2f}")
    return 0


def cmd_export_dot(args) -> int:
    with _reading_input():
        structure, names = structure_from_json(_load_json(args.structure))
    print(export_dot(structure, names), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """A bad command line is a ConfigError, not usage text; subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


_VERBS = ("search", "expected-cost", "enumerate", "eval", "export-dot")


@lru_cache(maxsize=None)
def build_parser(verb: str | None) -> argparse.ArgumentParser:
    """The parser of verb alone, or of every verb when verb is None; a verb's
    command lines read, fail and print help alike in both. Built on a verb's
    first main() call and reused by its later ones; each parse_args call
    fills a new namespace, so no call sees another's options."""
    parser = _Parser(
        prog="bmtas",
        description="Branched multi-task architecture search on a toy supergraph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    if verb in (None, "search"):
        p = sub.add_parser("search", help="run warm-up, search and retraining per seed")
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the seed list")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--lambda",
            dest="lambda_override",
            type=float,
            default=None,
            help="override the resource weight",
        )
        p.set_defaults(handler=cmd_search)

    if verb in (None, "expected-cost"):
        p = sub.add_parser("expected-cost", help="expected cost of a logit tensor")
        p.add_argument("--alpha", required=True, help="logits JSON: [task][layer][candidate]")
        p.add_argument(
            "--widths", default=None, help="comma-separated layer widths, not with --unit-costs"
        )
        p.add_argument("--unit-costs", default=None, help="comma-separated per-layer costs")
        p.add_argument(
            "--oracle",
            action="store_true",
            help="cross-check against full enumeration of the T^(T*L) joint routings, "
            f"at most {ENUM_GUARD:,}; exit 1 on disagreement",
        )
        p.set_defaults(handler=cmd_expected_cost)

    if verb in (None, "enumerate"):
        p = sub.add_parser("enumerate", help="partition and structure counts")
        p.add_argument("--tasks", type=int, required=True)
        p.add_argument("--layers", type=int, required=True)
        p.add_argument("--unit-costs", default=None, help="comma-separated per-layer costs")
        p.set_defaults(handler=cmd_enumerate)

    if verb in (None, "eval"):
        p = sub.add_parser("eval", help="average relative metric vs a baseline")
        p.add_argument("--model", required=True, help="metric record JSON")
        p.add_argument("--baseline", required=True, help="metric record JSON")
        p.set_defaults(handler=cmd_eval)

    if verb in (None, "export-dot"):
        p = sub.add_parser("export-dot", help="render a structure JSON as Graphviz")
        p.add_argument("--structure", required=True, help="structure JSON path")
        p.set_defaults(handler=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # a command line that starts with no verb gets every verb's usage text
        args = build_parser(argv[0] if argv and argv[0] in _VERBS else None).parse_args(argv)
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early: point it at the null device, so
        # that the flush at shutdown writes nowhere instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _log("runtime_error", error="standard output was closed early", kind="BrokenPipeError")
        return 1
    except ConfigError as exc:
        _log("config_error", error=str(exc))
        return 2
    except (BmtasError, OSError) as exc:  # as from _write_atomic, which names its file
        _log("runtime_error", error=str(exc), kind=type(exc).__name__)
        return 1
    except (MemoryError, ValueError) as exc:
        # numpy refuses an array past its size limit with this ValueError
        if not isinstance(exc, MemoryError) and "array is too big" not in str(exc):
            raise
        _log("runtime_error", error=str(exc) or "out of memory", kind="MemoryError")
        return 1


if __name__ == "__main__":
    sys.exit(main())
