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
from pathlib import Path

import numpy as np

from .errors import BmtasError, ConfigError
from .eval import MetricRecord, SyntheticTaskSpec, delta_m, generate_tasks
from .graph import (
    CostTable,
    SupergraphSpec,
    export_dot,
    structure_from_json,
    structure_to_json,
)
from .partition import MAX_TASKS, Partition, block_masks, rgs_table
from .partition import enumerate_partitions  # benchmarks/tracing.py patches this name
from .resloss import (
    ENUM_GUARD,
    ArchitectureParams,
    brute_force_expected_cost,
    check_enumerable,
    expected_cost,
    grouping_distribution,
)
from .search import SearchConfig, retrain, search
from .seeding import rng_stream

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "supergraph", "benchmark"],
    "properties": {
        "experiment": {"type": "string", "minLength": 1},
        "output_dir": {"type": "string", "minLength": 1},
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "supergraph": {
            "type": "object",
            "additionalProperties": False,
            "required": ["widths"],
            "properties": {
                "widths": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 2,
                },
                "unit_costs": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
            },
        },
        "benchmark": {
            "type": "object",
            "additionalProperties": False,
            "required": ["num_tasks", "input_dim", "hidden_dim", "target_dim", "relatedness"],
            "properties": {
                "num_tasks": {"type": "integer", "minimum": 1, "maximum": MAX_TASKS},
                "input_dim": {"type": "integer", "minimum": 1},
                "hidden_dim": {"type": "integer", "minimum": 1},
                "target_dim": {"type": "integer", "minimum": 1},
                "relatedness": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 1,
                    },
                    "minItems": 1,
                },
                "noise_std": {"type": "number", "minimum": 0},
                "train_samples": {"type": "integer", "minimum": 2},
                "test_samples": {"type": "integer", "minimum": 1},
                "signal_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "search": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda": {"type": "number", "minimum": 0},
                "warmup_steps": {"type": "integer", "minimum": 0},
                "search_steps": {"type": "integer", "minimum": 1},
                "tau_start": {"type": "number", "exclusiveMinimum": 0},
                "tau_end": {"type": "number", "exclusiveMinimum": 0},
                "theta_lr": {"type": "number", "exclusiveMinimum": 0},
                "alpha_lr": {"type": "number", "exclusiveMinimum": 0},
                "retrain_steps": {"type": "integer", "minimum": 0},
                "omega": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
            },
        },
    },
}


def _log(event: str, **fields):
    print(json.dumps({"event": event, **fields}, sort_keys=True), file=sys.stderr)


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


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
    from .schema import first_error  # here, so that the other verbs do not compile it

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
    Keys are its field names, except lambda for resource_weight."""
    s = dict(cfg.get("search", {}))
    if "lambda" in s:
        s["resource_weight"] = s.pop("lambda")
    return SearchConfig(seed=seed, **s)


def _trace_csv(result, task_names) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["step", "tau"]
        + [f"loss_{n}" for n in task_names]
        + ["resource_loss", "expected_cost", "structure_hash"]
    )
    for row in result.trace:
        writer.writerow(
            [row.step, row.tau]
            + list(row.task_losses)
            + [row.resource_loss, row.expected_cost, row.structure_hash]
        )
    return buf.getvalue()


@np.errstate(all="ignore")  # here pool workers run too; overflow ends in a NumericError
def _run_seed(job) -> tuple[dict, dict[str, str]]:
    """One full search + retrain; returns the seed's metrics and the text of
    each of its artifacts by file name, and writes nothing."""
    from .graph import structure_cost, structure_hash

    experiment, supergraph, task_spec, config = job
    data = generate_tasks(task_spec, rng_stream(config.seed, "data"))
    result = search(config, supergraph, data)
    metrics = {
        "experiment": experiment,
        "seed": config.seed,
        "lambda": config.resource_weight,
        "structure_hash": structure_hash(result.structure),
        "structure_cost": structure_cost(result.structure, supergraph.cost_table),
        "test_mse": retrain(result.structure, supergraph, data, config).test_mse,
    }
    dumps = partial(json.dumps, sort_keys=True, indent=2)
    names = data.task_names
    return metrics, {
        "structure.json": dumps(structure_to_json(result.structure, names)) + "\n",
        "structure.dot": export_dot(result.structure, names),
        "trace.csv": _trace_csv(result, names),
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
            results = list(pool.map(_run_seed, jobs))
    else:
        results = [_run_seed(job) for job in jobs]

    for metrics, artifacts in results:
        seed_dir = out_root / f"seed{metrics['seed']}"
        for name, text in artifacts.items():
            _write_atomic(seed_dir / name, text)
        _log(
            "seed_done",
            seed=metrics["seed"],
            structure_hash=metrics["structure_hash"],
            structure_cost=metrics["structure_cost"],
            out=str(seed_dir),
        )
    _log("search_done", experiment=cfg["experiment"], seeds=seeds)
    return 0


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
    blocks = [
        f"[{_TASK_BREAK}"
        + f",{_TASK_BREAK}".join(str(t) for t in range(num_tasks) if mask >> t & 1)
        + f"{_BLOCK_BREAK}]"
        for mask in range(1 << num_tasks)
    ]
    entries = np.array([
        f'{_ENTRY_TAIL},{_ENTRY_BREAK}{{{_KEY_BREAK}"partition": [{_BLOCK_BREAK}'
        + f",{_BLOCK_BREAK}".join(blocks[mask] for mask in row if mask)
        + f'{_KEY_BREAK}],{_KEY_BREAK}"prob": '
        for row in block_masks(rgs_table(num_tasks)).tolist()
    ], dtype=object)
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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built on the first main() call and reused by the later ones; each
    parse_args call fills a new namespace, so no call sees another's options."""
    parser = _Parser(
        prog="bmtas",
        description="Branched multi-task architecture search on a toy supergraph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    p = sub.add_parser("enumerate", help="partition and structure counts")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--unit-costs", default=None, help="comma-separated per-layer costs")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("eval", help="average relative metric vs a baseline")
    p.add_argument("--model", required=True, help="metric record JSON")
    p.add_argument("--baseline", required=True, help="metric record JSON")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("export-dot", help="render a structure JSON as Graphviz")
    p.add_argument("--structure", required=True, help="structure JSON path")
    p.set_defaults(handler=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except BmtasError as exc:
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
