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
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import jsonschema

from .errors import BmtasError, ConfigError
from .eval import MetricRecord, SyntheticTaskSpec, delta_m, generate_tasks
from .graph import (
    CostTable,
    SupergraphSpec,
    export_dot,
    structure_from_json,
    structure_to_json,
)
from .nncore import LossWeights
from .partition import MAX_TASKS, Partition, enumerate_partitions
from .resloss import (
    ArchitectureParams,
    brute_force_expected_cost,
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
                "share_private": {"type": "boolean"},
            },
        },
        "search": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda": {"type": "number", "minimum": 0},
                "warmup_steps": {"type": "integer", "minimum": 0},
                "search_steps": {"type": "integer", "minimum": 1},
                "alpha_data_fraction": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
                "tau_start": {"type": "number", "exclusiveMinimum": 0},
                "tau_end": {"type": "number", "exclusiveMinimum": 0},
                "theta_lr": {"type": "number", "exclusiveMinimum": 0},
                "theta_momentum": {"type": "number", "minimum": 0},
                "theta_weight_decay": {"type": "number", "minimum": 0},
                "alpha_lr": {"type": "number", "exclusiveMinimum": 0},
                "alpha_weight_decay": {"type": "number", "minimum": 0},
                "batch_size": {"type": "integer", "minimum": 1},
                "retrain_steps": {"type": "integer", "minimum": 0},
                "retrain_lr": {"type": "number", "exclusiveMinimum": 0},
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
    obj = _load_json(path)
    try:
        jsonschema.validate(obj, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"{path}: {exc.json_path}: {exc.message}") from exc
    widths = obj["supergraph"]["widths"]
    if obj["benchmark"]["input_dim"] != widths[0]:
        raise ConfigError("benchmark input_dim must equal the first supergraph width")
    costs = obj["supergraph"].get("unit_costs")
    if costs is not None and len(costs) != len(widths) - 1:
        raise ConfigError("unit_costs must cover every layer")
    max_task = max(t for block in obj["benchmark"]["relatedness"] for t in block)
    if max_task >= obj["benchmark"]["num_tasks"]:
        raise ConfigError("relatedness names a task outside 0..num_tasks-1")
    return obj


def _build_supergraph(cfg: dict) -> SupergraphSpec:
    sg = cfg["supergraph"]
    return SupergraphSpec.chain(
        sg["widths"], cfg["benchmark"]["num_tasks"], sg.get("unit_costs")
    )


def _build_task_spec(cfg: dict) -> SyntheticTaskSpec:
    b = cfg["benchmark"]
    return SyntheticTaskSpec(**{**b, "relatedness": Partition.from_json(b["relatedness"])})


def _build_search_config(cfg: dict, seed: int) -> SearchConfig:
    """Only the keys present are passed on, so SearchConfig's defaults apply.
    Keys equal field names except lambda, tau_start/tau_end and omega."""
    s = dict(cfg.get("search", {}))
    tau = {k: s.pop(f"tau_{k}") for k in ("start", "end") if f"tau_{k}" in s}
    if "lambda" in s:
        s["resource_weight"] = s.pop("lambda")
    if "omega" in s:
        s["omega"] = LossWeights(tuple(s["omega"]))
    config = SearchConfig(seed=seed, **s)
    if tau:
        config = replace(config, schedule=replace(config.schedule, **tau))
    return config


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


def _run_seed(job) -> dict:
    """One full search + retrain; returns artifact payloads, writes nothing."""
    from .graph import structure_cost, structure_hash

    experiment, supergraph, task_spec, config = job
    seed = config.seed
    data = generate_tasks(task_spec, rng_stream(seed, "data"))
    data.seed = seed
    result = search(config, supergraph, data)
    metrics = retrain(result.structure, supergraph, data, config, seed)
    return {
        "seed": seed,
        "structure": structure_to_json(result.structure, data.task_names),
        "dot": export_dot(result.structure, data.task_names),
        "trace_csv": _trace_csv(result, data.task_names),
        "metrics": {
            "experiment": experiment,
            "seed": seed,
            "lambda": config.resource_weight,
            "structure_hash": structure_hash(result.structure),
            "structure_cost": structure_cost(result.structure, supergraph.cost_table),
            "test_mse": metrics,
        },
    }


def cmd_search(args) -> int:
    cfg = load_config(args.config)
    seeds = [args.seed] if args.seed is not None else cfg.get("seeds", [0])
    if args.lambda_override is not None:
        cfg.setdefault("search", {})["lambda"] = args.lambda_override
    out_root = Path(args.out or cfg.get("output_dir", "runs")) / cfg["experiment"]
    with _reading_input():
        supergraph = _build_supergraph(cfg)
        task_spec = _build_task_spec(cfg)
        jobs = [
            (cfg["experiment"], supergraph, task_spec, _build_search_config(cfg, seed))
            for seed in seeds
        ]

    workers = int(os.environ.get("BMTAS_WORKERS", "1"))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_seed, jobs))
    else:
        results = [_run_seed(job) for job in jobs]

    for res in results:
        seed_dir = out_root / f"seed{res['seed']}"
        _write_atomic(
            seed_dir / "structure.json",
            json.dumps(res["structure"], sort_keys=True, indent=2) + "\n",
        )
        _write_atomic(seed_dir / "structure.dot", res["dot"])
        _write_atomic(seed_dir / "trace.csv", res["trace_csv"])
        _write_atomic(
            seed_dir / "metrics.json",
            json.dumps(res["metrics"], sort_keys=True, indent=2) + "\n",
        )
        _log(
            "seed_done",
            seed=res["seed"],
            structure_hash=res["metrics"]["structure_hash"],
            structure_cost=res["metrics"]["structure_cost"],
            out=str(seed_dir),
        )
    _log("search_done", experiment=cfg["experiment"], seeds=seeds)
    return 0


def _unit_costs(text: str, num_layers: int) -> list[float]:
    costs = [float(u) for u in text.split(",")]
    if len(costs) != num_layers:
        raise ConfigError("unit costs must cover every layer")
    return costs


def _spec_from_args(args, num_tasks: int, num_layers: int) -> SupergraphSpec:
    if args.unit_costs:
        return SupergraphSpec.chain(
            [1] * (num_layers + 1), num_tasks, _unit_costs(args.unit_costs, num_layers)
        )
    if args.widths:
        widths = [int(w) for w in args.widths.split(",")]
        if len(widths) != num_layers + 1:
            raise ConfigError("widths must have one more entry than layers")
        return SupergraphSpec.chain(widths, num_tasks)
    return SupergraphSpec.chain([1] * (num_layers + 1), num_tasks, [1.0] * num_layers)


def cmd_expected_cost(args) -> int:
    with _reading_input():
        alpha = ArchitectureParams.from_json(_load_json(args.alpha))
        if alpha.num_candidates != alpha.num_tasks:
            raise ConfigError("logits need one candidate per task")
        if alpha.num_tasks > MAX_TASKS:
            raise ConfigError(f"{alpha.num_tasks} tasks; at most {MAX_TASKS} supported")
        spec = _spec_from_args(args, alpha.num_tasks, alpha.num_layers)
    dist = grouping_distribution(alpha, spec)
    blocks = [part.blocks() for part in dist.partitions]
    cost = expected_cost(alpha, spec)
    report = {
        "expected_cost": cost,
        "normalized": cost / spec.cost_table.fully_shared_cost,
        "grouping_distribution": [
            {
                "layer": l + 1,
                "probs": [
                    {"partition": part, "prob": p}
                    for part, p in zip(blocks, dist.layers[l].tolist())
                    if p > 0
                ],
            }
            for l in range(alpha.num_layers)
        ],
    }
    if args.oracle:
        reference = brute_force_expected_cost(alpha, spec)
        report["oracle"] = reference
        if abs(cost - reference) > 1e-9:
            _log("oracle_mismatch", expected=cost, oracle=reference)
            print(json.dumps(report, sort_keys=True, indent=2))
            return 1
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_enumerate(args) -> int:
    from .graph import count_structures

    with _reading_input():
        table = CostTable(
            _unit_costs(args.unit_costs, args.layers)
            if args.unit_costs
            else [1.0] * args.layers
        )
        parts = enumerate_partitions(args.tasks)
    total = table.fully_shared_cost
    # cost extremes: one block everywhere vs an immediate full branch
    report = {
        "tasks": args.tasks,
        "layers": args.layers,
        "bell": len(parts),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--widths", default=None, help="comma-separated layer widths")
    p.add_argument("--unit-costs", default=None, help="comma-separated per-layer costs")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against full enumeration; exit 1 on disagreement",
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
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        _log("config_error", error=str(exc))
        return 2
    except BmtasError as exc:
        _log("runtime_error", error=str(exc), kind=type(exc).__name__)
        return 1


if __name__ == "__main__":
    sys.exit(main())
