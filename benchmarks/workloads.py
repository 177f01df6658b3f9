"""The benchmark's workloads: their inputs, their operations and the checks
made on every operation's output.

An operation is one `bmtas` command line, run in-process through
bmtas.cli.main. Inputs come from the run's --seed alone. Every check is
computed here from the inputs or from properties the method must have,
never against stored output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from pathlib import Path

# bmtas defaults the pair config relies on (README, SearchConfig, SyntheticTaskSpec)
DEFAULT_SEARCH_STEPS = 300
DEFAULT_TAU = (5.0, 0.1)
DEFAULT_SIGNAL_SCALE = 0.2
DEFAULT_NOISE_STD = 0.01

PAIRS_T4 = {
    "experiment": "pairs",
    "supergraph": {"widths": [16, 8, 8, 8]},
    "benchmark": {
        "num_tasks": 4,
        "input_dim": 16,
        "hidden_dim": 8,
        "target_dim": 4,
        "relatedness": [[0, 1], [2, 3]],
    },
    "search": {"lambda": 0.05},
}

# three pairs with jointly orthonormal group projections (3 * 5 <= 16); the
# step counts keep one search near five seconds, most of it in search steps
PAIRS_T6 = {
    "experiment": "pairs6",
    "supergraph": {"widths": [16, 8, 8, 8]},
    "benchmark": {
        "num_tasks": 6,
        "input_dim": 16,
        "hidden_dim": 5,
        "target_dim": 4,
        "relatedness": [[0, 1], [2, 3], [4, 5]],
    },
    "search": {
        "lambda": 0.05,
        "warmup_steps": 60,
        "search_steps": 60,
        "retrain_steps": 150,
    },
}

COST_TASKS = 7
COST_WIDTHS = [16, 8, 8, 8, 8]
# logit tensor kinds: (name, logit standard deviation, boost of one candidate)
COST_KINDS = [("uniform", 0.1, 0.0), ("scale2", 2.0, 0.0), ("onehot", 1.0, 30.0)]


def layer_costs(widths) -> list[float]:
    return [2.0 * widths[l] * widths[l + 1] for l in range(len(widths) - 1)]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()[:16]


class SearchWorkload:
    """One `bmtas search` of one seed per operation; a round is one operation,
    and a cycle of the run is two rounds: one cold operation, one warm."""

    round_size = 1
    cycle_rounds = 2

    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config

    def prepare(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))

    def validate_inputs(self, cli):
        cli.load_config(str(self.config_path))

    def op_key(self, i: int) -> str:
        return f"seed{1000 * self.seed + i}"

    def argv(self, i: int) -> list[str]:
        return [
            "search",
            "--config", str(self.config_path),
            "--seed", str(1000 * self.seed + i),
            "--out", str(self.workdir / "runs"),
        ]

    def check(self, i: int, stdout: str) -> tuple[str, list[str]]:
        """Digest of the four artifacts, and every problem found in them."""
        cfg = self.config
        seed_dir = self.workdir / "runs" / cfg["experiment"] / f"seed{1000 * self.seed + i}"
        files = [seed_dir / n for n in ("structure.json", "structure.dot", "trace.csv", "metrics.json")]
        structure = json.loads(files[0].read_text())
        metrics = json.loads(files[3].read_text())
        with open(files[2], newline="") as fh:
            rows = list(csv.reader(fh))
        problems = []

        widths = cfg["supergraph"]["widths"]
        bench = cfg["benchmark"]
        num_tasks = bench["num_tasks"]
        costs = layer_costs(widths)
        shared = sum(costs)

        groups = [layer["groups"] for layer in structure["layers"]]
        if groups != groupings_from_edges(structure["edge_choice"]):
            problems.append("groupings differ from those the edge choices induce")
        for l in range(1, len(groups)):
            if not all(any(set(c) <= set(p) for p in groups[l - 1]) for c in groups[l]):
                problems.append(f"layer {l + 1} grouping does not refine layer {l}")
        cost = sum(len(g) * c for g, c in zip(groups, costs))
        if not close(metrics["structure_cost"], cost, 1e-12):
            problems.append(f"structure_cost {metrics['structure_cost']} != {cost}")

        steps = cfg["search"].get("search_steps", DEFAULT_SEARCH_STEPS)
        header, body = rows[0], rows[1:]
        if len(body) != steps:
            problems.append(f"trace.csv has {len(body)} rows for {steps} steps")
        col = {name: k for k, name in enumerate(header)}
        start, end = DEFAULT_TAU
        span = max(steps - 1, 1)
        for r in body:
            step = int(r[col["step"]])
            tau = start + (end - start) * min(step - 1, span) / span
            expected, loss = float(r[col["expected_cost"]]), float(r[col["resource_loss"]])
            if not close(float(r[col["tau"]]), tau, 1e-12):
                problems.append(f"step {step}: tau off the linear schedule")
            if not close(loss, expected / shared, 1e-12):
                problems.append(f"step {step}: resource_loss != expected_cost / shared")
            if not shared * (1 - 1e-12) <= expected <= num_tasks * shared * (1 + 1e-12):
                problems.append(f"step {step}: expected_cost {expected} out of range")
        if body and body[-1][col["structure_hash"]] != metrics["structure_hash"]:
            problems.append("last trace row's hash differs from metrics.json")

        scale = bench.get("signal_scale", DEFAULT_SIGNAL_SCALE)
        noise = bench.get("noise_std", DEFAULT_NOISE_STD)
        zero_predictor = scale * scale + noise * noise
        mse = metrics["test_mse"]
        if len(mse) != num_tasks:
            problems.append(f"test_mse covers {len(mse)} of {num_tasks} tasks")
        for task, value in mse.items():
            if not (math.isfinite(value) and value < zero_predictor):
                problems.append(f"{task}: test MSE {value} not below {zero_predictor}")
        return file_digest(*files), problems


def groupings_from_edges(edge_choice) -> list[list[list[int]]]:
    """Tasks share a block at layer l iff their picks agree at every layer up to l."""
    paths = [()] * len(edge_choice[0])
    out = []
    for row in edge_choice:
        paths = [p + (row[t],) for t, p in enumerate(paths)]
        blocks: dict = {}
        for t, p in enumerate(paths):
            blocks.setdefault(p, []).append(t)
        out.append(list(blocks.values()))
    return out


class CostWorkload:
    """`bmtas expected-cost` on seeded T=7, L=4 logit tensors; a round is one
    call on each kind of tensor, and a cycle of the run is two rounds, whose
    first call, always on the first kind, is the cold one."""

    name = "cost-t7"
    round_size = len(COST_KINDS)
    cycle_rounds = 2

    def prepare(self, workdir: Path, seed: int):
        self.seed = seed
        self.paths = []
        self.logits = []
        num_layers = len(COST_WIDTHS) - 1
        for kind, sd, boost in COST_KINDS:
            rng = random.Random(f"cost-t7/{seed}/{kind}")
            logits = [
                [[rng.gauss(0.0, sd) for _ in range(COST_TASKS)] for _ in range(num_layers)]
                for _ in range(COST_TASKS)
            ]
            if boost:
                for row in (r for task in logits for r in task):
                    row[rng.randrange(COST_TASKS)] += boost
            path = workdir / f"alpha-{kind}.json"
            path.write_text(json.dumps(logits))
            self.paths.append(path)
            self.logits.append(logits)

    def validate_inputs(self, cli):
        params = sys.modules["bmtas.resloss"].ArchitectureParams
        for path in self.paths:
            with open(path) as fh:
                params.from_json(json.load(fh))

    def op_key(self, i: int) -> str:
        return f"{self.seed}/{COST_KINDS[i % self.round_size][0]}"

    def argv(self, i: int) -> list[str]:
        return [
            "expected-cost",
            "--alpha", str(self.paths[i % self.round_size]),
            "--widths", ",".join(str(w) for w in COST_WIDTHS),
        ]

    def check(self, i: int, stdout: str) -> tuple[str, list[str]]:
        # imported here: numpy must not load before the timed set-ups
        from reference import expected_cost_ie

        report = json.loads(stdout)
        costs = layer_costs(COST_WIDTHS)
        problems = []
        cost = report["expected_cost"]
        reference = expected_cost_ie(self.logits[i % self.round_size], costs)
        if not close(cost, reference, 1e-9):
            problems.append(f"expected_cost {cost} != reference {reference}")
        if not close(report["normalized"], cost / sum(costs), 1e-12):
            problems.append("normalized != expected_cost / shared")
        layers = report["grouping_distribution"]
        if [layer["layer"] for layer in layers] != list(range(1, len(costs) + 1)):
            problems.append("grouping_distribution does not list every layer once")
        folded = 0.0
        for layer, unit in zip(layers, costs):
            probs = [entry["prob"] for entry in layer["probs"]]
            if min(probs) < 0 or not close(sum(probs), 1.0, 1e-9):
                problems.append(f"layer {layer['layer']}: probabilities not a distribution")
            folded += unit * sum(e["prob"] * len(e["partition"]) for e in layer["probs"])
        if not close(folded, cost, 1e-9):
            problems.append(f"grouping distribution gives cost {folded}, report {cost}")
        return hashlib.sha256(stdout.encode()).hexdigest()[:16], problems


WORKLOADS = {
    "pairs-t4": lambda: SearchWorkload("pairs-t4", PAIRS_T4),
    "pairs-t6": lambda: SearchWorkload("pairs-t6", PAIRS_T6),
    "cost-t7": CostWorkload,
}
