"""Spans and counters around bmtas's public functions, installed from outside.

Each wrapper is patched in where the name is looked up at call time: a
module that did `from .resloss import expected_cost` holds its own
reference, so that module's attribute is the one replaced. The search
module is reached through sys.modules["bmtas.search"], because the
package attribute `bmtas.search` is the re-exported function.

Spans (name, start, end, parent) stay in memory; a layer's self time is
its spans' durations minus those of their direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name)
SPANS = [
    ("bmtas.cli", "load_config", "cli.load_config"),
    ("bmtas.cli", "generate_tasks", "eval.generate_tasks"),
    ("bmtas.cli", "search", "search.search"),
    ("bmtas.cli", "retrain", "search.retrain"),
    ("bmtas.cli", "expected_cost", "resloss.expected_cost"),
    ("bmtas.cli", "grouping_distribution", "resloss.grouping_distribution"),
    ("bmtas.cli", "enumerate_partitions", "partition.enumerate_partitions"),
    ("bmtas.search", "warm_up", "search.warm_up"),
    ("bmtas.search", "candidate_forward", "nncore.forward"),
    ("bmtas.search", "mixed_layer_forward", "nncore.forward"),
    ("bmtas.search", "head_forward", "nncore.forward"),
    ("bmtas.search", "task_loss", "nncore.forward"),
    ("bmtas.search", "backward", "nncore.backward"),
    ("bmtas.search", "expected_cost", "resloss.expected_cost"),
    ("bmtas.search", "expected_cost_grad", "resloss.expected_cost_grad"),
    ("bmtas.search", "gumbel_noise", "relax.gumbel_noise"),
    ("bmtas.search", "discretize", "relax.discretize"),
    ("bmtas.search", "derive_groupings", "graph.derive_groupings"),
    ("bmtas.search", "structure_hash", "graph.structure_hash"),
    ("bmtas.graph", "structure_hash", "graph.structure_hash"),
    ("bmtas.graph", "enumerate_partitions", "partition.enumerate_partitions"),
    ("bmtas.resloss", "enumerate_partitions", "partition.enumerate_partitions"),
]

# (module, class, method, span name)
METHOD_SPANS = [
    ("bmtas.nncore", "SGD", "step", "nncore.optimizer"),
    ("bmtas.nncore", "Adam", "step", "nncore.optimizer"),
]

# (module, attribute, counter name); calls too many or too small to span
COUNTERS = [
    ("bmtas.resloss", "transition_kernel", "resloss.transition_kernel"),
    ("bmtas.resloss", "meet", "partition.meet"),
    ("bmtas.graph", "meet", "partition.meet"),
    ("bmtas.search", "schedule_tau", "search.steps"),
]

RESLOSS_ENTRIES = (
    "resloss.expected_cost",
    "resloss.expected_cost_grad",
    "resloss.grouping_distribution",
)

# per-layer metric -> span whose self time it reports, median over the
# warm operations
WARM_SELF_TIMES = {
    "cli.load_config_s": "cli.load_config",
    "cli.self_s": "cli.main",
    "eval.generate_tasks_s": "eval.generate_tasks",
    "search.warm_up_s": "search.warm_up",
    "search.search_self_s": "search.search",
    "search.retrain_s": "search.retrain",
    "nncore.forward_s": "nncore.forward",
    "nncore.backward_s": "nncore.backward",
    "nncore.optimizer_s": "nncore.optimizer",
    "resloss.expected_cost_s": "resloss.expected_cost",
    "resloss.expected_cost_grad_s": "resloss.expected_cost_grad",
    "resloss.grouping_distribution_s": "resloss.grouping_distribution",
    "relax.gumbel_noise_s": "relax.gumbel_noise",
    "relax.discretize_s": "relax.discretize",
    "graph.derive_groupings_s": "graph.derive_groupings",
    "graph.structure_hash_s": "graph.structure_hash",
}

# per-layer metric -> span whose calls it counts, in the first warm operation
WARM_CALLS = {
    "nncore.backward_calls": "nncore.backward",
    "resloss.expected_cost_calls": "resloss.expected_cost",
    "resloss.expected_cost_grad_calls": "resloss.expected_cost_grad",
}

# per-layer metric -> counter, in the first warm operation
WARM_COUNTS = {
    "nncore.tensors": "nncore.tensors",
    "resloss.transition_kernel_calls": "resloss.transition_kernel",
    "search.steps": "search.steps",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every wrapper into the bmtas modules currently imported."""
        mods = sys.modules
        for module, attr, name in SPANS:
            setattr(mods[module], attr, self.span(name, getattr(mods[module], attr)))
        for module, cls, attr, name in METHOD_SPANS:
            owner = getattr(mods[module], cls)
            setattr(owner, attr, self.span(name, getattr(owner, attr)))
        for module, attr, name in COUNTERS:
            setattr(mods[module], attr, self.counter(name, getattr(mods[module], attr)))
        tensor = mods["bmtas.nncore"].Tensor
        tensor.__init__ = self.counter("nncore.tensors", tensor.__init__)


def self_times(spans, lo: int, hi: int) -> tuple[dict, Counter]:
    """Self time and call count per span name over spans[lo:hi]."""
    own: dict = defaultdict(float)
    calls: Counter = Counter()
    for name, start, end, parent in spans[lo:hi]:
        own[name] += end - start
        calls[name] += 1
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    return own, calls


def cold_seconds(spans, cold: list[dict], warm: list[dict]) -> float:
    """First resloss call of a cold operation minus the median warm call of
    the same function; the median over the cold operations."""
    durations: dict = defaultdict(list)
    for op in warm:
        for name, start, end, _ in spans[op["lo"] : op["hi"]]:
            if name in RESLOSS_ENTRIES:
                durations[name].append(end - start)
    extra = []
    for op in cold:
        first = next((s for s in spans[op["lo"] : op["hi"]] if s[0] in RESLOSS_ENTRIES), None)
        if first is not None:
            later = durations.get(first[0])
            extra.append(first[2] - first[1] - (statistics.median(later) if later else 0.0))
    return statistics.median(extra) if extra else 0.0


def layer_metrics(tracer: Tracer, ops: list[dict]) -> dict:
    """Per-layer figures from a traced run.

    ops[i] holds operation i's span index range, counter deltas, wall time
    and whether it was cold: the first after a fresh import of bmtas, so
    that it pays every first-use build.
    """
    cold = [op for op in ops if op["cold"]]
    warm = [op for op in ops if not op["cold"]]
    per_cold = [self_times(tracer.spans, op["lo"], op["hi"])[0] for op in cold]
    per_warm = [self_times(tracer.spans, op["lo"], op["hi"]) for op in warm]
    out = {
        metric: statistics.median(own.get(span, 0.0) for own, _ in per_warm)
        for metric, span in WARM_SELF_TIMES.items()
    }
    out.update({m: per_warm[0][1][span] for m, span in WARM_CALLS.items()})
    out.update({m: warm[0]["counts"][c] for m, c in WARM_COUNTS.items()})
    out["resloss.cold_s"] = cold_seconds(tracer.spans, cold, warm)
    out["partition.meet_calls"] = cold[0]["counts"]["partition.meet"]
    out["partition.enumerate_partitions_s"] = statistics.median(
        own.get("partition.enumerate_partitions", 0.0) for own in per_cold
    )
    out["traced.op_s"] = statistics.fmean(op["seconds"] for op in warm)
    return out


def write_spans(tracer: Tracer, path):
    """Tab-separated spans: index, name, start, end, parent."""
    with open(path, "w") as fh:
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
