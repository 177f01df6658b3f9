"""Layered supergraph search space and branched-structure assembly: the
chain of layers and its costs (`SupergraphSpec`, `CostTable`), and the
grouping chain that a routing induces (`BranchedStructure`).
"""

from __future__ import annotations

import operator
import re
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import BoundsError, DimensionMismatch
from .partition import MAX_TASKS, Partition, meet, rgs_table
from .partition import enumerate_partitions  # benchmarks/tracing.py patches this name


class CostTable:
    """Per-layer multiply-add cost of a single candidate operation.

    The cost of grouping ``k`` at layer ``l`` is ``k.num_blocks * unit_cost[l-1]``:
    it depends only on the layer and on how many distinct operations the
    grouping requires.
    """

    def __init__(self, unit_cost: Sequence[float]):
        self.unit_cost = costs = tuple(float(u) for u in unit_cost)
        if len(costs) == 0:
            raise ValueError("cost table must cover at least one layer")
        if any(u <= 0 or not np.isfinite(u) for u in costs):
            raise ValueError("unit costs must be positive and finite")
        # the expected cost sums 2**T inclusion-exclusion terms of at most the
        # fully shared cost each, and ArchitectureParams keeps T <= MAX_TASKS,
        # so this bound keeps the cost and its gradient finite
        if not np.isfinite(2.0**MAX_TASKS * sum(costs)):
            raise ValueError(
                f"unit costs must sum to at most {np.finfo(float).max / 2**MAX_TASKS:.6g}"
            )

    def __eq__(self, other):
        if type(other) is not CostTable:
            return NotImplemented
        return self.unit_cost == other.unit_cost

    @property
    def num_layers(self) -> int:
        return len(self.unit_cost)

    @property
    def fully_shared_cost(self) -> float:
        """Total cost when every layer runs exactly one operation."""
        return float(sum(self.unit_cost))


class SupergraphSpec:
    """A chain of layers, layer l mapping width widths[l-1] to widths[l], plus
    the cost table used for resource terms: one unit cost per layer, by
    default the analytic per-sample MAdds of an affine op, 2 * in_width *
    out_width. Every layer holds one candidate operation per task; the task
    count comes with the data and the logits."""

    def __init__(self, widths: Sequence[int], unit_costs: Sequence[float] | None = None):
        self.widths = tuple(map(int, widths))
        if self.num_layers < 1:
            raise ValueError("need at least one layer")
        if min(self.widths) < 1:
            raise ValueError("widths must be at least 1")
        if unit_costs is None:
            unit_costs = [2.0 * i * o for i, o in self.layer_dims]
        self.cost_table = CostTable(unit_costs)
        if self.cost_table.num_layers != self.num_layers:
            raise DimensionMismatch("cost table length does not match layer count")

    def __eq__(self, other):
        if type(other) is not SupergraphSpec:
            return NotImplemented
        return (self.widths, self.cost_table) == (other.widths, other.cost_table)

    @property
    def num_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.widths, self.widths[1:]))


class BranchedStructure:
    """The operation each task picks at each layer, ``edge_choice[l-1][t]``
    for task t at layer l, and the grouping chain those picks induce.

    Tasks share a block of ``groupings[l-1]`` iff their picks agree at every
    layer 1..l, so each grouping is the meet of the previous one with the
    layer's edge-equality partition, and branches never re-merge.
    """

    def __init__(self, edge_choice: Sequence[Sequence[int]]):
        self.edge_choice = rows = tuple(tuple(map(operator.index, row)) for row in edge_choice)
        if not rows or len(set(map(len, rows))) != 1:
            raise DimensionMismatch("need one row of picks per layer, all of one length")
        if not all(0 <= j < len(rows[0]) for row in rows for j in row):
            raise BoundsError(f"picks must lie in 0..{len(rows[0]) - 1}, one per task")
        self.groupings = tuple(accumulate(map(Partition.from_labels, rows), meet))

    def __eq__(self, other):
        if type(other) is not BranchedStructure:
            return NotImplemented
        return self.edge_choice == other.edge_choice  # the groupings follow from it

    @property
    def num_tasks(self) -> int:
        return len(self.edge_choice[0])

    @property
    def num_layers(self) -> int:
        return len(self.edge_choice)


def derive_groupings(picks) -> BranchedStructure:
    """The structure of an integer pick array.

    picks[t, l] is the operation task t takes at layer l + 1, as
    logits.argmax(axis=2) gives it.
    """
    try:
        picks = np.asarray(picks)
    except ValueError as exc:  # ragged rows
        raise DimensionMismatch(f"picks are not a (tasks, layers) array: {exc}") from exc
    if picks.ndim != 2 or picks.size == 0 or picks.dtype.kind not in "iu":
        raise DimensionMismatch("picks must be a non-empty (tasks, layers) integer array")
    return BranchedStructure(picks.T.tolist())


def structure_cost(s: BranchedStructure, table: CostTable) -> float:
    """Total MAdds of a branched structure: per layer, the grouping's block
    count times the layer's unit cost."""
    if table.num_layers != s.num_layers:
        raise DimensionMismatch("cost table length does not match structure depth")
    return float(sum(k.num_blocks * u for k, u in zip(s.groupings, table.unit_cost)))


def count_structures(num_tasks: int, num_layers: int) -> int:
    """Number of distinct grouping chains of the given depth.

    Counts sequences k_1, ..., k_L where each k_l refines its predecessor;
    every such chain is realizable by some routing, and routings that
    induce the same chain describe the same architecture.
    """
    # a chain ending in a grouping of m blocks continues upward as a chain on
    # those m blocks: f_L(n) = sum_m S(n, m) f_(L-1)(m) and f_1(n) = B_n, so
    # f_L = S^(L-1) B with stirling[n-1, m-1] = S(n, m), in Python ints, as
    # the count outgrows int64; rgs_table(n) is the rows of rgs that are 0 past n
    rgs = rgs_table(num_tasks)  # checks 1 <= num_tasks <= MAX_TASKS
    stirling = np.zeros((num_tasks, num_tasks), dtype=object)
    for n in range(1, num_tasks + 1):
        stirling[n - 1, :n] = np.bincount(rgs[~rgs[:, n:].any(axis=1)].max(axis=1)).tolist()
    steps = np.linalg.matrix_power(stirling, max(num_layers - 1, 0))
    return int((steps @ stirling.sum(axis=1))[-1])


def structure_hash(s: BranchedStructure) -> str:
    """Short stable digest of the grouping chain and edge choices."""
    import hashlib  # here, so that the verbs that hash no structure do not load it

    payload = repr((s.num_tasks, [k.rgs for k in s.groupings], s.edge_choice))
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


def structure_to_json(s: BranchedStructure, task_names: Sequence[str]) -> dict:
    if len(task_names) != s.num_tasks:
        raise DimensionMismatch("need one name per task")
    return {
        "tasks": list(task_names),
        "layers": [{"groups": k.blocks()} for k in s.groupings],
        "edge_choice": [list(row) for row in s.edge_choice],
    }


def structure_from_json(obj: dict) -> tuple[BranchedStructure, list[str]]:
    """Rebuild from the edge choices; the file's task names and layer groups
    must agree with them. Names go into DOT labels, so none may hold a quote,
    a backslash or a control character."""
    names = obj["tasks"]
    if type(names) is not list or any(type(n) is not str for n in names):
        raise TypeError("task names must be a JSON array of strings")
    if any(re.search(r'["\\\x00-\x1f\x7f-\x9f]', n) for n in names):
        raise ValueError("task names may not hold a quote, a backslash or a control character")
    if any(type(j) is not int for row in obj["edge_choice"] for j in row):
        raise TypeError("edge choices must be JSON integers")  # operator.index takes true
    structure = BranchedStructure(obj["edge_choice"])
    if len(names) != structure.num_tasks:
        raise DimensionMismatch("need one name per task")
    groupings = tuple(Partition.from_json(layer["groups"]) for layer in obj["layers"])
    if groupings != structure.groupings:
        raise ValueError("layer groups disagree with the edge choices")
    return structure, names


def export_dot(s: BranchedStructure, task_names: Sequence[str]) -> str:
    """Render the structure as a Graphviz digraph.

    One node per (layer, block) plus a source and a sink; block node ids
    use the smallest task in the block, so equal structures always render
    byte-identically.
    """
    if len(task_names) != s.num_tasks:
        raise DimensionMismatch("need one name per task")

    def node_id(layer: int, block: list[int]) -> str:
        return f"l{layer}_t{min(block)}"

    def label(block: list[int]) -> str:
        return ",".join(task_names[t] for t in block)

    lines = ["digraph branched_structure {", "  rankdir=LR;", '  in [shape=point];']
    for layer, k in enumerate(s.groupings, start=1):
        for block in k.blocks():
            lines.append(
                f'  {node_id(layer, block)} [shape=box, label="{label(block)}"];'
            )
    lines.append("  out [shape=point];")
    for block in s.groupings[0].blocks():
        lines.append(f'  in -> {node_id(1, block)} [label="{label(block)}"];')
    for layer in range(1, s.num_layers):
        for parent in s.groupings[layer - 1].blocks():
            for child in s.groupings[layer].blocks():
                if set(child) <= set(parent):
                    lines.append(
                        f"  {node_id(layer, parent)} -> {node_id(layer + 1, child)}"
                        f' [label="{label(child)}"];'
                    )
    for block in s.groupings[-1].blocks():
        lines.append(
            f'  {node_id(s.num_layers, block)} -> out [label="{label(block)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
