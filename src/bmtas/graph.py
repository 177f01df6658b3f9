"""Layered supergraph search space and branched-structure assembly.

The search space is a chain of L layers with T parallel candidate
operations each. A task's routing picks one candidate per layer; two
tasks share computation at a layer only while their picks have agreed
at every layer so far, so the per-layer task groupings form a
refinement chain that never re-merges.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundsError, DimensionMismatch
from .partition import MAX_TASKS, Partition, meet, refines, rgs_table
from .partition import enumerate_partitions  # benchmarks/tracing.py patches this name


@dataclass(frozen=True)
class CostTable:
    """Per-layer multiply-add cost of a single candidate operation.

    The cost of grouping ``k`` at layer ``l`` is ``k.num_blocks * unit_cost[l-1]``:
    it depends only on the layer and on how many distinct operations the
    grouping requires.
    """

    unit_cost: tuple[float, ...]

    def __post_init__(self):
        costs = tuple(float(u) for u in self.unit_cost)
        object.__setattr__(self, "unit_cost", costs)
        if len(costs) == 0:
            raise ValueError("cost table must cover at least one layer")
        if any(u <= 0 or not np.isfinite(u) for u in costs):
            raise ValueError("unit costs must be positive and finite")
        # the expected cost sums 2**T inclusion-exclusion terms of at most the
        # fully shared cost each, so that bound keeps it and its gradient finite
        if not np.isfinite(2.0**MAX_TASKS * sum(costs)):
            raise ValueError(
                f"unit costs must sum to at most {np.finfo(float).max / 2**MAX_TASKS:.6g}"
            )

    @property
    def num_layers(self) -> int:
        return len(self.unit_cost)

    @property
    def fully_shared_cost(self) -> float:
        """Total cost when every layer runs exactly one operation."""
        return float(sum(self.unit_cost))

    @classmethod
    def from_layer_dims(cls, layer_dims: Sequence[tuple[int, int]]) -> "CostTable":
        """Analytic per-sample MAdds of an affine op: 2 * in_width * out_width."""
        return cls(tuple(2.0 * i * o for i, o in layer_dims))


@dataclass(frozen=True)
class SupergraphSpec:
    """Dimensions of the supergraph plus the cost table used for resource terms."""

    num_layers: int
    num_tasks: int
    layer_dims: tuple[tuple[int, int], ...]
    cost_table: CostTable

    def __post_init__(self):
        dims = tuple((int(i), int(o)) for i, o in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if self.num_layers < 1 or self.num_tasks < 1:
            raise ValueError("need at least one layer and one task")
        if len(dims) != self.num_layers:
            raise DimensionMismatch(
                f"{len(dims)} layer dims for {self.num_layers} layers"
            )
        for l in range(1, self.num_layers):
            if dims[l][0] != dims[l - 1][1]:
                raise DimensionMismatch(
                    f"layer {l + 1} input width {dims[l][0]} does not match "
                    f"layer {l} output width {dims[l - 1][1]}"
                )
        if self.cost_table.num_layers != self.num_layers:
            raise DimensionMismatch("cost table length does not match layer count")

    @classmethod
    def chain(
        cls,
        widths: Sequence[int],
        num_tasks: int,
        unit_costs: Sequence[float] | None = None,
    ) -> "SupergraphSpec":
        """Build from a width chain [w0, w1, ..., wL]; costs default to analytic MAdds."""
        dims = tuple((int(widths[i]), int(widths[i + 1])) for i in range(len(widths) - 1))
        table = (
            CostTable(tuple(float(u) for u in unit_costs))
            if unit_costs is not None
            else CostTable.from_layer_dims(dims)
        )
        return cls(
            num_layers=len(dims),
            num_tasks=num_tasks,
            layer_dims=dims,
            cost_table=table,
        )


@dataclass(frozen=True)
class BranchedStructure:
    """A grouping chain plus the edge choices that induced it.

    ``groupings[l-1]`` is the task grouping in effect at layer ``l``; the
    chain refines monotonically with depth (branches never re-merge) and
    each element is the meet of the previous one with the layer's
    edge-equality partition.
    """

    num_tasks: int
    num_layers: int
    groupings: tuple[Partition, ...]
    edge_choice: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_layers < 1:
            raise DimensionMismatch("a structure needs at least one layer")
        if len(self.groupings) != self.num_layers:
            raise DimensionMismatch("one grouping per layer required")
        if len(self.edge_choice) != self.num_layers:
            raise DimensionMismatch("one edge-choice row per layer required")
        prev = Partition.coarsest(self.num_tasks)
        for l, (k, row) in enumerate(zip(self.groupings, self.edge_choice), start=1):
            if k.num_tasks != self.num_tasks or len(row) != self.num_tasks:
                raise DimensionMismatch(f"layer {l} grouping or edges have wrong size")
            if not refines(k, prev):
                raise ValueError(f"grouping at layer {l} does not refine layer {l - 1}")
            if meet(prev, Partition.from_labels(row)) != k:
                raise ValueError(
                    f"grouping at layer {l} is inconsistent with the edge choices"
                )
            prev = k


def grouping_cost(k: Partition, layer: int, table: CostTable) -> float:
    """MAdds of grouping ``k`` at 1-based layer ``layer``."""
    if not 1 <= layer <= table.num_layers:
        raise BoundsError(
            f"layer index {layer} out of range 1..{table.num_layers}"
        )
    return k.num_blocks * table.unit_cost[layer - 1]


def derive_groupings(picks) -> BranchedStructure:
    """Fold an integer pick array into the grouping chain it induces.

    picks[t, l] is the operation task t takes at layer l + 1, as
    logits.argmax(axis=2) gives it. Tasks share a block at layer l iff
    their picks coincide at every layer 1..l, so each layer's grouping is
    the meet of the previous grouping with the layer's edge-equality
    partition.
    """
    try:
        picks = np.asarray(picks)
    except ValueError as exc:  # ragged rows
        raise DimensionMismatch(f"picks are not a (tasks, layers) array: {exc}") from exc
    if picks.ndim != 2 or picks.size == 0 or picks.dtype.kind not in "iu":
        raise DimensionMismatch("picks must be a non-empty (tasks, layers) integer array")
    num_tasks, num_layers = picks.shape
    edge_choice = tuple(map(tuple, picks.T.tolist()))
    groupings = []
    current = Partition.coarsest(num_tasks)
    for row in edge_choice:
        current = meet(current, Partition.from_labels(row))
        groupings.append(current)
    return BranchedStructure(
        num_tasks=num_tasks,
        num_layers=num_layers,
        groupings=tuple(groupings),
        edge_choice=edge_choice,
    )


def structure_cost(s: BranchedStructure, table: CostTable) -> float:
    """Total MAdds of a branched structure: sum of per-layer grouping costs."""
    if table.num_layers != s.num_layers:
        raise DimensionMismatch("cost table length does not match structure depth")
    return float(
        sum(grouping_cost(k, l, table) for l, k in enumerate(s.groupings, start=1))
    )


def count_structures(num_tasks: int, num_layers: int) -> int:
    """Number of distinct grouping chains of the given depth.

    Counts sequences k_1, ..., k_L where each k_l refines its predecessor;
    every such chain is realizable by some routing, and routings that
    induce the same chain describe the same architecture.
    """
    rgs = rgs_table(num_tasks)
    place = num_tasks ** np.arange(num_tasks - 1, -1, -1)
    codes = rgs @ place  # ascending, as the rows are lexicographic
    sizes = rgs.max(axis=1) + 1
    # per block count m, the groupings k with m blocks and, row by row, the
    # indices of their coarsenings: merging k's blocks by the RGS s of
    # length m gives the grouping s[k], already in canonical form
    coarsenings = []
    for m in range(1, num_tasks + 1):
        ks = np.flatnonzero(sizes == m)
        merged = rgs_table(m)[:, rgs[ks]] @ place
        coarsenings.append((ks, np.searchsorted(codes, merged.T)))
    # Python ints: the count outgrows int64 with depth
    counts = np.ones(len(rgs), dtype=object)
    for _ in range(num_layers - 1):
        above = counts
        counts = np.empty_like(above)
        for ks, coarse in coarsenings:
            counts[ks] = above[coarse].sum(axis=1)
    return int(counts.sum())


def structure_hash(s: BranchedStructure) -> str:
    """Short stable digest of the grouping chain and edge choices."""
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
    names = [str(n) for n in obj["tasks"]]
    groupings = tuple(Partition.from_json(layer["groups"]) for layer in obj["layers"])
    edges = tuple(tuple(int(j) for j in row) for row in obj["edge_choice"])
    structure = BranchedStructure(
        num_tasks=len(names),
        num_layers=len(groupings),
        groupings=groupings,
        edge_choice=edges,
    )
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
