"""Exact expected resource cost of a routing distribution, and its gradient.

The grouping chain kappa_1, ..., kappa_L is Markov: kappa_l is the meet of
kappa_{l-1} with the edge-equality partition of layer l, and edge choices
are independent across layers. The expected cost therefore folds through
a per-layer transition kernel over the partition lattice instead of the
T^(T*L) joint routings. A literal enumeration oracle is kept alongside to
check that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import softmax

from .errors import BoundsError, DimensionMismatch, NumericError
from .graph import SupergraphSpec
from .partition import Partition, enumerate_partitions, meet

ENUM_GUARD = 10 ** 6

# grouping-chain probabilities below this are zeroed and the layer renormalized
CLAMP_EPS = 1e-15


@dataclass(frozen=True)
class ArchitectureParams:
    """Unnormalized log probabilities over candidate edges.

    logits[t, l, j] scores candidate j for task t at layer l+1; rows are
    unconstrained reals and only become probabilities through a softmax.
    """

    logits: np.ndarray

    def __post_init__(self):
        logits = np.array(self.logits, dtype=np.float64)
        if logits.ndim != 3:
            raise DimensionMismatch("logits must be a (task, layer, candidate) tensor")
        if not np.all(np.isfinite(logits)):
            raise NumericError("logits contain NaN or Inf")
        logits.setflags(write=False)
        object.__setattr__(self, "logits", logits)

    @property
    def num_tasks(self) -> int:
        return self.logits.shape[0]

    @property
    def num_layers(self) -> int:
        return self.logits.shape[1]

    @property
    def num_candidates(self) -> int:
        return self.logits.shape[2]

    @classmethod
    def zeros(cls, num_tasks: int, num_layers: int) -> "ArchitectureParams":
        return cls(np.zeros((num_tasks, num_layers, num_tasks)))

    @classmethod
    def from_json(cls, obj: Sequence) -> "ArchitectureParams":
        return cls(np.array(obj, dtype=np.float64))


@dataclass(frozen=True)
class GroupingDistribution:
    """Per-layer probability vectors over enumerate_partitions(T)."""

    partitions: tuple[Partition, ...]
    layers: np.ndarray

    def prob(self, layer: int, k: Partition) -> float:
        """p(kappa_layer = k), layer counted from 1."""
        if not 1 <= layer <= self.layers.shape[0]:
            raise BoundsError(f"layer {layer} out of range")
        idx = {p: i for i, p in enumerate(self.partitions)}
        return float(self.layers[layer - 1, idx[k]])


class _EdgeTables(NamedTuple):
    partitions: tuple[Partition, ...]
    num_blocks: np.ndarray
    meet_idx: np.ndarray
    assignments: np.ndarray
    induced: np.ndarray
    top: int


@lru_cache(maxsize=None)
def _edge_tables(num_tasks: int) -> _EdgeTables:
    """Partition-lattice lookup tables shared by the kernel, gradient and oracle.

    assignments holds every joint edge choice of one layer (T^T rows);
    induced[a] is the index of the edge-equality partition of row a.
    """
    parts = enumerate_partitions(num_tasks)
    index = {p.rgs: i for i, p in enumerate(parts)}
    n = len(parts)
    meet_idx = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            meet_idx[i, j] = index[meet(a, b).rgs]
    grids = np.meshgrid(*[np.arange(num_tasks)] * num_tasks, indexing="ij")
    assignments = np.stack(grids, axis=-1).reshape(-1, num_tasks)
    induced = np.array(
        [index[Partition.from_labels(row).rgs] for row in assignments],
        dtype=np.int32,
    )
    return _EdgeTables(
        partitions=parts,
        num_blocks=np.array([p.num_blocks for p in parts], dtype=np.float64),
        meet_idx=meet_idx,
        assignments=assignments,
        induced=induced,
        top=index[Partition.coarsest(num_tasks).rgs],
    )


def _check_dims(alpha: ArchitectureParams, spec: SupergraphSpec):
    if alpha.num_tasks != spec.num_tasks or alpha.num_candidates != spec.num_tasks:
        raise DimensionMismatch("logits task/candidate dims do not match the supergraph")
    if alpha.num_layers != spec.num_layers:
        raise DimensionMismatch("logits layer dim does not match the supergraph")


def _layer_probs(alpha: ArchitectureParams, layer: int) -> np.ndarray:
    """(T, T) matrix of edge probabilities, one row per task."""
    return softmax(alpha.logits[:, layer - 1, :], axis=1)


def _assignment_weights(pi: np.ndarray, tables: _EdgeTables) -> np.ndarray:
    """Probability of every joint edge assignment under per-task rows pi."""
    t = pi.shape[0]
    return pi[np.arange(t)[None, :], tables.assignments].prod(axis=1)


def transition_kernel(alpha: ArchitectureParams, layer: int) -> np.ndarray:
    """P[m][k] = probability that meet(m, edge partition at `layer`) equals k.

    Rows are distributions over the partition list; support stays inside
    the refinements of m because a meet never coarsens.
    """
    if not 1 <= layer <= alpha.num_layers:
        raise BoundsError(f"layer {layer} out of range")
    if alpha.num_candidates != alpha.num_tasks:
        raise DimensionMismatch("expected one candidate edge per task")
    tables = _edge_tables(alpha.num_tasks)
    w = _assignment_weights(_layer_probs(alpha, layer), tables)
    n = len(tables.partitions)
    q = np.bincount(tables.induced, weights=w, minlength=n)
    kernel = np.zeros((n, n))
    for m in range(n):
        kernel[m] = np.bincount(tables.meet_idx[m], weights=q, minlength=n)
    return kernel


def _chain(alpha: ArchitectureParams, spec: SupergraphSpec, clamp: bool) -> np.ndarray:
    """(L, B) grouping-chain probabilities, optionally clamped per layer."""
    _check_dims(alpha, spec)
    tables = _edge_tables(alpha.num_tasks)
    n = len(tables.partitions)
    layers = np.empty((spec.num_layers, n))
    p = np.zeros(n)
    p[tables.top] = 1.0
    for l in range(1, spec.num_layers + 1):
        p = p @ transition_kernel(alpha, l)
        if clamp:
            p = np.where(p < CLAMP_EPS, 0.0, p)
            p = p / p.sum()
        layers[l - 1] = p
    return layers


def grouping_distribution(
    alpha: ArchitectureParams, spec: SupergraphSpec
) -> GroupingDistribution:
    """Distribution of the task grouping at every layer under softmax(alpha)."""
    tables = _edge_tables(alpha.num_tasks)
    return GroupingDistribution(
        partitions=tables.partitions, layers=_chain(alpha, spec, clamp=True)
    )


def _cost_rows(spec: SupergraphSpec, num_blocks: np.ndarray) -> np.ndarray:
    """(L, B) cost of each grouping at each layer."""
    units = np.array(spec.cost_table.unit_cost)
    return units[:, None] * num_blocks[None, :]


def expected_cost(alpha: ArchitectureParams, spec: SupergraphSpec) -> float:
    """Expected MAdds of the discretized model under the routing distribution."""
    tables = _edge_tables(alpha.num_tasks)
    layers = _chain(alpha, spec, clamp=True)
    return float((layers * _cost_rows(spec, tables.num_blocks)).sum())


def expected_cost_grad(alpha: ArchitectureParams, spec: SupergraphSpec) -> np.ndarray:
    """Exact d expected_cost / d logits, shape (T, L, T).

    Reverse accumulation through the chain recursion: with g_l the adjoint
    of the layer-l grouping vector, g_L = c_L and g_{l-1} = c_{l-1} + P_l g_l.
    The kernel entries are sums of joint-assignment weights, so the adjoint
    of each per-task edge probability is a weight-partitioned bincount, and
    the softmax chain rule finishes the job.
    """
    _check_dims(alpha, spec)
    tables = _edge_tables(alpha.num_tasks)
    num_tasks = alpha.num_tasks
    n = len(tables.partitions)
    costs = _cost_rows(spec, tables.num_blocks)

    pis = [_layer_probs(alpha, l) for l in range(1, spec.num_layers + 1)]
    kernels = [transition_kernel(alpha, l) for l in range(1, spec.num_layers + 1)]
    # forward states p_0 .. p_{L-1}; the gradient path skips the clamping,
    # whose effect is below every tolerance in play
    states = np.zeros((spec.num_layers, n))
    states[0, tables.top] = 1.0
    for l in range(1, spec.num_layers):
        states[l] = states[l - 1] @ kernels[l - 1]

    grad = np.empty_like(np.asarray(alpha.logits))
    adjoint = np.zeros(n)
    for l in range(spec.num_layers, 0, -1):
        adjoint_p = costs[l - 1] + adjoint
        # d cost / d q[e]: pair every previous state m with edge partition e
        adjoint_q = states[l - 1] @ adjoint_p[tables.meet_idx]
        w = _assignment_weights(pis[l - 1], tables)
        coeff = adjoint_q[tables.induced] * w
        dpi = np.stack(
            [
                np.bincount(
                    tables.assignments[:, t], weights=coeff, minlength=num_tasks
                )
                for t in range(num_tasks)
            ]
        ) / pis[l - 1]
        inner = (dpi * pis[l - 1]).sum(axis=1, keepdims=True)
        grad[:, l - 1, :] = pis[l - 1] * (dpi - inner)
        adjoint = kernels[l - 1] @ adjoint_p
    return grad


def brute_force_expected_cost(alpha: ArchitectureParams, spec: SupergraphSpec) -> float:
    """Oracle: enumerate every joint routing and average structure costs.

    Walks all T^(T*L) routings one by one; only the probability product and
    the per-routing meet chain are vectorized. Guarded because the count
    explodes; past the guard, sample routings and average instead.
    """
    _check_dims(alpha, spec)
    num_tasks, num_layers = spec.num_tasks, spec.num_layers
    total = num_tasks ** (num_tasks * num_layers)
    if total > ENUM_GUARD:
        raise BoundsError(
            f"{total} joint routings exceed the enumeration guard {ENUM_GUARD}; "
            "use Monte Carlo sampling instead"
        )
    tables = _edge_tables(num_tasks)
    per_layer = tables.assignments.shape[0]
    units = spec.cost_table.unit_cost

    routing = np.arange(total)
    prob = np.ones(total)
    cost = np.zeros(total)
    kappa = np.full(total, tables.top, dtype=np.int64)
    for l in range(num_layers):
        w = _assignment_weights(_layer_probs(alpha, l + 1), tables)
        col = (routing // per_layer ** (num_layers - 1 - l)) % per_layer
        prob *= w[col]
        kappa = tables.meet_idx[kappa, tables.induced[col]]
        cost += tables.num_blocks[kappa] * units[l]
    return float(prob @ cost)
