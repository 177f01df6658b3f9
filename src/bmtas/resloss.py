"""Exact expected resource cost of a routing distribution, and its gradient.

Tasks share an operation at layer l while their edge picks agree at every
layer 1..l, so the number of blocks at layer l is the number of distinct
pick paths. Counting distinct paths by inclusion-exclusion over nonempty
task subsets M (Moebius inversion on the Boolean lattice, Rota 1964):

    E[#blocks_l] = sum_M (-1)^(|M|-1) prod_{j<=l} A_j(M),
    A_j(M) = sum_c prod_{u in M} pi_j[u, c],

where A_j(M) is the probability that all tasks of M pick one edge at layer
j. Cost and gradient take O(2^T * T^2 * L) work and no partition lattice.

The grouping distribution comes from the same subset table: the chance
that kappa_l is a grouping k or coarser is a product of per-block agreement
chances, and Moebius inversion over the coarsenings of k turns it into
P(kappa_l = k). The grouping chain kappa_1, ..., kappa_L is Markov, kappa_l
being the meet of kappa_{l-1} with the edge-equality partition of layer l;
its per-layer transition kernel over the partition lattice, and a literal
enumeration of every joint routing, are kept as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import factorial, softmax

from .errors import BoundsError, DimensionMismatch, NumericError
from .graph import SupergraphSpec
from .partition import Partition, enumerate_partitions
from .partition import meet  # benchmarks/tracing.py counts calls through this name

ENUM_GUARD = 10 ** 6

# grouping-chain probabilities below this are zeroed and the layer renormalized
CLAMP_EPS = 1e-15

# label rows canonicalized per pass while the lattice tables are built
_CHUNK = 1 << 17


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
    induced: np.ndarray


def _rgs_codes(labels: np.ndarray, place: np.ndarray) -> np.ndarray:
    """Base-T code of the canonical RGS of each label row.

    Each task takes the block of the first task with its label; blocks are
    numbered by counting the tasks that are first with their label.
    """
    first = (labels[:, :, None] == labels[:, None, :]).argmax(axis=2)
    block = np.cumsum(first == np.arange(labels.shape[1]), axis=1) - 1
    return np.take_along_axis(block, first, axis=1) @ place


@lru_cache(maxsize=None)
def _edge_tables(num_tasks: int) -> _EdgeTables:
    """Partition-lattice lookup tables shared by the kernel and the oracle.

    meet_idx[i, j] is the index of meet(partitions[i], partitions[j]).
    induced[a] is the index of the edge-equality partition of joint edge
    choice a, where task u picks edge (a // T^(T-1-u)) % T.
    """
    parts = enumerate_partitions(num_tasks)
    rgs = np.array([p.rgs for p in parts])
    n, t = len(parts), num_tasks
    place = t ** np.arange(t - 1, -1, -1)
    # lexicographic RGS order is ascending base-T code order
    codes = rgs @ place

    def index_of(labels_of, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int32)
        for lo in range(0, count, _CHUNK):
            rows = labels_of(np.arange(lo, min(lo + _CHUNK, count)))
            out[lo : lo + len(rows)] = np.searchsorted(codes, _rgs_codes(rows, place))
        return out

    # the meet groups tasks whose label pairs agree; pair (a, b) is a*T + b
    meet_idx = index_of(lambda r: rgs[r // n] * t + rgs[r % n], n * n).reshape(n, n)
    induced = index_of(lambda a: a[:, None] // place % t, t ** t)
    return _EdgeTables(
        partitions=parts,
        num_blocks=rgs.max(axis=1) + 1.0,
        meet_idx=meet_idx,
        induced=induced,
    )


def _check_dims(alpha: ArchitectureParams, spec: SupergraphSpec):
    if alpha.num_tasks != spec.num_tasks or alpha.num_candidates != spec.num_tasks:
        raise DimensionMismatch("logits task/candidate dims do not match the supergraph")
    if alpha.num_layers != spec.num_layers:
        raise DimensionMismatch("logits layer dim does not match the supergraph")


def _layer_probs(alpha: ArchitectureParams, layer: int) -> np.ndarray:
    """(T, T) matrix of edge probabilities, one row per task."""
    return softmax(alpha.logits[:, layer - 1, :], axis=1)


def _assignment_weights(pi: np.ndarray) -> np.ndarray:
    """Probability of every joint edge assignment under per-task rows pi,
    in the order of _EdgeTables.induced."""
    return reduce(np.multiply.outer, pi).ravel()


# an oracle; it stays here while benchmarks/tracing.py counts calls through this name
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
    w = _assignment_weights(_layer_probs(alpha, layer))
    n = len(tables.partitions)
    q = np.bincount(tables.induced, weights=w, minlength=n)
    kernel = np.zeros((n, n))
    for m in range(n):
        kernel[m] = np.bincount(tables.meet_idx[m], weights=q, minlength=n)
    return kernel


def grouping_distribution(
    alpha: ArchitectureParams, spec: SupergraphSpec
) -> GroupingDistribution:
    """Distribution of the task grouping at every layer under softmax(alpha),
    clamped at CLAMP_EPS per layer.

    P(kappa_l is k or coarser) = prod_{B in k} h_l(B), h_l(B) being the chance
    that B's tasks agree at layers 1..l. Moebius inversion over the merges
    sigma of k's blocks gives P(kappa_l = k) = sum_sigma mu(sigma) prod_{S in
    sigma} h_l(union of S), mu(sigma) = prod_{S in sigma} (-1)^(|S|-1) (|S|-1)!.
    """
    parts = enumerate_partitions(alpha.num_tasks)  # bounds T before 2^T rows
    h = np.cumprod(_subsets(alpha, spec)[4], axis=1)
    h[0] = 1.0  # unused merge slots hold the empty mask
    rgs = np.array([p.rgs for p in parts])
    tasks = np.arange(alpha.num_tasks)
    # masks[k, b]: bitmask of block b of parts[k], 0 past its last block
    masks = (rgs[:, None, :] == tasks[:, None]) @ (1 << tasks)
    sizes = rgs.max(axis=1) + 1
    probs = np.empty((len(parts), spec.num_layers))
    for m in range(1, alpha.num_tasks + 1):
        merges = np.array([s.rgs for s in enumerate_partitions(m)])
        onehot = merges[:, :, None] == np.arange(m)
        less = np.maximum(onehot.sum(axis=1) - 1, 0)  # merged block sizes less one
        mu = (-1.0) ** less.sum(axis=1) * factorial(less).prod(axis=1)
        merged = masks[sizes == m, :m] @ onehot
        probs[sizes == m] = np.einsum("s,skl->kl", mu, h[merged].prod(axis=2))
    probs = np.where(probs.T < CLAMP_EPS, 0.0, probs.T)
    return GroupingDistribution(parts, probs / probs.sum(axis=1, keepdims=True))


def _subsets(alpha: ArchitectureParams, spec: SupergraphSpec) -> tuple:
    """Edge probabilities pi (T, L, T), unit costs (L,), and over task
    subsets M, indexed by the bitmask with bit u set iff u is in M: the sign
    (-1)^(|M|-1), 0 for the empty subset; prod[M] = prod_{u in M} pi[u]; and
    agree[M, l] = A_l(M), the chance that all of M pick one edge at layer l."""
    _check_dims(alpha, spec)
    pi = softmax(alpha.logits, axis=2)
    prod = np.ones((1,) + pi.shape[1:])
    sign = np.array([-1.0])
    for u in range(alpha.num_tasks):
        # subsets holding u follow, in the same order, those without it
        prod = np.concatenate([prod, prod * pi[u]])
        sign = np.concatenate([sign, -sign])
    sign[0] = 0.0
    costs = np.asarray(spec.cost_table.unit_cost, dtype=np.float64)
    return pi, costs, sign, prod, prod.sum(axis=2)


def expected_cost(alpha: ArchitectureParams, spec: SupergraphSpec) -> float:
    """Expected MAdds of the discretized model under the routing distribution."""
    return _cost_and_grad(alpha, spec, grad=False)[0]


def expected_cost_grad(alpha: ArchitectureParams, spec: SupergraphSpec) -> np.ndarray:
    """Exact d expected_cost / d logits, shape (T, L, T)."""
    return _cost_and_grad(alpha, spec)[1]


def _cost_and_grad(alpha: ArchitectureParams, spec: SupergraphSpec, grad: bool = True):
    """expected_cost and, if grad, expected_cost_grad from one subset pass.

    With before_j(M) = prod_{i<j} A_i(M) and the tail G_j = c_j + A_{j+1}
    G_{j+1}, G_L = c_L, the cost's derivative in A_j(M) is
    sign_M * before_j(M) * G_j(M), and A_j(M)'s derivative in pi_j[u, c] is
    prod[M - u, j, c] for u in M. The softmax chain rule finishes the job.
    """
    pi, costs, sign, prod, agree = _subsets(alpha, spec)
    cost = float(sign @ np.cumprod(agree, axis=1) @ costs)
    if not grad:
        return cost, None
    num_tasks, num_layers = alpha.num_tasks, alpha.num_layers
    tail = np.empty_like(agree)
    tail[:, -1] = costs[-1]
    for j in range(num_layers - 2, -1, -1):
        tail[:, j] = costs[j] + agree[:, j + 1] * tail[:, j + 1]
    before = np.ones_like(agree)
    before[:, 1:] = np.cumprod(agree[:, :-1], axis=1)
    weight = sign[:, None] * before * tail

    dpi = np.empty_like(pi)
    for u in range(num_tasks):
        # split subsets by bit u: [:, 1] holds u, [:, 0] is the same subset without it
        w = weight.reshape(-1, 2, 1 << u, num_layers)[:, 1]
        rest = prod.reshape(-1, 2, 1 << u, num_layers, num_tasks)[:, 0]
        dpi[u] = np.einsum("abl,ablc->lc", w, rest)
    return cost, pi * (dpi - (dpi * pi).sum(axis=2, keepdims=True))


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
    per_layer = num_tasks ** num_tasks
    units = spec.cost_table.unit_cost

    routing = np.arange(total)
    prob = np.ones(total)
    cost = np.zeros(total)
    kappa = np.zeros(total, dtype=np.int64)  # all tasks share: index 0
    for l in range(num_layers):
        w = _assignment_weights(_layer_probs(alpha, l + 1))
        col = (routing // per_layer ** (num_layers - 1 - l)) % per_layer
        prob *= w[col]
        kappa = tables.meet_idx[kappa, tables.induced[col]]
        cost += tables.num_blocks[kappa] * units[l]
    return float(prob @ cost)
