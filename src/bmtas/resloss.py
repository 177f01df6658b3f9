"""Exact expected resource cost of a routing distribution, its gradient,
and the per-layer distribution of the task grouping.

The number of blocks at layer l is the number of distinct pick paths up to
it (see `graph.BranchedStructure`). Counting distinct paths by
inclusion-exclusion over nonempty task subsets M (Moebius inversion on the
Boolean lattice, Rota 1964):

    E[#blocks_l] = sum_M (-1)^(|M|-1) prod_{j<=l} A_j(M),
    A_j(M) = sum_c prod_{u in M} pi_j[u, c],

where A_j(M) is the probability that all tasks of M pick one edge at layer
j. Cost and gradient take O(2^T * T^2 * L) work and no partition lattice,
and `grouping_distribution` reads the same subset table. The lattice's
tables of meets are built only for two oracles: `transition_kernel` and an
enumeration of every joint routing.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BoundsError, DimensionMismatch, NumericError
from .graph import CostTable
from .partition import MAX_TASKS, Partition, block_masks, rgs_table
from .partition import enumerate_partitions  # benchmarks/tracing.py patches this name
from .partition import meet  # benchmarks/tracing.py counts calls through this name

ENUM_GUARD = 10 ** 6

# grouping-chain probabilities below this are zeroed and the layer renormalized
CLAMP_EPS = 1e-15

# label rows canonicalized per pass while the lattice tables are built, and
# layers gathered per pass of grouping_distribution
_CHUNK, _LAYER_BLOCK = 1 << 17, 32


def softmax(x, axis=None) -> np.ndarray:
    """exp(x) normalized over axis (all of x for None), shifted by the max
    first; the same operations, so the same bits, as scipy.special.softmax."""
    x = np.asarray(x)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


class ArchitectureParams:
    """Unnormalized log probabilities over candidate edges, one per task.

    logits[t, l, j] scores candidate j for task t at layer l+1; rows are
    unconstrained reals and only become probabilities through a softmax.
    The only check of the (T, L, T) shape and of 1 <= T <= MAX_TASKS.
    """

    def __init__(self, logits):
        logits = np.array(logits, dtype=np.float64)
        if logits.ndim != 3 or logits.shape[2] != logits.shape[0]:
            raise DimensionMismatch("logits must be a (task, layer, task) tensor")
        if not 1 <= logits.shape[0] <= MAX_TASKS:
            raise BoundsError(f"{logits.shape[0]} tasks; supported range is 1..{MAX_TASKS}")
        if not np.isfinite(logits).all():
            raise NumericError("logits contain NaN or Inf")
        logits.setflags(write=False)
        self.logits = logits

    @property
    def num_tasks(self) -> int:
        return self.logits.shape[0]

    @property
    def num_layers(self) -> int:
        return self.logits.shape[1]

    @classmethod
    def zeros(cls, num_tasks: int, num_layers: int) -> "ArchitectureParams":
        return cls(np.zeros((num_tasks, num_layers, num_tasks)))

    @classmethod
    def from_json(cls, obj: Sequence) -> "ArchitectureParams":
        """Logits read from JSON must be numbers: numpy would read "1" and true as 1."""
        logits = np.array(obj, dtype=np.float64)  # the one conversion
        if logits.ndim == 3 and any(type(v) not in (int, float) for t in obj for r in t for v in r):
            raise TypeError("logits must be JSON numbers, not booleans or strings")
        return cls(logits)


class GroupingDistribution(NamedTuple):
    """layers[l - 1, i] is the chance that the grouping at layer l has the
    RGS rgs[i]; rgs is rgs_table(T)."""

    rgs: np.ndarray
    layers: np.ndarray

    def prob(self, layer: int, k: Partition) -> float:
        """p(kappa_layer = k), layer counted from 1."""
        if not 1 <= layer <= self.layers.shape[0]:
            raise BoundsError(f"layer {layer} out of range")
        if k.num_tasks != self.rgs.shape[1]:
            raise DimensionMismatch(f"{k} does not group {self.rgs.shape[1]} tasks")
        row = (self.rgs == k.rgs).all(axis=1).argmax()
        return float(self.layers[layer - 1, row])


def _rgs_codes(labels: np.ndarray, place: np.ndarray) -> np.ndarray:
    """Base-T code of the canonical RGS of each label row.

    Each task takes the block of the first task with its label; blocks are
    numbered by counting the tasks that are first with their label.
    """
    first = (labels[:, :, None] == labels[:, None, :]).argmax(axis=2)
    block = np.cumsum(first == np.arange(labels.shape[1]), axis=1) - 1
    return np.take_along_axis(block, first, axis=1) @ place


@lru_cache(maxsize=None)
def _edge_tables(num_tasks: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition-lattice lookup tables (meet_idx, induced) shared by the
    kernel and the oracle, over the groupings of rgs_table(num_tasks) by index.

    meet_idx[i, j] is the index of the meet of groupings i and j.
    induced[a] is the index of the edge-equality partition of joint edge
    choice a, where task u picks edge (a // T^(T-1-u)) % T.
    """
    rgs = rgs_table(num_tasks)
    n, t = rgs.shape
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
    return meet_idx, induced


def _check_dims(alpha: ArchitectureParams, table: CostTable):
    if alpha.num_layers != table.num_layers:
        raise DimensionMismatch("logits layer dim does not match the cost table")


def _layer_probs(alpha: ArchitectureParams, layer: int) -> np.ndarray:
    """(T, T) matrix of edge probabilities, one row per task."""
    return softmax(alpha.logits[:, layer - 1, :], axis=1)


def _assignment_weights(pi: np.ndarray) -> np.ndarray:
    """Probability of every joint edge assignment under per-task rows pi,
    in the order of the induced table of _edge_tables."""
    return reduce(np.multiply.outer, pi).ravel()


# an oracle; it stays here while benchmarks/tracing.py counts calls through this name
def transition_kernel(alpha: ArchitectureParams, layer: int) -> np.ndarray:
    """P[m][k] = probability that meet(m, edge partition at `layer`) equals k:
    the grouping chain kappa_1, ..., kappa_L is Markov, kappa_l being the meet
    of kappa_{l-1} with the edge-equality partition of layer l.

    Rows are distributions over the groupings of rgs_table(T); support stays
    inside the refinements of m because a meet never coarsens.
    """
    if not 1 <= layer <= alpha.num_layers:
        raise BoundsError(f"layer {layer} out of range")
    meet_idx, induced = _edge_tables(alpha.num_tasks)
    w = _assignment_weights(_layer_probs(alpha, layer))
    n = len(meet_idx)
    q = np.bincount(induced, weights=w, minlength=n)
    kernel = np.zeros((n, n))
    for m in range(n):
        kernel[m] = np.bincount(meet_idx[m], weights=q, minlength=n)
    return kernel


@lru_cache(maxsize=None)
def _merge_tables(num_tasks: int) -> tuple:
    """Per block count m: which groupings k of rgs_table(num_tasks) have m
    blocks, mu of each merge s of m blocks, and merged[j, s, k], the bitmask
    of the union of k's blocks that s puts in block j, or 0. merged is built
    flat, in row j * n + s for n merges: block-major, so each block's gather
    index is one contiguous array."""
    rgs = rgs_table(num_tasks)
    masks = block_masks(num_tasks)
    sizes = rgs.max(axis=1) + 1
    last = ((rgs > 0) * np.arange(num_tasks)).max(axis=1)  # the last nonzero entry
    factorials = np.array([math.factorial(k) for k in range(num_tasks)], dtype=np.float64)
    tables = []
    for m in range(1, num_tasks + 1):
        rows = sizes == m
        merges = rgs[last < m, :m]  # rgs_table(m): the rows with a zero tail
        n = len(merges)
        s = np.arange(n)
        counts = np.bincount((merges + m * s[:, None]).ravel(), minlength=n * m)
        merged = np.zeros((m * n, rows.sum()), dtype=np.int64)
        for flat, bits in zip(merges.T * n + s, masks[rows, :m].T.copy()):  # contiguous rows
            merged[flat] += bits  # k's blocks are disjoint: the sum is the union
        less = np.maximum(counts.reshape(n, m) - 1, 0)  # merged block sizes less one
        mu = (-1.0) ** less.sum(axis=1) * factorials[less].prod(axis=1)
        tables.append((rows, mu, merged.reshape(m, n, -1)))
    return tuple(tables)


def grouping_distribution(alpha: ArchitectureParams, table: CostTable) -> GroupingDistribution:
    """Distribution of the task grouping at every layer under softmax(alpha),
    clamped at CLAMP_EPS per layer.

    P(kappa_l is k or coarser) = prod_{B in k} h_l(B), h_l(B) being the chance
    that B's tasks agree at layers 1..l. Moebius inversion over the merges
    sigma of k's blocks gives P(kappa_l = k) = sum_sigma mu(sigma) prod_{S in
    sigma} h_l(union of S), mu(sigma) = prod_{S in sigma} (-1)^(|S|-1) (|S|-1)!.
    It gathers _LAYER_BLOCK layers at a time, so that its memory is bounded.
    """
    rgs = rgs_table(alpha.num_tasks)
    h = np.cumprod(_subsets(alpha, table)[4], axis=1)  # h[0] = 1 fills unused merge slots
    probs = np.empty((len(rgs), alpha.num_layers))
    # a one-layer block of a longer chain would have einsum sum over s innermost, rounding otherwise
    edges = [*range(0, max(alpha.num_layers - 1, 1), _LAYER_BLOCK), alpha.num_layers]
    for lo, hi in zip(edges, edges[1:]):
        part = np.ascontiguousarray(h[:, lo:hi])  # a view, not a copy, for one block
        for rows, mu, merged in _merge_tables(alpha.num_tasks):
            # h[merged].prod(axis=0) one block at a time, in block order: the same
            # products, no 4-D gather; np.take is numpy's fast path for one axis
            prod = np.take(part, merged[0], axis=0)
            for idx in merged[1:]:
                prod *= np.take(part, idx, axis=0)
            probs[rows, lo:hi] = np.einsum("s,skl->kl", mu, prod)
    probs = np.where(probs.T < CLAMP_EPS, 0.0, probs.T)
    return GroupingDistribution(rgs, probs / probs.sum(axis=1, keepdims=True))


@lru_cache(maxsize=None)
def _subset_signs(num_tasks: int) -> np.ndarray:
    """The sign column of `_subsets`, built once per task count; read-only."""
    sign = np.array([0.0] + [(-1.0) ** (m.bit_count() - 1) for m in range(1, 1 << num_tasks)])
    sign.setflags(write=False)
    return sign


def _subsets(alpha: ArchitectureParams, table: CostTable) -> tuple:
    """Edge probabilities pi (T, L, T), unit costs (L,), and over task
    subsets M, indexed by the bitmask with bit u set iff u is in M: the sign
    (-1)^(|M|-1), 0 for the empty subset; prod[M] = prod_{u in M} pi[u]; and
    agree[M, l] = A_l(M), and 1 for the empty subset: its T ones summed would
    grow to T^l over the layers, past the largest float in a deep chain, and
    0 * inf is NaN."""
    _check_dims(alpha, table)
    pi = softmax(alpha.logits, axis=2)
    prod = np.empty((1 << alpha.num_tasks,) + pi.shape[1:])
    prod[0] = 1.0
    for u in range(alpha.num_tasks):
        # subsets holding u follow, in the same order, those without it
        np.multiply(prod[: 1 << u], pi[u], out=prod[1 << u : 2 << u])
    agree = prod.sum(axis=2)
    agree[0] = 1.0
    costs = np.asarray(table.unit_cost, dtype=np.float64)
    return pi, costs, _subset_signs(alpha.num_tasks), prod, agree


def expected_cost(alpha: ArchitectureParams, table: CostTable) -> float:
    """Expected MAdds of the discretized model under the routing distribution."""
    return _cost_and_grad(alpha, table, grad=False)[0]


def expected_cost_grad(alpha: ArchitectureParams, table: CostTable) -> np.ndarray:
    """Exact d expected_cost / d logits, shape (T, L, T)."""
    return _cost_and_grad(alpha, table)[1]


def _cost_and_grad(alpha: ArchitectureParams, table: CostTable, grad: bool = True):
    """expected_cost and, if grad, expected_cost_grad from one subset pass.

    With before_j(M) = prod_{i<j} A_i(M) and the tail G_j = c_j + A_{j+1}
    G_{j+1}, G_L = c_L, the cost's derivative in A_j(M) is
    sign_M * before_j(M) * G_j(M), and A_j(M)'s derivative in pi_j[u, c] is
    prod[M - u, j, c] for u in M. The softmax chain rule finishes the job.
    """
    pi, costs, sign, prod, agree = _subsets(alpha, table)
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


def check_enumerable(alpha: ArchitectureParams) -> int:
    """The number of joint routings, T^(T*L); BoundsError past ENUM_GUARD."""
    total = alpha.num_tasks ** (alpha.num_tasks * alpha.num_layers)
    if total > ENUM_GUARD:
        raise BoundsError(
            f"{total} joint routings exceed the enumeration guard {ENUM_GUARD}; "
            "use fewer tasks or layers, or leave out --oracle"
        )
    return total


def brute_force_expected_cost(alpha: ArchitectureParams, table: CostTable) -> float:
    """Oracle: enumerate every joint routing and average structure costs.

    Walks all T^(T*L) routings one by one; only the probability product and
    the per-routing meet chain are vectorized. check_enumerable guards it,
    because the count explodes; past the guard, only the analytic
    expected_cost is left.
    """
    _check_dims(alpha, table)
    num_tasks, num_layers = alpha.num_tasks, alpha.num_layers
    total = check_enumerable(alpha)
    meet_idx, induced = _edge_tables(num_tasks)
    num_blocks = rgs_table(num_tasks).max(axis=1) + 1.0
    per_layer = num_tasks ** num_tasks
    units = table.unit_cost

    routing = np.arange(total)
    prob = np.ones(total)
    cost = np.zeros(total)
    kappa = np.zeros(total, dtype=np.int64)  # all tasks share: index 0
    for l in range(num_layers):
        w = _assignment_weights(_layer_probs(alpha, l + 1))
        col = (routing // per_layer ** (num_layers - 1 - l)) % per_layer
        prob *= w[col]
        kappa = meet_idx[kappa, induced[col]]
        cost += num_blocks[kappa] * units[l]
    return float(prob @ cost)
