"""Expected cost of a routing distribution, computed apart from bmtas.

Tasks pick one candidate per layer independently, with probabilities
softmax(logits[t, l]). Tasks share an operation at layer l while their
picks agree at every layer up to l, so the number of blocks at layer l
is the number of distinct pick paths through layers 1..l, and the
expected cost is sum_l unit_cost[l] * E[#blocks_l].

Nothing here imports bmtas: the benchmark uses these functions to check
the program's answers.
"""

from __future__ import annotations

import itertools

import numpy as np


def softmax_rows(logits) -> np.ndarray:
    """Softmax over the last axis of a (task, layer, candidate) tensor."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def expected_cost_ie(logits, unit_costs) -> float:
    """Inclusion-exclusion over task subsets, O(2^T * T * L).

    A block is counted at its smallest task t: t is smallest in its block
    at layer l iff no task u < t shares t's path through layers 1..l, so

        E[#blocks_l] = sum_t sum_{S <= {0..t-1}} (-1)^|S|
                       prod_{j <= l} sum_c prod_{u in S+{t}} pi_j[u, c].
    """
    pi = softmax_rows(logits)
    costs = np.asarray(unit_costs, dtype=np.float64)
    num_tasks = pi.shape[0]
    total = 0.0
    for t in range(num_tasks):
        for size in range(t + 1):
            sign = -1.0 if size % 2 else 1.0
            for subset in itertools.combinations(range(t), size):
                members = list(subset) + [t]
                agree = pi[members].prod(axis=0).sum(axis=-1)
                total += sign * float(np.cumprod(agree) @ costs)
    return total


def expected_cost_enum(logits, unit_costs) -> float:
    """Literal enumeration of every joint routing; C^(T*L) terms, tiny sizes only."""
    pi = softmax_rows(logits)
    num_tasks, num_layers, num_candidates = pi.shape
    total = 0.0
    for flat in itertools.product(range(num_candidates), repeat=num_tasks * num_layers):
        picks = [flat[t * num_layers : (t + 1) * num_layers] for t in range(num_tasks)]
        prob = 1.0
        for t, row in enumerate(picks):
            for l, c in enumerate(row):
                prob *= pi[t, l, c]
        cost = 0.0
        for l in range(num_layers):
            paths = {row[: l + 1] for row in picks}
            cost += unit_costs[l] * len(paths)
        total += prob * cost
    return total
