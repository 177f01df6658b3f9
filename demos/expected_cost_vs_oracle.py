"""Expected resource cost under stochastic routing, three ways:
inclusion-exclusion over task subsets, literal enumeration of every joint
routing, and finite differences against the analytic gradient. Moebius
inversion over the coarsenings of each grouping gives the grouping
distribution."""

import numpy as np

from bmtas.graph import CostTable, SupergraphSpec
from bmtas.partition import Partition
from bmtas.resloss import (
    ArchitectureParams,
    brute_force_expected_cost,
    expected_cost,
    expected_cost_grad,
    grouping_distribution,
)
from bmtas.seeding import rng_stream

rng = rng_stream(0, "demo-oracle")
table = CostTable([1.0, 1.0])

print("== uniform routing over two tasks, two layers ==")
alpha = ArchitectureParams.zeros(2, 2)
print(f"subsets  : {expected_cost(alpha, table):.6f}")
print(f"oracle   : {brute_force_expected_cost(alpha, table):.6f}")

dist = grouping_distribution(alpha, table)
for layer in (1, 2):
    print(f"P(layer {layer} shared) = {dist.prob(layer, Partition((0, 0))):.4f}")

print()
print("== random logits, larger instance ==")
table3 = SupergraphSpec([8, 8, 8, 8]).cost_table
logits = rng.normal(scale=2.0, size=(3, 3, 3))
alpha3 = ArchitectureParams(logits)
fast = expected_cost(alpha3, table3)
slow = brute_force_expected_cost(alpha3, table3)
print(f"subsets  : {fast:.9f}")
print(f"oracle   : {slow:.9f}")
print(f"|diff|   : {abs(fast - slow):.2e}")

print()
print("== analytic gradient vs central differences ==")
grad = expected_cost_grad(alpha3, table3)
h = 1e-5
worst = 0.0
for idx in np.ndindex(logits.shape):
    bump = logits.copy()
    bump[idx] += h
    up = expected_cost(ArchitectureParams(bump), table3)
    bump[idx] -= 2 * h
    dn = expected_cost(ArchitectureParams(bump), table3)
    worst = max(worst, abs(grad[idx] - (up - dn) / (2 * h)))
print(f"max |analytic - FD| over {logits.size} logits: {worst:.2e}")
print(f"gradient sums to {grad.sum():+.2e} (shift invariance)")
