"""Expected resource cost under stochastic routing, three ways:
inclusion-exclusion over task subsets, literal enumeration of every joint
routing, and finite differences against the analytic gradient. Moebius
inversion over the coarsenings of each grouping gives the grouping
distribution."""

import numpy as np

from bmtas.graph import SupergraphSpec
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
spec = SupergraphSpec.chain([4, 4, 4], num_tasks=2, unit_costs=[1.0, 1.0])

print("== uniform routing over two tasks, two layers ==")
alpha = ArchitectureParams.zeros(2, 2)
print(f"subsets  : {expected_cost(alpha, spec):.6f}")
print(f"oracle   : {brute_force_expected_cost(alpha, spec):.6f}")

dist = grouping_distribution(alpha, spec)
for layer in (1, 2):
    print(f"P(layer {layer} shared) = {dist.prob(layer, Partition((0, 0))):.4f}")

print()
print("== random logits, larger instance ==")
spec3 = SupergraphSpec.chain([8, 8, 8, 8], num_tasks=3)
logits = rng.normal(scale=2.0, size=(3, 3, 3))
alpha3 = ArchitectureParams(logits)
fast = expected_cost(alpha3, spec3)
slow = brute_force_expected_cost(alpha3, spec3)
print(f"subsets  : {fast:.9f}")
print(f"oracle   : {slow:.9f}")
print(f"|diff|   : {abs(fast - slow):.2e}")

print()
print("== analytic gradient vs central differences ==")
grad = expected_cost_grad(alpha3, spec3)
h = 1e-5
worst = 0.0
for idx in np.ndindex(logits.shape):
    bump = logits.copy()
    bump[idx] += h
    up = expected_cost(ArchitectureParams(bump), spec3)
    bump[idx] -= 2 * h
    dn = expected_cost(ArchitectureParams(bump), spec3)
    worst = max(worst, abs(grad[idx] - (up - dn) / (2 * h)))
print(f"max |analytic - FD| over {logits.size} logits: {worst:.2e}")
print(f"gradient sums to {grad.sum():+.2e} (shift invariance)")
