"""End-to-end search on the synthetic pair benchmark.

Four regression tasks share a generating subspace in pairs {0,1} and {2,3}.
Sweeping the resource weight shows the tree folding up: no penalty keeps
every task on its own branch, a small one merges exactly the related pairs,
a heavy one collapses the encoder to a single trunk.
"""

import numpy as np

from bmtas.eval import SyntheticTaskSpec, generate_tasks
from bmtas.graph import SupergraphSpec, structure_cost
from bmtas.partition import Partition
from bmtas.search import SearchConfig, retrain, search
from bmtas.seeding import rng_stream

SEED = 0

spec = SyntheticTaskSpec(
    num_tasks=4,
    input_dim=16,
    hidden_dim=8,
    target_dim=4,
    relatedness=Partition((0, 0, 1, 1)),
)
data = generate_tasks(spec, rng_stream(SEED, "data"))
supergraph = SupergraphSpec([16, 8, 8, 8])

print(f"benchmark: {spec.num_tasks} tasks, generating pairs {spec.relatedness}")
print(f"supergraph: widths {[16, 8, 8, 8]}, "
      f"fully shared cost {supergraph.cost_table.fully_shared_cost:.0f} MAdds")
print()

for lam in (0.0, 0.05, 0.5):
    config = SearchConfig(resource_weight=lam, seed=SEED)
    result = search(config, supergraph, data)
    cost = structure_cost(result.structure, supergraph.cost_table)
    layers = " | ".join(str(g) for g in result.structure.groupings)
    print(f"lambda = {lam:<5}  groupings {layers}   cost {cost:6.0f}")

print()
print("== retraining the lambda = 0.05 structure from scratch ==")
config = SearchConfig(resource_weight=0.05, seed=SEED)
result = search(config, supergraph, data)
model = retrain(result.structure, supergraph, data, config)
for name in data.task_names:
    print(f"  test MSE {name}: {model.test_mse[name]:.5f}")
# the search trace carries per-step tau, losses and the drifting structure
last = result.trace[-1]
print(f"final step: tau = {last.tau:.2f}, "
      f"expected cost = {last.expected_cost:.0f}, hash = {last.structure_hash}")
