"""Multi-task drop metric on published benchmark rows, and representational
similarity between per-task encoders as an independent relatedness signal."""

import numpy as np

from bmtas.eval import (
    MetricRecord,
    SyntheticTaskSpec,
    delta_m,
    generate_tasks,
    rsa_matrix,
)
from bmtas.graph import SupergraphSpec, derive_groupings
from bmtas.partition import Partition
from bmtas.search import SearchConfig, retrain
from bmtas.seeding import rng_stream

print("== average per-task drop of a shared encoder vs single-task models ==")
# five dense-prediction tasks; the fourth metric is an error (lower is better)
single = MetricRecord(
    values=(65.11, 57.54, 65.41, 13.98, 69.50),
    lower_better=(False, False, False, True, False),
)
shared = MetricRecord(
    values=(59.69, 55.96, 63.03, 16.02, 67.80),
    lower_better=(False, False, False, True, False),
)
print(f"delta_m = {delta_m(shared, single):+.2f}%  (negative means net drop)")

print()
print("== RSA on per-task encoders of the pair benchmark ==")
spec = SyntheticTaskSpec(
    num_tasks=4,
    input_dim=16,
    hidden_dim=8,
    target_dim=4,
    relatedness=Partition((0, 0, 1, 1)),
)
data = generate_tasks(spec, rng_stream(0, "data"))
supergraph = SupergraphSpec([16, 8, 8, 8])

# train every task on its own branch so the features share nothing but data
picks = [[t] * 3 for t in range(4)]
model = retrain(derive_groupings(picks), supergraph, data, SearchConfig(seed=0))
rsa = rsa_matrix(model.features(data.inputs_test))

print("task-by-task similarity of probe dissimilarity patterns:")
with np.printoptions(precision=3, suppress=True):
    print(rsa)
print("within generating pairs:", f"{rsa[0, 1]:.3f}", f"{rsa[2, 3]:.3f}")
print("across pairs:           ",
      " ".join(f"{rsa[i, j]:.3f}" for i, j in ((0, 2), (0, 3), (1, 2), (1, 3))))
