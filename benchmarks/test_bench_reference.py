"""The benchmark's expected-cost reference against a literal enumeration."""

import numpy as np
import pytest

from reference import expected_cost_enum, expected_cost_ie


@pytest.mark.parametrize("num_tasks", [1, 2, 3, 4])
@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("scale", [0.5, 3.0, 30.0])
def test_inclusion_exclusion_matches_enumeration(num_tasks, num_layers, scale):
    rng = np.random.default_rng(100 * num_tasks + 10 * num_layers + int(scale))
    logits = scale * rng.normal(size=(num_tasks, num_layers, num_tasks))
    costs = rng.uniform(1.0, 10.0, size=num_layers)
    fast = expected_cost_ie(logits, costs)
    slow = expected_cost_enum(logits, costs)
    assert abs(fast - slow) <= 1e-12 * slow


def test_extremes_of_sharing():
    costs = [3.0, 5.0]
    # all tasks certain to pick candidate 0 everywhere: one block per layer
    shared = np.full((4, 2, 4), -1e3)
    shared[:, :, 0] = 0.0
    assert expected_cost_ie(shared, costs) == pytest.approx(8.0, rel=1e-12)
    # task t certain to pick candidate t: every task on its own branch
    branched = np.full((4, 2, 4), -1e3)
    for t in range(4):
        branched[t, :, t] = 0.0
    assert expected_cost_ie(branched, costs) == pytest.approx(32.0, rel=1e-12)
