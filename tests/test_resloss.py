import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bmtas.errors import BoundsError, DimensionMismatch, NumericError
from bmtas.graph import SupergraphSpec, derive_groupings, structure_cost
from bmtas.graph import RoutingMask
from bmtas.partition import Partition, refines
from bmtas.resloss import (
    ENUM_GUARD,
    ArchitectureParams,
    brute_force_expected_cost,
    expected_cost,
    expected_cost_grad,
    grouping_distribution,
    transition_kernel,
)
from conftest import central_diff, random_alpha, relative_error


def unit_spec(num_tasks, num_layers):
    widths = [4] * (num_layers + 1)
    return SupergraphSpec.chain(widths, num_tasks, unit_costs=[1.0] * num_layers)


def forcing_alpha(choices_by_task, num_layers, num_tasks, lo=-60.0, hi=60.0):
    """Logits so extreme the routing distribution is effectively degenerate."""
    logits = np.full((num_tasks, num_layers, num_tasks), lo)
    for t, row in enumerate(choices_by_task):
        for l, j in enumerate(row):
            logits[t, l, j] = hi
    return ArchitectureParams(logits)


class TestArchitectureParams:
    def test_shape_and_finiteness(self):
        with pytest.raises(DimensionMismatch):
            ArchitectureParams(np.zeros((2, 2)))
        with pytest.raises(NumericError):
            ArchitectureParams(np.full((2, 1, 2), np.nan))

    def test_zeros_and_json_round_trip(self):
        a = ArchitectureParams.zeros(3, 2)
        assert a.num_tasks == 3 and a.num_layers == 2 and a.num_candidates == 3
        assert np.array_equal(a.logits, np.zeros((3, 2, 3)))
        b = ArchitectureParams.from_json([[[0.0, 1.5]], [[-2.0, 0.0]]])
        assert np.array_equal(b.logits, [[[0.0, 1.5]], [[-2.0, 0.0]]])

    def test_logits_read_only(self):
        a = ArchitectureParams.zeros(2, 1)
        with pytest.raises(ValueError):
            a.logits[0, 0, 0] = 1.0


class TestTransitionKernel:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        a = ArchitectureParams(random_alpha(rng, 3, 2))
        k = transition_kernel(a, 1)
        assert np.all(k >= 0)
        assert np.allclose(k.sum(axis=1), 1.0)

    def test_support_never_coarsens(self):
        rng = np.random.default_rng(1)
        a = ArchitectureParams(random_alpha(rng, 4, 1))
        k = transition_kernel(a, 1)
        from bmtas.partition import enumerate_partitions

        parts = enumerate_partitions(4)
        for m in range(len(parts)):
            for j in range(len(parts)):
                if k[m, j] > 0:
                    assert refines(parts[j], parts[m])

    def test_uniform_two_task_kernel(self):
        a = ArchitectureParams.zeros(2, 1)
        k = transition_kernel(a, 1)
        # from the shared state, the two edges agree with probability 1/2
        assert np.allclose(k[0], [0.5, 0.5])
        # from the split state everything stays split
        assert np.allclose(k[1], [0.0, 1.0])

    def test_layer_bounds(self):
        a = ArchitectureParams.zeros(2, 1)
        with pytest.raises(BoundsError):
            transition_kernel(a, 2)


class TestGroupingDistribution:
    def test_worked_example_two_tasks_two_layers(self):
        a = ArchitectureParams.zeros(2, 2)
        dist = grouping_distribution(a, unit_spec(2, 2))
        shared = Partition((0, 0))
        assert dist.prob(1, shared) == pytest.approx(0.5)
        assert dist.prob(2, shared) == pytest.approx(0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        a = ArchitectureParams(random_alpha(rng, 3, 3))
        dist = grouping_distribution(a, unit_spec(3, 3))
        assert np.allclose(dist.layers.sum(axis=1), 1.0)
        assert np.all(dist.layers >= 0)

    def test_prob_layer_bounds(self):
        dist = grouping_distribution(ArchitectureParams.zeros(2, 1), unit_spec(2, 1))
        with pytest.raises(BoundsError):
            dist.prob(0, Partition((0, 0)))
        with pytest.raises(BoundsError):
            dist.prob(2, Partition((0, 0)))


class TestExpectedCost:
    def test_worked_example_uniform(self):
        a = ArchitectureParams.zeros(2, 2)
        assert expected_cost(a, unit_spec(2, 2)) == pytest.approx(3.25)

    def test_degenerate_alpha_equals_structure_cost(self):
        choices = [(0, 0, 0), (0, 1, 1), (2, 2, 2)]
        a = forcing_alpha(choices, 3, 3)
        spec = SupergraphSpec.chain([4, 4, 4, 4], 3, unit_costs=[2.0, 3.0, 5.0])
        masks = [RoutingMask.from_choices(t, c, 3) for t, c in enumerate(choices)]
        s = derive_groupings(masks)
        assert expected_cost(a, spec) == pytest.approx(
            structure_cost(s, spec.cost_table), abs=1e-12
        )

    def test_extremes(self):
        shared = forcing_alpha([(0, 0), (0, 0), (0, 0)], 2, 3)
        branched = forcing_alpha([(0, 0), (1, 1), (2, 2)], 2, 3)
        spec = unit_spec(3, 2)
        assert expected_cost(shared, spec) == pytest.approx(2.0)
        assert expected_cost(branched, spec) == pytest.approx(6.0)

    def test_spec_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            expected_cost(ArchitectureParams.zeros(2, 1), unit_spec(3, 1))
        with pytest.raises(DimensionMismatch):
            expected_cost(ArchitectureParams.zeros(2, 2), unit_spec(2, 1))


alpha_st = st.tuples(st.integers(2, 3), st.integers(1, 3)).flatmap(
    lambda tl: arrays(
        np.float64,
        (tl[0], tl[1], tl[0]),
        elements=st.floats(-8, 8, allow_nan=False),
    )
)


@given(alpha_st)
@settings(max_examples=40, deadline=None)
def test_expected_cost_bounded_by_extremes(logits):
    a = ArchitectureParams(logits)
    spec = unit_spec(a.num_tasks, a.num_layers)
    cost = expected_cost(a, spec)
    assert spec.num_layers - 1e-9 <= cost <= a.num_tasks * spec.num_layers + 1e-9


@given(alpha_st, st.floats(-5, 5))
@settings(max_examples=25, deadline=None)
def test_expected_cost_shift_invariant(logits, shift):
    a = ArchitectureParams(logits)
    b = ArchitectureParams(logits + shift)
    spec = unit_spec(a.num_tasks, a.num_layers)
    assert expected_cost(a, spec) == pytest.approx(expected_cost(b, spec), rel=1e-12)


class TestOracle:
    @pytest.mark.parametrize("num_tasks,num_layers", [(2, 2), (2, 3), (3, 2)])
    def test_matches_markov_chain(self, num_tasks, num_layers):
        rng = np.random.default_rng(3)
        spec = unit_spec(num_tasks, num_layers)
        for _ in range(10):
            a = ArchitectureParams(random_alpha(rng, num_tasks, num_layers))
            assert abs(
                expected_cost(a, spec) - brute_force_expected_cost(a, spec)
            ) <= 1e-9

    def test_guard_refuses_large_spaces(self):
        a = ArchitectureParams.zeros(4, 3)
        assert 4 ** 12 > ENUM_GUARD
        with pytest.raises(BoundsError, match="Monte Carlo"):
            brute_force_expected_cost(a, unit_spec(4, 3))


class TestGradient:
    @pytest.mark.parametrize("num_tasks,num_layers", [(2, 2), (3, 2), (2, 3)])
    def test_matches_finite_differences(self, num_tasks, num_layers):
        rng = np.random.default_rng(4)
        spec = unit_spec(num_tasks, num_layers)
        logits = random_alpha(rng, num_tasks, num_layers)
        grad = expected_cost_grad(ArchitectureParams(logits), spec)
        fd = central_diff(
            lambda x: expected_cost(ArchitectureParams(x.copy()), spec), logits
        )
        assert relative_error(grad, fd) <= 1e-6

    def test_shape_and_shift_null_direction(self):
        # shift invariance means the gradient sums to zero over candidates
        rng = np.random.default_rng(5)
        a = ArchitectureParams(random_alpha(rng, 3, 3))
        grad = expected_cost_grad(a, unit_spec(3, 3))
        assert grad.shape == (3, 3, 3)
        assert np.allclose(grad.sum(axis=2), 0.0, atol=1e-12)

    def test_zero_at_saturation(self):
        # a fully decided routing sits on a plateau
        a = forcing_alpha([(0,), (1,)], 1, 2, lo=-200.0, hi=200.0)
        grad = expected_cost_grad(a, unit_spec(2, 1))
        assert np.allclose(grad, 0.0)


def test_clamped_chain_survives_extreme_logits():
    a = forcing_alpha([(0, 0), (1, 1), (2, 2)], 2, 3, lo=-300.0, hi=300.0)
    spec = unit_spec(3, 2)
    dist = grouping_distribution(a, spec)
    assert np.all(np.isfinite(dist.layers))
    assert np.allclose(dist.layers.sum(axis=1), 1.0)
    assert expected_cost(a, spec) == pytest.approx(6.0, abs=1e-12)
