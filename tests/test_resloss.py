import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import factorial, softmax

from bmtas import resloss
from bmtas.errors import BoundsError, DimensionMismatch, NumericError
from bmtas.graph import CostTable, SupergraphSpec, derive_groupings, structure_cost
from bmtas.partition import (
    MAX_TASKS,
    Partition,
    enumerate_partitions,
    meet,
    refines,
    rgs_table,
)
from bmtas.resloss import (
    CLAMP_EPS,
    ENUM_GUARD,
    ArchitectureParams,
    _assignment_weights,
    _edge_tables,
    brute_force_expected_cost,
    expected_cost,
    expected_cost_grad,
    grouping_distribution,
    transition_kernel,
)
import engine_reference
from conftest import central_diff, random_alpha, relative_error


def unit_table(num_layers):
    return CostTable([1.0] * num_layers)


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

    @pytest.mark.parametrize("shape", [(2, 1, 3), (3, 1, 2)])
    def test_rejects_other_than_one_candidate_per_task(self, shape):
        with pytest.raises(DimensionMismatch):
            ArchitectureParams(np.zeros(shape))

    @pytest.mark.parametrize("num_tasks", [0, MAX_TASKS + 1])
    def test_rejects_task_counts_outside_one_to_max_tasks(self, num_tasks):
        with pytest.raises(BoundsError):
            ArchitectureParams.zeros(num_tasks, 1)

    def test_zeros_and_json_round_trip(self):
        a = ArchitectureParams.zeros(3, 2)
        assert a.num_tasks == 3 and a.num_layers == 2
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
        dist = grouping_distribution(a, unit_table(2))
        shared = Partition((0, 0))
        assert dist.prob(1, shared) == pytest.approx(0.5)
        assert dist.prob(2, shared) == pytest.approx(0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        a = ArchitectureParams(random_alpha(rng, 3, 3))
        dist = grouping_distribution(a, unit_table(3))
        assert np.allclose(dist.layers.sum(axis=1), 1.0)
        assert np.all(dist.layers >= 0)

    def test_prob_layer_bounds(self):
        dist = grouping_distribution(ArchitectureParams.zeros(2, 1), unit_table(1))
        with pytest.raises(BoundsError):
            dist.prob(0, Partition((0, 0)))
        with pytest.raises(BoundsError):
            dist.prob(2, Partition((0, 0)))

    def test_prob_finds_each_grouping_and_rejects_other_task_counts(self):
        a = ArchitectureParams(random_alpha(np.random.default_rng(5), 3, 2))
        dist = grouping_distribution(a, unit_table(2))
        assert len(set(dist.layers[1].tolist())) == 5
        for i, rgs in enumerate(dist.rgs.tolist()):
            assert dist.prob(2, Partition(rgs)) == dist.layers[1, i]
        with pytest.raises(DimensionMismatch):
            dist.prob(1, Partition((0, 0)))


class TestExpectedCost:
    def test_worked_example_uniform(self):
        a = ArchitectureParams.zeros(2, 2)
        assert expected_cost(a, unit_table(2)) == pytest.approx(3.25)

    def test_degenerate_alpha_equals_structure_cost(self):
        choices = [(0, 0, 0), (0, 1, 1), (2, 2, 2)]
        a = forcing_alpha(choices, 3, 3)
        table = CostTable([2.0, 3.0, 5.0])
        s = derive_groupings(choices)
        assert expected_cost(a, table) == pytest.approx(structure_cost(s, table), abs=1e-12)

    def test_extremes(self):
        shared = forcing_alpha([(0, 0), (0, 0), (0, 0)], 2, 3)
        branched = forcing_alpha([(0, 0), (1, 1), (2, 2)], 2, 3)
        table = unit_table(2)
        assert expected_cost(shared, table) == pytest.approx(2.0)
        assert expected_cost(branched, table) == pytest.approx(6.0)

    def test_spec_mismatch_rejected(self):
        # only the layer count can disagree: the logits alone carry the task count
        with pytest.raises(DimensionMismatch):
            expected_cost(ArchitectureParams.zeros(2, 2), unit_table(1))


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
    table = unit_table(a.num_layers)
    cost = expected_cost(a, table)
    assert table.num_layers - 1e-9 <= cost <= a.num_tasks * table.num_layers + 1e-9


@given(alpha_st, st.floats(-5, 5))
@settings(max_examples=25, deadline=None)
def test_expected_cost_shift_invariant(logits, shift):
    a = ArchitectureParams(logits)
    b = ArchitectureParams(logits + shift)
    table = unit_table(a.num_layers)
    assert expected_cost(a, table) == pytest.approx(expected_cost(b, table), rel=1e-12)


class TestOracle:
    @pytest.mark.parametrize("num_tasks,num_layers", [(2, 2), (2, 3), (3, 2)])
    def test_matches_markov_chain(self, num_tasks, num_layers):
        rng = np.random.default_rng(3)
        table = unit_table(num_layers)
        for _ in range(10):
            a = ArchitectureParams(random_alpha(rng, num_tasks, num_layers))
            assert abs(
                expected_cost(a, table) - brute_force_expected_cost(a, table)
            ) <= 1e-9

    def test_guard_refuses_large_spaces(self):
        a = ArchitectureParams.zeros(4, 3)
        assert 4 ** 12 > ENUM_GUARD
        with pytest.raises(BoundsError, match="use fewer tasks or layers"):
            brute_force_expected_cost(a, unit_table(3))


class TestGradient:
    @pytest.mark.parametrize("num_tasks,num_layers", [(2, 2), (3, 2), (2, 3)])
    def test_matches_finite_differences(self, num_tasks, num_layers):
        rng = np.random.default_rng(4)
        table = unit_table(num_layers)
        logits = random_alpha(rng, num_tasks, num_layers)
        grad = expected_cost_grad(ArchitectureParams(logits), table)
        fd = central_diff(
            lambda x: expected_cost(ArchitectureParams(x.copy()), table), logits
        )
        assert relative_error(grad, fd) <= 1e-6

    def test_shape_and_shift_null_direction(self):
        # shift invariance means the gradient sums to zero over candidates
        rng = np.random.default_rng(5)
        a = ArchitectureParams(random_alpha(rng, 3, 3))
        grad = expected_cost_grad(a, unit_table(3))
        assert grad.shape == (3, 3, 3)
        assert np.allclose(grad.sum(axis=2), 0.0, atol=1e-12)

    def test_zero_at_saturation(self):
        # a fully decided routing sits on a plateau
        a = forcing_alpha([(0,), (1,)], 1, 2, lo=-200.0, hi=200.0)
        grad = expected_cost_grad(a, unit_table(1))
        assert np.allclose(grad, 0.0)


def test_clamped_chain_survives_extreme_logits():
    a = forcing_alpha([(0, 0), (1, 1), (2, 2)], 2, 3, lo=-300.0, hi=300.0)
    table = unit_table(2)
    dist = grouping_distribution(a, table)
    assert np.all(np.isfinite(dist.layers))
    assert np.allclose(dist.layers.sum(axis=1), 1.0)
    assert expected_cost(a, table) == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("num_tasks", range(1, 7))
def test_edge_tables_match_python_loops(num_tasks):
    meet_idx, induced = _edge_tables(num_tasks)
    parts = enumerate_partitions(num_tasks)
    index = {p: i for i, p in enumerate(parts)}
    rows = list(itertools.product(range(num_tasks), repeat=num_tasks))
    assert np.array_equal(meet_idx, [[index[meet(a, b)] for b in parts] for a in parts])
    assert np.array_equal(induced, [index[Partition.from_labels(row)] for row in rows])
    # the block counts that brute_force_expected_cost reads
    assert np.array_equal(block_counts(num_tasks), [p.num_blocks for p in parts])
    logits = random_alpha(np.random.default_rng(num_tasks), num_tasks, 1)
    pi = softmax(logits[:, 0], axis=1)
    weights = [math.prod(pi[u, c] for u, c in enumerate(row)) for row in rows]
    assert np.array_equal(_assignment_weights(pi), weights)


def block_counts(num_tasks):
    """Block count of each grouping of rgs_table(num_tasks), as floats."""
    return rgs_table(num_tasks).max(axis=1) + 1.0


def chain_distribution(a, table):
    """Per-layer grouping distribution folded through the transition
    kernels of the grouping chain, clamped at CLAMP_EPS per layer."""
    n = len(rgs_table(a.num_tasks))
    layers = np.empty((table.num_layers, n))
    p = np.zeros(n)
    p[0] = 1.0  # all tasks share: the all-zero RGS is listed first
    for l in range(1, table.num_layers + 1):
        p = p @ transition_kernel(a, l)
        p = np.where(p < CLAMP_EPS, 0.0, p)
        p = p / p.sum()
        layers[l - 1] = p
    return layers


def chain_cost(a, table):
    """Expected cost folded from the clamped grouping chain."""
    layers = chain_distribution(a, table)
    units = np.asarray(table.unit_cost)
    return float(units @ layers @ block_counts(a.num_tasks))


def chain_adjoint_grad(a, table):
    """d cost / d logits by reverse accumulation through the unclamped chain.

    With g_l the adjoint of the layer-l grouping vector, g_L = c_L and
    g_{l-1} = c_{l-1} + P_l g_l; each kernel entry is a sum of joint
    assignment weights, so the adjoint of every per-task edge probability
    is a weight-partitioned bincount.
    """
    meet_idx, induced = _edge_tables(a.num_tasks)
    num_tasks, num_layers = a.num_tasks, a.num_layers
    n = len(meet_idx)
    costs = np.asarray(table.unit_cost)[:, None] * block_counts(num_tasks)
    assignments = np.array(list(itertools.product(range(num_tasks), repeat=num_tasks)))
    kernels = [transition_kernel(a, l) for l in range(1, num_layers + 1)]
    states = np.zeros((num_layers, n))
    states[0, 0] = 1.0
    for l in range(1, num_layers):
        states[l] = states[l - 1] @ kernels[l - 1]
    grad = np.empty(a.logits.shape)
    adjoint = np.zeros(n)
    for l in range(num_layers, 0, -1):
        adjoint_p = costs[l - 1] + adjoint
        adjoint_q = states[l - 1] @ adjoint_p[meet_idx]
        pi = softmax(a.logits[:, l - 1], axis=1)
        coeff = adjoint_q[induced] * _assignment_weights(pi)
        dpi = np.stack(
            [
                np.bincount(assignments[:, t], weights=coeff, minlength=num_tasks)
                for t in range(num_tasks)
            ]
        ) / pi
        grad[:, l - 1, :] = pi * (dpi - (dpi * pi).sum(axis=1, keepdims=True))
        adjoint = kernels[l - 1] @ adjoint_p
    return grad


# up to T=7, where every task's count sums 2^(T-1) terms of alternating sign
wide_alpha_st = st.tuples(st.integers(1, 7), st.integers(1, 4)).flatmap(
    lambda tl: arrays(
        np.float64,
        (tl[0], tl[1], tl[0]),
        elements=st.floats(-30, 30, allow_nan=False),
    )
)


def costed_table(num_layers):
    return SupergraphSpec([3, 5, 2, 4, 6][: num_layers + 1]).cost_table


@given(wide_alpha_st)
@settings(max_examples=60, deadline=None)
def test_inclusion_exclusion_matches_clamped_chain(logits):
    a = ArchitectureParams(logits)
    table = costed_table(a.num_layers)
    assert relative_error(expected_cost(a, table), chain_cost(a, table)) <= 1e-10


@given(wide_alpha_st)
# unclamped, the alternating sum reads -2.2e-16 on one grouping here
@example(np.array([[[15.0, -30, 30]], [[30, -30, 15]], [[30, -30, -30]]]))
@settings(max_examples=60, deadline=None)
def test_moebius_distribution_matches_clamped_chain(logits):
    a = ArchitectureParams(logits)
    table = costed_table(a.num_layers)
    got = grouping_distribution(a, table)
    want = chain_distribution(a, table)
    assert got.rgs.tolist() == [list(p.rgs) for p in enumerate_partitions(a.num_tasks)]
    assert np.abs(got.layers - want).max() <= 1e-12
    assert np.all(got.layers >= 0)
    # the supports differ only where one side falls under the clamp
    assert np.all(got.layers[want == 0] < 1e-13)
    assert np.all(want[got.layers == 0] < 1e-13)


def merge_tables_from_partitions(num_tasks):
    """resloss._merge_tables built from Partition objects, block by block."""
    parts = resloss.enumerate_partitions(num_tasks)
    sizes = np.array([p.num_blocks for p in parts])
    tables = []
    for m in range(1, num_tasks + 1):
        merges = resloss.enumerate_partitions(m)
        mu = np.array([
            math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in s.blocks())
            for s in merges
        ], dtype=np.float64)
        block_bits = [
            [sum(1 << t for t in block) for block in k.blocks()]
            for k in parts if k.num_blocks == m
        ]
        merged = np.array([
            [
                [sum(bits[i] for i in block) for block in blocks] + [0] * (m - len(blocks))
                for bits in block_bits
            ]
            for blocks in (s.blocks() for s in merges)
        ], dtype=np.int64).reshape(len(merges), -1, m)
        # block-major: merged[j, s, k]
        tables.append((sizes == m, mu, np.ascontiguousarray(merged.transpose(2, 0, 1))))
    return tables


@pytest.mark.parametrize("num_tasks", range(1, MAX_TASKS + 1))
def test_merge_tables_match_partition_blocks(num_tasks):
    got = resloss._merge_tables(num_tasks)
    want = merge_tables_from_partitions(num_tasks)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
            assert a.flags.c_contiguous
    for m, (_, mu, _) in enumerate(got, start=1):
        # the construction from scipy's float factorial that math.factorial replaced
        onehot = resloss.rgs_table(m)[:, :, None] == np.arange(m)
        less = np.maximum(onehot.sum(axis=1) - 1, 0)
        want_mu = (-1.0) ** less.sum(axis=1) * factorial(less).prod(axis=1)
        assert mu.dtype == want_mu.dtype and np.array_equal(mu, want_mu)


@pytest.mark.parametrize("num_tasks", range(1, MAX_TASKS + 1))
def test_subsets_match_the_concatenated_build_bit_for_bit(num_tasks):
    # the preallocated buffer holds the same products, factor for factor
    rng = np.random.default_rng(num_tasks)
    for logits in (random_alpha(rng, num_tasks, 3), np.zeros((num_tasks, 2, num_tasks))):
        alpha = ArchitectureParams(logits)
        _, _, sign, prod, agree = resloss._subsets(alpha, CostTable([1.0] * len(logits[0])))
        want = engine_reference.subsets(logits)
        for got, ref in zip((sign, prod, agree), want):
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert not sign.flags.writeable and sign is resloss._subset_signs(num_tasks)


def fancy_indexed_distribution(alpha, table):
    """grouping_distribution by fancy indexing, h[merged[..., b]] over the
    (S, K, m) layout, the blocks multiplied by reduce in block order: the
    reference that the np.take gather must match bit for bit."""
    rgs = resloss.rgs_table(alpha.num_tasks)
    h = np.cumprod(resloss._subsets(alpha, table)[4], axis=1)
    h[0] = 1.0
    probs = np.empty((len(rgs), alpha.num_layers))
    for rows, mu, merged in resloss._merge_tables(alpha.num_tasks):
        merged = np.moveaxis(merged, 0, -1)
        prod = functools.reduce(
            np.multiply, (h[merged[..., b]] for b in range(merged.shape[2]))
        )
        probs[rows] = np.einsum("s,skl->kl", mu, prod)
    probs = np.where(probs.T < CLAMP_EPS, 0.0, probs.T)
    return probs / probs.sum(axis=1, keepdims=True)


GATHER_LOGIT_KINDS = {
    "uniform": lambda rng, t, l: np.zeros((t, l, t)),
    "scale2": lambda rng, t, l: random_alpha(rng, t, l),
    "onehot": lambda rng, t, l: forcing_alpha(rng.integers(t, size=(t, l)), l, t).logits,
}


@pytest.mark.parametrize("kind", sorted(GATHER_LOGIT_KINDS))
@pytest.mark.parametrize("num_tasks", range(1, MAX_TASKS + 1))
def test_take_gather_matches_fancy_indexing_bit_for_bit(num_tasks, kind):
    rng = np.random.default_rng(num_tasks)
    a = ArchitectureParams(GATHER_LOGIT_KINDS[kind](rng, num_tasks, 4))
    table = costed_table(a.num_layers)
    got = grouping_distribution(a, table).layers
    assert np.array_equal(got, fancy_indexed_distribution(a, table))


@given(
    st.integers(1, 3).flatmap(
        lambda ndim: arrays(
            np.float64,
            st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim).map(tuple),
            elements=st.floats(-1.0, 1.0),
        )
    ),
    st.floats(0.1, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_softmax_matches_scipy_bit_for_bit(x, scale):
    x = scale * x
    for axis in (None, *range(x.ndim)):
        got = resloss.softmax(x, axis=axis)
        assert got.dtype == np.float64
        assert np.array_equal(got, softmax(x, axis=axis))


def test_distribution_bounds_tasks_before_the_subset_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("2^T subset rows built for an unsupported T")

    monkeypatch.setattr(resloss, "_subsets", refuse)
    # the logits refuse T = 9 before any table is built
    with pytest.raises(BoundsError):
        grouping_distribution(ArchitectureParams.zeros(9, 2), unit_table(2))


@given(wide_alpha_st)
@settings(max_examples=30, deadline=None)
def test_gradient_matches_chain_adjoint(logits):
    a = ArchitectureParams(logits)
    table = costed_table(a.num_layers)
    diff = np.abs(expected_cost_grad(a, table) - chain_adjoint_grad(a, table)).max()
    assert diff <= 1e-10 * table.fully_shared_cost


@pytest.mark.parametrize("kind", ["scale2", "agreeing"])
def test_largest_accepted_cost_table_keeps_cost_and_gradient_finite(kind):
    # CostTable admits a fully shared cost up to float max / 2**MAX_TASKS
    top = np.finfo(float).max / 2**MAX_TASKS
    with pytest.raises(ValueError):
        CostTable((np.nextafter(top, np.inf),))
    table = CostTable([top / 2, top / 2])
    logits = random_alpha(np.random.default_rng(9), MAX_TASKS, 2)
    if kind == "agreeing":  # every subset agrees: all 2**T terms near top
        logits[:, :, 0] += 40.0
    cost, grad = resloss._cost_and_grad(ArchitectureParams(logits), table)
    assert np.isfinite(cost) and top <= cost <= MAX_TASKS * top
    assert np.isfinite(grad).all()
