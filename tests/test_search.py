import importlib.util
import inspect
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import softmax

import bmtas.nncore
import bmtas.resloss
from bmtas.errors import ConfigError, DomainError, NumericError, SearchError
from bmtas.eval import Dataset, SyntheticTaskSpec, generate_tasks
from bmtas.graph import SupergraphSpec, derive_groupings, structure_hash
from bmtas.nncore import SGD, Adam, OperationParams
from bmtas.partition import Partition
from bmtas.schema import CONFIG_SCHEMA
from bmtas.search import (
    BATCH_BLOCK,
    BATCH_SIZE,
    RetrainedModel,
    SearchConfig,
    SearchResult,
    _architecture_grad,
    _batch_sum,
    _batches,
    _features,
    _fit,
    _loss_scale,
    backward as engine_backward,
    discretize,
    retrain,
    schedule_tau,
    search,
    warm_up,
)
from bmtas.seeding import rng_stream
import engine_reference
from conftest import describe_kernels, host_kernels
from tape import (
    Tensor,
    backward,
    candidate_forward,
    head_forward,
    leaves,
    mixed_layer_forward,
    task_loss,
)


def small_benchmark(seed=0, num_tasks=3, train=128):
    spec = SyntheticTaskSpec(
        num_tasks=num_tasks,
        input_dim=8,
        hidden_dim=4,
        target_dim=2,
        relatedness=Partition.from_labels([0] * (num_tasks - 1) + [1]),
        train_samples=train,
        test_samples=64,
    )
    data = generate_tasks(spec, rng_stream(seed, "data"))
    supergraph = SupergraphSpec([8, 6, 6])
    return data, supergraph


def quick_config(**overrides):
    base = dict(warmup_steps=40, search_steps=50, retrain_steps=50, seed=0)
    base.update(overrides)
    return SearchConfig(**base)


class TestSearchConfig:
    def test_validation(self):
        for weight in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                SearchConfig(resource_weight=weight)
        with pytest.raises(ConfigError):
            SearchConfig(seed=-1)
        with pytest.raises(ConfigError):
            SearchConfig(search_steps=0)
        for start, end in ((0.1, 5.0), (1.0, 0.0), (0.0, 0.0), (1.0, -1.0)):
            with pytest.raises(ConfigError):
                SearchConfig(tau_start=start, tau_end=end)
        for omega in ((1.0, 0.0), (1.0, -2.0), (float("nan"),)):
            with pytest.raises(ConfigError):
                SearchConfig(omega=omega)
        assert SearchConfig(tau_start=0.5, tau_end=0.5).tau_end == 0.5
        assert SearchConfig(omega=[2, 1]).omega == (2.0, 1.0)

    def test_default_schedule_spans_the_run(self, monkeypatch):
        # one call a step through this name, which the benchmark tracer
        # counts: step s of n anneals at s - 1 of a horizon of max(n - 1, 1)
        calls = []

        def spy(*args):
            calls.append(args)
            return schedule_tau(*args)

        monkeypatch.setattr("bmtas.search.schedule_tau", spy)
        data, sg = small_benchmark()
        for steps, horizon in ((1, 1), (2, 1), (20, 19)):
            calls.clear()
            res = search(quick_config(warmup_steps=0, search_steps=steps), sg, data)
            assert calls == [(5.0, 0.1, s, horizon) for s in range(steps)]
            assert [row.tau for row in res.trace] == [schedule_tau(*c) for c in calls]

    def test_fields_are_the_config_search_keys_plus_seed(self):
        keys = set(CONFIG_SCHEMA["properties"]["search"]["properties"])
        assert "resource_weight" not in keys and "lambda" in keys
        want = keys - {"lambda"} | {"resource_weight", "seed"}
        names = list(inspect.signature(SearchConfig).parameters)
        assert set(names) == want and len(names) == 10
        defaults = SearchConfig()  # plain values, no nested config object
        assert set(vars(defaults)) == want
        assert all(isinstance(getattr(defaults, n), (int, float, type(None))) for n in names)

    def test_removed_names_are_gone(self):
        config_names = set(inspect.signature(SearchConfig).parameters)
        assert not {"schedule", "alpha_betas"} & config_names
        assert importlib.util.find_spec("bmtas.relax") is None
        assert not hasattr(bmtas.search, "TemperatureSchedule")
        assert not hasattr(bmtas.nncore, "LossWeights")
        for stage in (warm_up, retrain):
            assert not {"steps", "rng", "seed"} & set(inspect.signature(stage).parameters)
        # names that only tests read, and optimizer options with one value in use
        assert not hasattr(bmtas.search, "sample_soft")
        assert not {"select_tasks", "input_dim"} & set(dir(Dataset))
        assert not {"coarsest", "finest"} & set(dir(Partition))
        assert not {"num_heads", "named_parameters"} & set(dir(OperationParams))
        # the structure holds the task count, and the dataset the names
        assert RetrainedModel._fields == ("structure", "params", "test_mse")
        # one stacked pass serves every task: RetrainedModel.features
        assert not {"predict", "encoder_features"} & set(dir(RetrainedModel))
        # one retraining function, which returns the RetrainedModel
        assert not hasattr(bmtas.search, "retrain_model")
        assert inspect.get_annotations(retrain, eval_str=True)["return"] is RetrainedModel
        assert list(inspect.signature(Adam.step).parameters) == ["self", "grad"]
        assert list(inspect.signature(SGD.step).parameters) == ["self", "grads"]
        # training settings that no run set, now constants of search and nncore
        settings = {
            "theta_momentum",
            "theta_weight_decay",
            "alpha_weight_decay",
            "batch_size",
            "alpha_data_fraction",
            "retrain_lr",
        }
        assert not settings & config_names
        assert not settings & set(CONFIG_SCHEMA["properties"]["search"]["properties"])
        assert "share_private" not in inspect.signature(SyntheticTaskSpec).parameters
        assert "share_private" not in CONFIG_SCHEMA["properties"]["benchmark"]["properties"]
        assert list(inspect.signature(SGD).parameters) == ["params", "lr", "lr_scales"]
        assert list(inspect.signature(Adam).parameters) == ["value", "lr"]
        # the autodiff tape lives in the tests; nncore.Tensor is empty
        tape_names = {"backward", "reset_grads", "_topo_order", "_unbroadcast", "_wrap"}
        ops = {"candidate_forward", "mixed_layer_forward", "head_forward", "task_loss"}
        assert not (tape_names | ops) & set(dir(bmtas.nncore))
        assert not {"__matmul__", "softmax1d"} & set(dir(bmtas.nncore.Tensor))
        # gradients are return values: no holder keeps one, and nothing in
        # the package reads or writes one on a parameter, nor reads a
        # holder's .data: parameters are plain arrays
        assert not hasattr(bmtas.nncore, "collect_grads")
        assert not hasattr(bmtas.nncore.Tensor, "grad")
        package = Path(bmtas.nncore.__file__).parent
        holder = re.compile(r"\.(grad|data)\b")
        uses = [f.name for f in package.glob("*.py") if holder.search(f.read_text())]
        assert uses == []

    def test_weights_for_checks_length(self):
        data, _ = small_benchmark()
        cfg = SearchConfig(omega=(1.0, 2.0))
        with pytest.raises(ConfigError):
            cfg.weights_for(data.num_tasks)
        assert SearchConfig().weights_for(data.num_tasks) == (1.0, 1.0, 1.0)


class TestWarmUp:
    def test_differentiates_candidates_and_learns(self):
        data, sg = small_benchmark()
        params = warm_up(sg, data, quick_config(warmup_steps=60, seed=0))
        w = params.weights[0]
        assert not np.allclose(w[0], w[1])

        def own_loss(t):
            h = data.inputs_test
            for layer in range(1, sg.num_layers + 1):
                h = candidate_forward(params, layer, t, h).data
            pred = h @ params.head_weights[t] + params.head_biases[t]
            return float(((pred - data.targets_test[t]) ** 2).mean())

        var = float(np.var(data.targets_test[0]))
        assert own_loss(0) < 0.25 * var


class TestSearch:
    def test_produces_consistent_result(self):
        data, sg = small_benchmark()
        cfg = quick_config()
        res = search(cfg, sg, data)
        assert isinstance(res, SearchResult)
        assert res.structure.num_tasks == 3
        assert res.structure.num_layers == sg.num_layers
        assert len(res.trace) == cfg.search_steps
        assert res.trace[0].tau == pytest.approx(5.0)
        assert res.trace[-1].tau == pytest.approx(0.1)
        for row in res.trace:
            assert 1.0 - 1e-9 <= row.resource_loss <= data.num_tasks + 1e-9
            assert row.expected_cost == pytest.approx(
                row.resource_loss * sg.cost_table.fully_shared_cost
            )
        assert res.trace[-1].structure_hash == structure_hash(res.structure)
        assert res.alpha_final.logits.shape == (3, sg.num_layers, 3)

    def test_deterministic_given_seed(self):
        data, sg = small_benchmark()
        a = search(quick_config(), sg, data)
        b = search(quick_config(), sg, data)
        assert a.structure == b.structure
        assert np.array_equal(a.alpha_final.logits, b.alpha_final.logits)
        assert a.trace == b.trace  # rows compare by value: the two runs built their own
        assert a.trace[0] is not b.trace[0]

    def test_seed_changes_trajectory(self):
        data, sg = small_benchmark()
        a = search(quick_config(seed=0), sg, data)
        b = search(quick_config(seed=1), sg, data)
        assert not np.array_equal(a.alpha_final.logits, b.alpha_final.logits)
        assert a.trace != b.trace

    def test_accepts_pretrained_params(self):
        data, sg = small_benchmark()
        params = warm_up(sg, data, quick_config(seed=0))
        res = search(quick_config(), sg, data, params=params)
        assert len(res.trace) == 50

    def test_divergence_raises_search_error_with_trace(self):
        data, sg = small_benchmark()
        cfg = quick_config(theta_lr=1e8, warmup_steps=0, search_steps=30)
        with pytest.raises(SearchError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                search(cfg, sg, data)
        assert isinstance(err.value.trace, list)

    def test_needs_two_training_rows_before_warm_up(self, monkeypatch):
        # each data split keeps at least one row, so one row would leave the
        # architecture steps an empty batch
        def no_warm_up(*args):
            raise AssertionError("warm-up started")

        monkeypatch.setattr("bmtas.search.warm_up", no_warm_up)
        data, sg = small_benchmark(train=1)
        with pytest.raises(ConfigError, match="at least 2 training rows"):
            search(quick_config(), sg, data)
        data, sg = small_benchmark(train=2)
        cfg = quick_config(warmup_steps=0, search_steps=2)
        assert len(search(cfg, sg, data, params=warm_up(sg, data, cfg)).trace) == 2

    def test_non_finite_logits_raise_search_error_with_step(self):
        spec = SyntheticTaskSpec(
            num_tasks=2,
            input_dim=4,
            hidden_dim=3,
            target_dim=2,
            relatedness=Partition((0, 1)),
            train_samples=64,
            test_samples=16,
        )
        data = generate_tasks(spec, rng_stream(0, "data"))
        sg = SupergraphSpec([4, 3, 3])
        cfg = quick_config(alpha_lr=1.7e308, warmup_steps=0, search_steps=10)
        with pytest.raises(SearchError, match="at step 2") as err:
            with np.errstate(all="ignore"):
                search(cfg, sg, data)
        assert [row.step for row in err.value.trace] == [1]

    def test_structure_derived_only_when_a_pick_changes(self, monkeypatch):
        alphas, derived, resets = [], [], []
        original_reset = SGD.reset_momentum

        def cost_pass(alpha, table, grad=True):
            alphas.append(alpha)  # the initial logits, then each step's
            return bmtas.resloss._cost_and_grad(alpha, table, grad)

        def derive(picks):
            derived.append(len(alphas) - 1)
            return derive_groupings(picks)

        def reset(opt):
            resets.append(len(alphas) - 1)
            original_reset(opt)

        monkeypatch.setattr("bmtas.search._cost_and_grad", cost_pass)
        monkeypatch.setattr("bmtas.search.derive_groupings", derive)
        monkeypatch.setattr(SGD, "reset_momentum", reset)
        data, sg = small_benchmark()
        res = search(quick_config(resource_weight=0.2, search_steps=60), sg, data)

        # the same run, its structure derived at every step
        hashes = [structure_hash(derive_groupings(discretize(a))) for a in alphas]
        assert [row.structure_hash for row in res.trace] == hashes[1:]
        changed = [s for s in range(1, len(hashes)) if hashes[s] != hashes[s - 1]]
        assert resets == changed and changed
        picks = [a.logits.argmax(axis=2) for a in alphas]
        moved = [s for s in range(1, len(picks)) if not np.array_equal(picks[s], picks[s - 1])]
        assert len(derived) == 1 + len(moved) and derived[1:] == moved
        assert resets == moved  # the hash digests the picks, so it changes with them
        assert len(moved) < len(res.trace)

    def test_heavy_resource_weight_collapses_to_shared(self):
        data, sg = small_benchmark(train=256)
        cfg = SearchConfig(
            resource_weight=0.5, warmup_steps=150, search_steps=200, seed=0
        )
        res = search(cfg, sg, data)
        assert all(k.num_blocks == 1 for k in res.structure.groupings)


@pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 205, 512])
@pytest.mark.parametrize("kind", ["range", "permutation-slice"])
def test_batches_are_numpys_choice_bit_for_bit(size, kind):
    # the oracle is the draw the blocks replace; a numpy release that changes
    # Generator.choice or Generator.integers fails here
    pool = np.arange(size)
    if kind == "permutation-slice":  # as search's theta_rows are
        pool = np.random.default_rng(size).permutation(size + 40)[40:]
    for steps in (0, 1, BATCH_BLOCK - 1, BATCH_BLOCK, BATCH_BLOCK + 1, 2 * BATCH_BLOCK + 3):
        want_rng, got_rng = np.random.default_rng(steps), np.random.default_rng(steps)
        k = min(BATCH_SIZE, size)
        want = [pool[want_rng.choice(size, size=k, replace=False)] for _ in range(steps)]
        got = list(_batches(got_rng, pool, steps))
        assert len(got) == steps
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got_rng.integers(0, 2**62, 3).tolist() == want_rng.integers(0, 2**62, 3).tolist()


def test_a_stage_is_drawn_a_block_at_a_time():
    # a stage of 10**9 steps, drawn whole, would need about 500 GB
    rng = np.random.default_rng(0)  # numpy imports its random module here
    tracemalloc.start()
    try:
        batches = _batches(rng, np.arange(512), 10**9)
        for _ in range(BATCH_BLOCK + 1):  # into the second block
            next(batches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_suspended_stage_holds_only_its_block_of_rows():
    # a block's draws and indices are freed once its rows are taken; the
    # search keeps two stages suspended at once
    pool = np.arange(512)
    batches = _batches(np.random.default_rng(0), pool, 10**9)
    tracemalloc.start()
    try:
        first = next(batches)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = BATCH_BLOCK * len(first) * pool.itemsize
    assert rows <= held < rows + 16_000


def branched_structure(num_tasks, num_layers):
    return derive_groupings([[t] * num_layers for t in range(num_tasks)])


def shared_structure(num_tasks, num_layers):
    return derive_groupings([[0] * num_layers for _ in range(num_tasks)])


class TestRetrain:
    def test_deterministic_and_keyed_by_names(self):
        data, sg = small_benchmark()
        cfg = quick_config()
        s = shared_structure(3, 2)
        a = retrain(s, sg, data, cfg).test_mse
        b = retrain(s, sg, data, cfg).test_mse
        assert a == b
        assert set(a) == set(data.task_names)

    def test_fully_branched_equals_single_task_runs(self):
        # name-keyed init and batch streams make the branched run decompose
        data, sg = small_benchmark()
        cfg = quick_config(seed=3)
        joint = retrain(branched_structure(3, 2), sg, data, cfg)
        for t, name in enumerate(data.task_names):
            solo_data = data._replace(
                task_names=(name,),
                targets_train=data.targets_train[[t]],
                targets_test=data.targets_test[[t]],
            )
            solo = retrain(branched_structure(1, 2), sg, solo_data, cfg)
            assert joint.test_mse[name] == solo.test_mse[name]
            np.testing.assert_array_equal(
                joint.params.head_weights[t], solo.params.head_weights[0]
            )
            # fully branched: task t's block is operation t of every layer
            for layer in range(2):
                w_joint = joint.params.weights[layer][t]
                w_solo = solo.params.weights[layer][0]
                np.testing.assert_array_equal(w_joint, w_solo)

    def test_learns_the_tasks(self):
        data, sg = small_benchmark()
        cfg = quick_config(retrain_steps=300)
        mse = retrain(shared_structure(3, 2), sg, data, cfg).test_mse
        for name in data.task_names:
            t = data.task_names.index(name)
            var = float(np.var(data.targets_test[t]))
            assert mse[name] < 0.5 * var

    @pytest.mark.parametrize("picks", [[[0, 0], [0, 1], [2, 2]], [[0, 0], [1, 1], [2, 2]]])
    def test_features_are_each_tasks_own_pass_and_give_the_test_mse(self, picks):
        data, sg = small_benchmark()
        model = retrain(derive_groupings(picks), sg, data, quick_config(seed=1))
        feats = model.features(data.inputs_test)
        assert feats.shape == (3, 64, 6)
        hw, hb = model.params.head_weights, model.params.head_biases
        for t, name in enumerate(data.task_names):
            routing = [np.array([g.rgs[t]]) for g in model.structure.groupings]
            solo = _features(model.params, routing, data.inputs_test)[0]
            np.testing.assert_array_equal(feats[t], solo[0])
            err = feats[t] @ hw[t] + hb[t] - data.targets_test[t]
            assert model.test_mse[name] == float((err * err).mean())

    def test_structure_mismatches_rejected(self):
        data, sg = small_benchmark()
        cfg = quick_config()
        with pytest.raises(ConfigError):
            retrain(shared_structure(4, 2), sg, data, cfg)
        with pytest.raises(ConfigError):
            retrain(shared_structure(3, 3), sg, data, cfg)

    def test_omega_changes_training(self):
        data, sg = small_benchmark()
        s = shared_structure(3, 2)
        plain = retrain(s, sg, data, quick_config(seed=0)).test_mse
        tilted = retrain(s, sg, data, quick_config(omega=(8.0, 1.0, 1.0), seed=0)).test_mse
        assert plain != tilted


def random_network(rng, num_tasks, counts, widths):
    """OperationParams with counts[l] random operations at layer l+1 and
    heads of one random width."""
    weights = [rng.normal(size=(c, widths[l], widths[l + 1])) for l, c in enumerate(counts)]
    biases = [rng.normal(size=(c, widths[l + 1])) for l, c in enumerate(counts)]
    dim = rng.integers(1, 4)
    head_w = rng.normal(size=(num_tasks, widths[-1], dim))
    head_b = rng.normal(size=(num_tasks, dim))
    return OperationParams(weights, biases, head_w, head_b)


def random_task_data(rng, params, num_tasks, batch):
    x = rng.normal(size=(batch, params.weights[0].shape[1]))
    targets = rng.normal(size=(num_tasks, batch, params.head_weights.shape[2]))
    return SimpleNamespace(inputs_train=x, targets_train=targets)


def tape_pass(params, rows_by_task, x, targets, omega):
    """Losses from the tape, gradients left in every .grad."""
    losses = []
    for t, rows in enumerate(rows_by_task):
        h = Tensor(x)
        for layer, row in enumerate(rows, start=1):
            h = mixed_layer_forward(params, layer, row, h)
        loss = task_loss(head_forward(params, t, h), targets[t])
        backward(loss, omega[t])
        losses.append(float(loss.data))
    return losses


def max_diff(got, want):
    assert len(got) == len(want)
    return max(np.max(np.abs(np.asarray(g) - w), initial=0.0) for g, w in zip(got, want))


@given(
    num_tasks=st.integers(1, 4),
    num_layers=st.integers(1, 3),
    batch=st.integers(1, 6),
    soft=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_tasks=1, num_layers=1, batch=3, soft=True, seed=0)
@example(num_tasks=1, num_layers=1, batch=3, soft=False, seed=0)
@settings(max_examples=60, deadline=None)
def test_engine_matches_tape(num_tasks, num_layers, batch, soft, seed):
    # soft: search routing, C_l = T mixture rows from logits, and the
    # architecture gradient; otherwise ragged op counts, one picked per task
    # and layer, which the tape routes by one-hot rows
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 6, num_layers + 1)
    if soft:
        counts = [num_tasks] * num_layers
        logits = 2.0 * rng.normal(size=(num_tasks, num_layers, num_tasks))
        noise = rng.gumbel(size=logits.shape)
        tau = float(rng.uniform(0.1, 5.0))
        rows = list(softmax((logits + noise) * (1.0 / tau), axis=2).swapaxes(0, 1))
        routing = rows
    else:
        counts = rng.integers(1, num_tasks + 1, num_layers)
        routing = [rng.integers(0, c, num_tasks) for c in counts]
        rows = [np.eye(c)[picks] for c, picks in zip(counts, routing)]
    params = random_network(rng, num_tasks, counts, widths)
    data = random_task_data(rng, params, num_tasks, batch)
    x, targets = data.inputs_train, data.targets_train
    omega = rng.uniform(0.5, 2.0, num_tasks)
    idx = np.arange(batch)
    scale = _loss_scale(omega, data, idx)

    tape = leaves(params)
    row_leaves = [[Tensor(r[t]) for r in rows] for t in range(num_tasks)]
    want_losses = tape_pass(tape, row_leaves, x, targets, omega)
    want_theta = [p.grad for p in tape.parameters()]
    want_rows = [np.stack([task[l].grad for task in row_leaves]) for l in range(num_layers)]
    losses, theta = engine_backward(params, routing, data, idx, scale)
    assert max_diff(losses, want_losses) <= 1e-10
    assert max_diff(theta, want_theta) <= 1e-10

    # the routing rows' gradients, which only the mixture path returns: for
    # the discrete examples its rows are the one-hot ones, C_l ops of any count
    row_losses, dz = engine_backward(params, rows, data, idx, scale, row_grads=True)
    assert row_losses == losses
    assert max_diff(dz, want_rows) <= 1e-10

    if soft:
        # the search's routing rows, with the logits on the tape
        alpha = Tensor(logits)
        on_tape = [
            [
                ((alpha[(t, l)] + Tensor(noise[t, l])) * (1.0 / tau)).softmax1d()
                for l in range(num_layers)
            ]
            for t in range(num_tasks)
        ]
        tape_pass(tape, on_tape, x, targets, omega)
        got = _architecture_grad(params, logits, noise, tau, data, idx, scale)
        assert max_diff([got], [alpha.grad]) <= 1e-10


@given(
    num_tasks=st.integers(1, 8),
    num_layers=st.integers(1, 3),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_tasks=8, num_layers=3, batch=4, seed=0)
@example(num_tasks=8, num_layers=1, batch=2, seed=34)  # eight tasks on a 1x1 operation
@settings(max_examples=60, deadline=None)
def test_gathered_routing_equals_one_hot_mixture(num_tasks, num_layers, batch, seed):
    # discrete routing by operation index and the mixture path with one-hot
    # rows agree exactly (as values: 1*a + 0*b = a only up to the sign of
    # zero). Over a task axis of eight or more one-element terms numpy sums
    # pairwise, not in task order, so the gathered path reuses that reduction.
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 6, num_layers + 1)
    counts = rng.integers(1, num_tasks + 1, num_layers)
    picks = [rng.integers(0, c, num_tasks) for c in counts]
    params = random_network(rng, num_tasks, counts, widths)
    data = random_task_data(rng, params, num_tasks, batch)
    scale = _loss_scale(rng.uniform(0.5, 2.0, num_tasks), data, np.arange(batch))
    runs = []
    for routing in (picks, [np.eye(c)[p] for c, p in zip(counts, picks)]):
        losses, grads = engine_backward(params, routing, data, np.arange(batch), scale)
        features = _features(params, routing, data.inputs_train)[0]
        runs.append((losses, features, grads))
    (losses, features, grads), (want_losses, want_features, want_grads) = runs
    # both paths reach BLAS through matmuls of other shapes; they agree only
    # while the kernels for those shapes round alike, as OpenBLAS's SkylakeX
    # and Haswell kernels do, and its Prescott kernels need not
    why = "the BLAS kernels of the two paths' matmul shapes rounded apart, under "
    assert (
        losses == want_losses
        and np.array_equal(features, want_features)
        and all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
    ), why + describe_kernels(host_kernels())


def same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def reference_case(rng, num_tasks, ops, num_layers, batch, out):
    """A network of `ops` operations per layer, hidden widths `out`, its data
    and loss scale, and soft routing rows of shape (num_tasks, ops)."""
    widths = [int(rng.integers(1, 6))] + [out] * num_layers
    params = random_network(rng, num_tasks, [ops] * num_layers, widths)
    data = random_task_data(rng, params, num_tasks, batch)
    omega = rng.uniform(0.5, 2.0, num_tasks)
    rows = [softmax(2.0 * rng.normal(size=(num_tasks, ops)), axis=1) for _ in range(num_layers)]
    return params, data, omega, _loss_scale(omega, data, np.arange(batch)), rows


case_shapes = dict(
    num_tasks=st.integers(1, 8),
    ops=st.integers(1, 8),
    num_layers=st.integers(1, 3),
    batch=st.integers(1, 6),
    out=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)


@given(**case_shapes)
# eight one-element terms per output: np.sum would add them pairwise
@example(num_tasks=4, ops=8, num_layers=2, batch=1, out=1, seed=0)
@settings(max_examples=60, deadline=None)
def test_soft_mix_matches_the_left_fold_loop(num_tasks, ops, num_layers, batch, out, seed):
    params, data, _, _, rows = reference_case(
        np.random.default_rng(seed), num_tasks, ops, num_layers, batch, out
    )
    x = data.inputs_train
    got, want = _features(params, rows, x), engine_reference.features(params, rows, x)
    assert same_bits(got[0], want[0])
    assert all(same_bits(g[1], w[1]) for g, w in zip(got[1], want[1]))


@given(**case_shapes)
@example(num_tasks=8, ops=8, num_layers=3, batch=4, out=1, seed=0)
@example(num_tasks=8, ops=8, num_layers=2, batch=1, out=8, seed=1)
# a full batch, which numpy sums pairwise at out 1 and in order at out 2
@example(num_tasks=4, ops=4, num_layers=3, batch=32, out=1, seed=0)
@example(num_tasks=4, ops=4, num_layers=3, batch=32, out=2, seed=0)
@settings(max_examples=60, deadline=None)
def test_engine_matches_its_reference_bit_for_bit(num_tasks, ops, num_layers, batch, out, seed):
    # the weight pass and the architecture pass over soft rows, and gathered
    # routing, against the formulas with one fresh temporary per numpy call
    rng = np.random.default_rng(seed)
    params, data, omega, scale, rows = reference_case(rng, num_tasks, ops, num_layers, batch, out)
    picks = [rng.integers(0, ops, num_tasks) for _ in range(num_layers)]
    idx = np.arange(batch)
    for routing in (rows, picks):
        want_losses, want = engine_reference.backward_tasks(params, routing, data, idx, omega)
        losses, got = engine_backward(params, routing, data, idx, scale)
        assert losses == want_losses and len(got) == len(want) == 2 * num_layers + 2
        assert all(same_bits(g, w) for g, w in zip(got, want))
    want = engine_reference.backward_tasks(params, rows, data, idx, omega, row_grads=True)
    got = engine_backward(params, rows, data, idx, scale, row_grads=True)
    assert got[0] == want[0] and len(got[1]) == len(want[1]) == num_layers
    assert all(same_bits(g, w) for g, w in zip(got[1], want[1]))


@given(
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 40), st.integers(1, 8)),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(4, 4, 32, 1), seed=0)
@example(shape=(4, 4, 32, 2), seed=0)
@settings(max_examples=100, deadline=None)
def test_batch_sum_is_numpys_sum_over_the_batch(shape, seed):
    # (T, C, B, out): a left fold for out >= 2, pairwise over B >= 8 for out == 1
    a = np.random.default_rng(seed).normal(size=shape)
    assert same_bits(_batch_sum(a), a.sum(axis=2))


@given(**{k: v for k, v in case_shapes.items() if k != "ops"})
@example(num_tasks=8, num_layers=3, batch=1, out=1, seed=0)
@settings(max_examples=60, deadline=None)
def test_identity_routing_equals_scatter_and_sum(num_tasks, num_layers, batch, out, seed):
    # None routes task t to operation t; its gradients hold each slot's one
    # term, where the scatter adds zeros to it: equal up to the sign of zero
    params, data, omega, scale, _ = reference_case(
        np.random.default_rng(seed), num_tasks, num_tasks, num_layers, batch, out
    )
    idx = np.arange(batch)
    identity = [np.arange(num_tasks)] * num_layers
    want_losses, want = engine_reference.backward_tasks(params, identity, data, idx, omega)
    losses, got = engine_backward(params, [None] * num_layers, data, idx, scale)
    assert losses == want_losses and len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    features = _features(params, [None] * num_layers, data.inputs_train)[0]
    assert same_bits(features, engine_reference.features(params, identity, data.inputs_train)[0])


def test_gradients_are_fresh_arrays():
    # a gradient written into a buffer that outlives the call, such as
    # SGD's, let three oracle tests compare a wrong gradient with itself
    data, sg = small_benchmark()
    params = warm_up(sg, data, quick_config(warmup_steps=0))
    opt = SGD(params, 0.3)
    held = params.parameters() + [params.flat]
    rng = np.random.default_rng(0)
    rows = list(softmax(rng.normal(size=(3, sg.num_layers, 3)), axis=2).swapaxes(0, 1))
    picks = [np.array([0, 1, 1])] * sg.num_layers
    first, second = np.arange(32), np.arange(32, 64)
    scale = _loss_scale((1.0,) * 3, data, first)
    cases = [([None] * sg.num_layers, False), (picks, False), (rows, False), (rows, True)]
    for routing, row_grads in cases:
        grads = engine_backward(params, routing, data, first, scale, row_grads)[1]
        kept = [g.copy() for g in grads]
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, a) for a in grads[i + 1 :] + held)
        again = engine_backward(params, routing, data, second, scale, row_grads)[1]
        assert not all(np.array_equal(a, g) for a, g in zip(again, grads))
        assert all(same_bits(g, k) for g, k in zip(grads, kept))
        if not row_grads:
            before = params.flat.copy()
            opt.step(grads)
            assert not np.array_equal(params.flat, before)
            assert all(same_bits(g, k) for g, k in zip(grads, kept))


class TestEngineGuards:
    def test_overflow_before_tanh_raises(self):
        # tanh(+-inf) = +-1 is finite, so the check must see the pre-activation
        data, sg = small_benchmark()
        params = warm_up(sg, data, quick_config(warmup_steps=0, seed=0))
        # one nonzero weight row, of the input that most often exceeds 1 in
        # size: a pre-activation sums one product and zeros, so it overflows
        # to +-inf, and no BLAS kernel can add +inf and -inf partial sums
        col = (np.abs(data.inputs_train) > 1).sum(axis=0).argmax()
        params.weights[0][...] = 0.0
        params.weights[0][:, col] = np.finfo(np.float64).max
        with np.errstate(over="ignore"):
            pre = data.inputs_train @ params.weights[0][0]
        assert np.isinf(pre).any() and np.isfinite(np.tanh(pre)).all()
        all_rows = np.arange(data.inputs_train.shape[0])
        scale = _loss_scale((1.0,) * 3, data, all_rows)
        for routing in ([np.eye(3)] * sg.num_layers, [np.arange(3)] * sg.num_layers):
            with pytest.raises(NumericError):
                with np.errstate(over="ignore", invalid="ignore"):
                    engine_backward(params, routing, data, all_rows, scale)
            with pytest.raises(NumericError):
                _fit("warm-up", params, routing, data, (1.0,) * 3, 1, rng_stream(0), 0.3)
        with pytest.raises(SearchError, match="at step 1"):
            search(quick_config(warmup_steps=0), sg, data, params=params)

    def test_training_failures_name_their_stage_and_step(self):
        data, sg = small_benchmark()
        settings = np.geterr()
        with pytest.raises(NumericError, match="^non-finite value at warm-up step 2: tensor"):
            warm_up(sg, data, quick_config(theta_lr=1e300))
        structure = derive_groupings(np.zeros((3, sg.num_layers), dtype=int))
        with pytest.raises(NumericError, match="^non-finite value at retrain step 2: tensor"):
            retrain(structure, sg, data, quick_config(theta_lr=1e300))
        params = warm_up(sg, data, quick_config(warmup_steps=0))
        params.weights[0][...] = 1e308
        with pytest.raises(SearchError, match="^non-finite value at step 1: tensor"):
            search(quick_config(), sg, data, params=params)
        # each training loop's errstate block closes when its error leaves it
        assert np.geterr() == settings

    def test_one_resource_pass_per_step(self, monkeypatch):
        calls = []

        def counted(alpha, table, grad=True):
            calls.append(grad)
            return bmtas.resloss._cost_and_grad(alpha, table, grad)

        monkeypatch.setattr("bmtas.search._cost_and_grad", counted)
        data, sg = small_benchmark()
        res = search(quick_config(resource_weight=0.2, search_steps=20), sg, data)
        # one pass at the initial logits, then one after each step's update
        assert calls == [True] * 21
        row = res.trace[-1]
        assert row.expected_cost == bmtas.resloss.expected_cost(res.alpha_final, sg.cost_table)
        calls.clear()
        search(quick_config(search_steps=20), sg, data)
        assert calls == [False] * 21
