import numpy as np
import pytest

from bmtas.errors import BoundsError, ConfigError, DomainError, SearchError
from bmtas.eval import SyntheticTaskSpec, generate_tasks
from bmtas.graph import (
    RoutingMask,
    SupergraphSpec,
    derive_groupings,
    structure_hash,
)
from bmtas.nncore import LossWeights, candidate_forward
from bmtas.partition import Partition
from bmtas.relax import TemperatureSchedule
from bmtas.search import (
    SearchConfig,
    SearchResult,
    retrain,
    retrain_model,
    search,
    warm_up,
)
from bmtas.seeding import rng_stream


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
    supergraph = SupergraphSpec.chain([8, 6, 6], num_tasks)
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
            SearchConfig(alpha_data_fraction=0.0)
        with pytest.raises(ConfigError):
            SearchConfig(alpha_data_fraction=1.0)
        with pytest.raises(ConfigError):
            SearchConfig(search_steps=0)
        with pytest.raises(ConfigError):
            SearchConfig(batch_size=0)

    def test_default_schedule_spans_the_run(self):
        cfg = SearchConfig(search_steps=200)
        assert cfg.schedule == TemperatureSchedule(total_steps=199)

    def test_explicit_schedule_kept(self):
        sched = TemperatureSchedule(start=2.0, end=0.5, total_steps=7)
        assert SearchConfig(schedule=sched).schedule is sched

    def test_weights_for_checks_length(self):
        data, _ = small_benchmark()
        cfg = SearchConfig(omega=LossWeights((1.0, 2.0)))
        with pytest.raises(ConfigError):
            cfg.weights_for(data)
        assert SearchConfig().weights_for(data).omega == (1.0, 1.0, 1.0)


class TestWarmUp:
    def test_differentiates_candidates_and_learns(self):
        data, sg = small_benchmark()
        params = warm_up(sg, data, 60, rng_stream(0, "warmup"))
        w = params.weights[0]
        assert not np.allclose(w[0].data, w[1].data)

        def own_loss(t):
            h = data.inputs_test
            for layer in range(1, sg.num_layers + 1):
                h = candidate_forward(params, layer, t, h).data
            pred = h @ params.head_weights[t].data + params.head_biases[t].data
            return float(((pred - data.targets_test[t]) ** 2).mean())

        var = float(np.var(data.targets_test[0]))
        assert own_loss(0) < 0.25 * var

    def test_rejects_task_mismatch(self):
        data, _ = small_benchmark()
        with pytest.raises(ConfigError):
            warm_up(SupergraphSpec.chain([8, 6, 6], 4), data, 1, rng_stream(0))


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
            assert 1.0 - 1e-9 <= row.resource_loss <= sg.num_tasks + 1e-9
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
        assert a.trace == b.trace

    def test_seed_changes_trajectory(self):
        data, sg = small_benchmark()
        a = search(quick_config(seed=0), sg, data)
        b = search(quick_config(seed=1), sg, data)
        assert not np.array_equal(a.alpha_final.logits, b.alpha_final.logits)

    def test_accepts_pretrained_params(self):
        data, sg = small_benchmark()
        params = warm_up(sg, data, 40, rng_stream(0, "warmup"))
        res = search(quick_config(), sg, data, params=params)
        assert len(res.trace) == 50

    def test_task_mismatch_rejected(self):
        data, _ = small_benchmark()
        with pytest.raises(ConfigError):
            search(quick_config(), SupergraphSpec.chain([8, 6, 6], 4), data)

    def test_divergence_raises_search_error_with_trace(self):
        data, sg = small_benchmark()
        cfg = quick_config(theta_lr=1e8, warmup_steps=0, search_steps=30)
        with pytest.raises(SearchError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                search(cfg, sg, data)
        assert isinstance(err.value.trace, list)

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
        sg = SupergraphSpec.chain([4, 3, 3], 2)
        cfg = quick_config(alpha_lr=1.7e308, warmup_steps=0, search_steps=10)
        with pytest.raises(SearchError, match="at step 2") as err:
            with np.errstate(all="ignore"):
                search(cfg, sg, data)
        assert [row.step for row in err.value.trace] == [1]

    def test_heavy_resource_weight_collapses_to_shared(self):
        data, sg = small_benchmark(train=256)
        cfg = SearchConfig(
            resource_weight=0.5, warmup_steps=150, search_steps=200, seed=0
        )
        res = search(cfg, sg, data)
        assert all(k.num_blocks == 1 for k in res.structure.groupings)


def branched_structure(num_tasks, num_layers):
    masks = [
        RoutingMask.from_choices(t, [t] * num_layers, num_tasks)
        for t in range(num_tasks)
    ]
    return derive_groupings(masks)


def shared_structure(num_tasks, num_layers):
    masks = [
        RoutingMask.from_choices(t, [0] * num_layers, num_tasks)
        for t in range(num_tasks)
    ]
    return derive_groupings(masks)


class TestRetrain:
    def test_deterministic_and_keyed_by_names(self):
        data, sg = small_benchmark()
        cfg = quick_config()
        s = shared_structure(3, 2)
        a = retrain(s, sg, data, cfg, seed=0)
        b = retrain(s, sg, data, cfg, seed=0)
        assert a == b
        assert set(a) == set(data.task_names)

    def test_fully_branched_equals_single_task_runs(self):
        # name-keyed init and batch streams make the branched run decompose
        data, sg = small_benchmark()
        cfg = quick_config()
        joint = retrain_model(branched_structure(3, 2), sg, data, cfg, seed=3)
        for t, name in enumerate(data.task_names):
            solo_sg = SupergraphSpec.chain([8, 6, 6], 1)
            solo = retrain_model(
                branched_structure(1, 2),
                solo_sg,
                data.select_tasks([t]),
                cfg,
                seed=3,
            )
            assert joint.test_mse[name] == solo.test_mse[name]
            np.testing.assert_array_equal(
                joint.params.head_weights[t].data, solo.params.head_weights[0].data
            )
            # fully branched: task t's block is operation t of every layer
            for layer in range(2):
                w_joint = joint.params.weights[layer][t].data
                w_solo = solo.params.weights[layer][0].data
                np.testing.assert_array_equal(w_joint, w_solo)

    def test_learns_the_tasks(self):
        data, sg = small_benchmark()
        cfg = quick_config(retrain_steps=300)
        mse = retrain(shared_structure(3, 2), sg, data, cfg, seed=0)
        for name in data.task_names:
            t = data.task_names.index(name)
            var = float(np.var(data.targets_test[t]))
            assert mse[name] < 0.5 * var

    def test_predict_and_features_agree(self):
        data, sg = small_benchmark()
        model = retrain_model(
            branched_structure(3, 2), sg, data, quick_config(), seed=1
        )
        feats = model.encoder_features(1, data.inputs_test)
        assert feats.shape == (64, 6)
        w, b = model.params.head_weights[1].data, model.params.head_biases[1].data
        np.testing.assert_allclose(model.predict(1, data.inputs_test), feats @ w + b)
        for task in (-1, 3):
            with pytest.raises(BoundsError):
                model.encoder_features(task, data.inputs_test)

    def test_structure_mismatches_rejected(self):
        data, sg = small_benchmark()
        cfg = quick_config()
        with pytest.raises(ConfigError):
            retrain(shared_structure(4, 2), sg, data, cfg, seed=0)
        with pytest.raises(ConfigError):
            retrain(shared_structure(3, 3), sg, data, cfg, seed=0)

    def test_omega_changes_training(self):
        data, sg = small_benchmark()
        s = shared_structure(3, 2)
        plain = retrain(s, sg, data, quick_config(), seed=0)
        tilted = retrain(
            s, sg, data, quick_config(omega=LossWeights((8.0, 1.0, 1.0))), seed=0
        )
        assert plain != tilted
