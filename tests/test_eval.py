import inspect
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from bmtas import eval as bmtas_eval
from bmtas.errors import DimensionMismatch, DomainError
from bmtas.eval import (
    MetricRecord,
    SyntheticTaskSpec,
    delta_m,
    generate_tasks,
    rsa_matrix,
)
from bmtas.partition import Partition
from bmtas.schema import CONFIG_SCHEMA
from bmtas.seeding import rng_stream
from conftest import fresh_python


class TestMetricRecord:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            MetricRecord(values=(1.0,), lower_better=(False, True))
        with pytest.raises(DimensionMismatch):
            MetricRecord(values=(1.0,), lower_better=(False,), names=("a", "b"))
        with pytest.raises(DomainError):
            MetricRecord(values=(float("nan"),), lower_better=(False,))

    def test_json_round_trip(self):
        obj = {
            "tasks": [
                {"name": "seg", "value": 61.4, "lower_better": False},
                {"name": "norm", "value": 14.7, "lower_better": True},
            ]
        }
        assert vars(MetricRecord.from_json(obj)) == vars(
            MetricRecord(values=(61.4, 14.7), lower_better=(False, True), names=("seg", "norm"))
        )


class TestDeltaM:
    def test_sign_conventions(self):
        base = MetricRecord(values=(100.0, 10.0), lower_better=(False, True))
        # higher-better up 10%, lower-better down 10%: both improvements
        model = MetricRecord(values=(110.0, 9.0), lower_better=(False, True))
        assert delta_m(model, base) == pytest.approx(10.0)
        # both degrade by 10%
        model = MetricRecord(values=(90.0, 11.0), lower_better=(False, True))
        assert delta_m(model, base) == pytest.approx(-10.0)

    def test_identity_is_zero(self):
        base = MetricRecord(values=(3.0, 4.0), lower_better=(True, False))
        assert delta_m(base, base) == 0.0

    def test_zero_baseline_rejected(self):
        base = MetricRecord(values=(0.0,), lower_better=(False,))
        model = MetricRecord(values=(1.0,), lower_better=(False,))
        with pytest.raises(DomainError):
            delta_m(model, base)

    @pytest.mark.parametrize(
        "m, b",
        [
            ((1e308, 1.0), (1e-310, 1.0)),  # the average overflows to inf
            ((1e308, 1.0), (-1e308, 1.0)),  # to -inf
            ((1e308, 1e308), (1e-310, -1e308)),  # inf + -inf is nan
        ],
    )
    def test_average_beyond_the_largest_float_rejected(self, m, b):
        model = MetricRecord(values=m, lower_better=(False, False))
        base = MetricRecord(values=b, lower_better=(False, False))
        with pytest.raises(DomainError, match="not finite"):
            delta_m(model, base)

    def test_direction_and_name_mismatches_rejected(self):
        a = MetricRecord(values=(1.0,), lower_better=(False,))
        b = MetricRecord(values=(1.0,), lower_better=(True,))
        with pytest.raises(DimensionMismatch):
            delta_m(a, b)
        c = MetricRecord(values=(1.0,), lower_better=(False,), names=("x",))
        d = MetricRecord(values=(1.0,), lower_better=(False,), names=("y",))
        with pytest.raises(DimensionMismatch):
            delta_m(c, d)
        e = MetricRecord(values=(1.0, 2.0), lower_better=(False, False))
        with pytest.raises(DimensionMismatch):
            delta_m(a, e)


class TestRsaMatrix:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        code = (
            "import sys, bmtas.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
        )
        assert fresh_python(code) == "[]\n"

    def test_rsa_matrix_loads_no_scipy(self):
        code = (
            "import sys, numpy as np; from bmtas.eval import rsa_matrix; "
            "rsa_matrix([np.arange(12.0).reshape(4, 3) ** k for k in (1, 2)]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert fresh_python(code) == "[]\n"

    def test_spearman_matches_scipy_bit_for_bit(self):
        rng = rng_stream(23, "spearman")
        pairs = [(np.ones(5), rng.normal(size=5)), (rng.normal(size=5), np.full(5, 2.0))]
        pairs.append((np.array([0.0, np.nan, 1.0]), np.array([1.0, 2.0, 3.0])))
        for _ in range(500):
            n = int(rng.integers(3, 60))
            if rng.random() < 0.5:  # few distinct values: many ties
                a, b = (rng.integers(0, 4, n).astype(float) for _ in range(2))
            else:
                a, b = rng.normal(size=n), rng.normal(size=n)
            pairs.append((a, b))
        constant = 0
        for a, b in pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # NaN for a constant input, without a warning
                got = bmtas_eval._spearman(a, b)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = spearmanr(a, b).statistic
            if np.isnan(want):
                constant += 1
                assert np.isnan(got)
            else:
                assert got == want
        assert constant >= 3

    def test_entries_match_scipy_spearman(self):
        rng = rng_stream(24, "rsa")
        # repeated probes give tied dissimilarities
        feats = [rng.normal(size=(6, 3))[[0, 0, 1, 2, 3, 3, 4, 5, 5]] for _ in range(4)]
        rsa = rsa_matrix(feats)
        rows, cols = np.triu_indices(9, k=1)
        patterns = [(1.0 - np.corrcoef(f))[rows, cols] for f in feats]
        assert any(len(np.unique(p)) < len(p) for p in patterns)
        for i in range(4):
            for j in range(i + 1, 4):
                assert rsa[i, j] == spearmanr(patterns[i], patterns[j]).statistic

    def test_diagonal_and_symmetry(self):
        rng = rng_stream(20, "rsa")
        feats = [rng.normal(size=(12, 5)) for _ in range(3)]
        rsa = rsa_matrix(feats)
        assert rsa.shape == (3, 3)
        assert np.allclose(np.diag(rsa), 1.0)
        assert np.allclose(rsa, rsa.T, equal_nan=True)
        assert np.all(rsa[np.isfinite(rsa)] <= 1.0 + 1e-12)

    def test_identical_encoders_score_one(self):
        f = rng_stream(21).normal(size=(10, 4))
        rsa = rsa_matrix([f, f.copy()])
        assert rsa[0, 1] == pytest.approx(1.0)

    def test_constant_features_yield_nan(self):
        f = rng_stream(22).normal(size=(8, 4))
        flat = np.ones((8, 4))
        rsa = rsa_matrix([f, flat])
        assert np.isnan(rsa[0, 1])
        assert rsa[0, 0] == 1.0

    def test_probe_requirements(self):
        with pytest.raises(DimensionMismatch):
            rsa_matrix([])
        with pytest.raises(DimensionMismatch):
            rsa_matrix([np.zeros((2, 3))])
        with pytest.raises(DimensionMismatch):
            rsa_matrix([np.zeros((5, 3)), np.zeros((4, 3))])


def pair_spec(**overrides):
    base = dict(
        num_tasks=4,
        input_dim=16,
        hidden_dim=4,
        target_dim=3,
        relatedness=Partition((0, 0, 1, 1)),
    )
    base.update(overrides)
    return SyntheticTaskSpec(**base)


class TestSyntheticTaskSpec:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            pair_spec(relatedness=Partition((0, 0, 1)))
        with pytest.raises(DomainError):
            pair_spec(noise_std=-0.1)
        with pytest.raises(DomainError):
            pair_spec(signal_scale=0.0)
        with pytest.raises(DomainError):
            pair_spec(hidden_dim=0)
        with pytest.raises(DomainError):
            pair_spec(train_samples=0)
        for dims in ({"hidden_dim": 17}, {"target_dim": 5}):
            with pytest.raises(DomainError, match="target_dim <= hidden_dim <= input_dim"):
                pair_spec(**dims)
        pair_spec(input_dim=4, hidden_dim=4, target_dim=4)  # equal widths are allowed

    def test_fields_are_the_config_benchmark_keys(self):
        keys = set(CONFIG_SCHEMA["properties"]["benchmark"]["properties"])
        names = list(inspect.signature(SyntheticTaskSpec).parameters)
        assert set(names) == keys and len(names) == 9
        # each one is kept under its own name
        assert set(vars(SyntheticTaskSpec(4, 8, 4, 2, Partition((0, 0, 1, 1))))) == keys


def per_task_data(spec, rng):
    """generate_tasks as it was written before its stacked pass: one group
    projection and one private projection per QR call, one task's clean
    targets and noise at a time. The bit-for-bit reference of the stacked
    pass, which draws the same stream."""

    def orthonormal_rows(rows, dim):
        q, _ = np.linalg.qr(rng.normal(size=(dim, rows)))
        return q.T[:rows]

    groups, hidden = spec.relatedness.num_blocks, spec.hidden_dim
    if groups * hidden <= spec.input_dim:
        joint = orthonormal_rows(groups * hidden, spec.input_dim)
        shared = [joint[g * hidden : (g + 1) * hidden] for g in range(groups)]
    else:
        shared = [orthonormal_rows(hidden, spec.input_dim) for _ in range(groups)]
    private = [
        spec.signal_scale * orthonormal_rows(spec.target_dim, hidden)
        for _ in range(spec.num_tasks)
    ]
    x_train = rng.normal(size=(spec.train_samples, spec.input_dim))
    x_test = rng.normal(size=(spec.test_samples, spec.input_dim))

    def targets(x):
        out = []
        for t, g in enumerate(spec.relatedness.rgs):
            clean = x @ shared[g].T @ private[t].T
            out.append(clean + spec.noise_std * rng.normal(size=clean.shape))
        return np.stack(out)

    return x_train, x_test, targets(x_train), targets(x_test)


class TestGenerateTasks:
    # group projections drawn jointly, jointly at the input width, and per group
    @pytest.mark.parametrize(
        "relatedness, hidden_dim", [((0, 0, 1, 1), 4), ((0, 1, 2, 3), 4), ((0, 1, 0, 2), 6)]
    )
    def test_stacked_pass_equals_the_per_task_loop(self, relatedness, hidden_dim):
        spec = pair_spec(
            relatedness=Partition(relatedness),
            hidden_dim=hidden_dim,
            train_samples=64,
            test_samples=32,
        )
        data = generate_tasks(spec, rng_stream(28, "data"))
        got = (data.inputs_train, data.inputs_test, data.targets_train, data.targets_test)
        for a, b in zip(got, per_task_data(spec, rng_stream(28, "data"))):
            np.testing.assert_array_equal(a, b)

    def test_shapes_and_names(self):
        data = generate_tasks(pair_spec(), rng_stream(23, "data"))
        assert data.task_names == ("t0", "t1", "t2", "t3")
        assert data.inputs_train.shape == (512, 16)
        assert data.inputs_test.shape == (256, 16)
        assert all(y.shape == (512, 3) for y in data.targets_train)
        assert data.num_tasks == 4
        assert data.targets_train.shape == (4, 512, 3)

    def test_noiseless_targets_live_in_group_subspace(self):
        # related tasks share an input subspace: their clean targets are
        # linear in the same hidden projection, unrelated groups orthogonal
        spec = pair_spec(noise_std=0.0, train_samples=4000)
        data = generate_tasks(spec, rng_stream(24, "data"))
        y = [t - t.mean(axis=0) for t in data.targets_train]
        within = np.abs(np.corrcoef(y[0].T, y[1].T)[:3, 3:]).max()
        cross = np.abs(np.corrcoef(y[0].T, y[2].T)[:3, 3:]).max()
        assert within > 0.5
        assert cross < 0.1

    def test_signal_scale_sets_amplitude(self):
        small = generate_tasks(
            pair_spec(noise_std=0.0, signal_scale=0.1), rng_stream(25, "data")
        )
        large = generate_tasks(
            pair_spec(noise_std=0.0, signal_scale=1.0), rng_stream(25, "data")
        )
        ratio = large.targets_train[0].std() / small.targets_train[0].std()
        assert ratio == pytest.approx(10.0, rel=1e-9)

    def test_seeded_and_deterministic(self):
        a = generate_tasks(pair_spec(), rng_stream(27, "data"))
        b = generate_tasks(pair_spec(), rng_stream(27, "data"))
        assert np.array_equal(a.inputs_train, b.inputs_train)
        assert all(
            np.array_equal(x, y) for x, y in zip(a.targets_train, b.targets_train)
        )
