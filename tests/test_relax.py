import numpy as np
import pytest
from scipy.special import softmax

from bmtas.errors import BoundsError, ConfigError, DomainError
from bmtas.relax import discretize, gumbel_noise, sample_soft, schedule_tau
from bmtas.resloss import ArchitectureParams
from bmtas.search import SearchConfig
from bmtas.seeding import rng_stream


class TestTemperatureSchedule:
    def test_linear_interpolation(self):
        assert schedule_tau(5.0, 0.1, 0, 100) == 5.0
        assert schedule_tau(5.0, 0.1, 100, 100) == pytest.approx(0.1)
        assert schedule_tau(5.0, 0.1, 50, 100) == pytest.approx(2.55)

    def test_monotone_decrease(self):
        taus = [schedule_tau(5.0, 0.1, s, 10) for s in range(11)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_step_bounds(self):
        with pytest.raises(BoundsError):
            schedule_tau(5.0, 0.1, 11, 10)
        with pytest.raises(BoundsError):
            schedule_tau(5.0, 0.1, -1, 10)

    def test_rejects_bad_ranges(self):
        # the schedule's ends and length are SearchConfig fields
        with pytest.raises(ConfigError):
            SearchConfig(tau_start=0.1, tau_end=5.0)
        with pytest.raises(ConfigError):
            SearchConfig(tau_start=1.0, tau_end=0.0)
        with pytest.raises(ConfigError):
            SearchConfig(search_steps=0)


class TestGumbelNoise:
    def test_finite_everywhere(self):
        g = gumbel_noise((1000, 4), rng_stream(0, "noise"))
        assert np.all(np.isfinite(g))

    def test_location_scale_moments(self):
        # standard Gumbel: mean = Euler-Mascheroni, var = pi^2 / 6
        g = gumbel_noise((200000,), rng_stream(1, "noise"))
        assert g.mean() == pytest.approx(0.5772, abs=0.02)
        assert g.var() == pytest.approx(np.pi ** 2 / 6, abs=0.05)


class TestSoftSampling:
    def test_soft_row_formula(self):
        a = ArchitectureParams(np.random.default_rng(0).normal(size=(3, 2, 3)))
        tau = 0.7
        row = sample_soft(a, 1, 2, tau, rng_stream(4, "gumbel"))
        noise = gumbel_noise((3,), rng_stream(4, "gumbel"))
        assert np.allclose(row, softmax((a.logits[1, 1] + noise) / tau))

    def test_positive_temperature_required(self):
        a = ArchitectureParams.zeros(2, 1)
        for tau in (0.0, -1.0):
            with pytest.raises(DomainError):
                sample_soft(a, 0, 1, tau, rng_stream(0))

    def test_sample_soft_is_a_distribution(self):
        a = ArchitectureParams.zeros(3, 2)
        rng = rng_stream(2, "soft")
        row = sample_soft(a, 1, 2, 0.5, rng)
        assert row.shape == (3,)
        assert np.all(row > 0) and row.sum() == pytest.approx(1.0)

    def test_bounds(self):
        a = ArchitectureParams.zeros(2, 2)
        rng = rng_stream(3)
        with pytest.raises(BoundsError):
            sample_soft(a, 2, 1, 1.0, rng)
        with pytest.raises(BoundsError):
            sample_soft(a, 0, 3, 1.0, rng)

    def test_low_tau_concentrates(self):
        a = ArchitectureParams.zeros(2, 1)
        z = sample_soft(a, 0, 1, 0.001, rng_stream(5))
        assert z.max() > 0.999


class TestDiscretize:
    def test_argmax_per_task_and_layer(self):
        logits = np.zeros((3, 2, 3))
        logits[0, 0, 2] = 1.0
        logits[0, 1, 1] = 1.0
        logits[1, 0, 0] = 1.0
        logits[1, 1, 2] = 1.0
        logits[2, 0, 1] = 1.0
        picks = discretize(ArchitectureParams(logits))
        assert picks.tolist() == [[2, 1], [0, 2], [1, 0]]

    def test_ties_pick_lowest_index(self):
        assert discretize(ArchitectureParams.zeros(3, 2)).tolist() == [[0, 0]] * 3


def test_gumbel_softmax_limit_matches_softmax():
    """At low temperature argmax frequencies approach the softmax itself."""
    rng = rng_stream(6, "limit")
    logits = np.array([0.8, -0.3, 0.1, -1.2])
    a = ArchitectureParams(logits.reshape(1, 1, 4).repeat(4, axis=0).copy())
    counts = np.zeros(4)
    n = 4000
    for _ in range(n):
        counts[np.argmax(sample_soft(a, 0, 1, 0.05, rng))] += 1
    assert np.abs(counts / n - softmax(logits)).max() < 0.03
