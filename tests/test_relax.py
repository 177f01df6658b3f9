import numpy as np
import pytest
from scipy.special import softmax

from bmtas.errors import BoundsError, ConfigError
from bmtas.resloss import ArchitectureParams
from bmtas.resloss import softmax as bmtas_softmax
from bmtas.search import SearchConfig, discretize, gumbel_noise, schedule_tau
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
        # the schedule's ends and length are SearchConfig parameters
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


def soft_rows(logits, tau, rng):
    """Routing rows as the search draws them: one Gumbel draw per logit, then
    the numpy softmax over the last axis."""
    return bmtas_softmax((logits + gumbel_noise(logits.shape, rng)) / tau, axis=-1)


class TestSoftSampling:
    def test_soft_row_formula(self):
        logits = np.random.default_rng(0).normal(size=(3, 2, 3))
        tau = 0.7
        rows = soft_rows(logits, tau, rng_stream(4, "gumbel"))
        noise = gumbel_noise((3, 2, 3), rng_stream(4, "gumbel"))
        for t, l in np.ndindex(3, 2):
            assert np.allclose(rows[t, l], softmax((logits[t, l] + noise[t, l]) / tau))

    def test_sample_soft_is_a_distribution(self):
        rows = soft_rows(np.zeros((3, 2, 3)), 0.5, rng_stream(2, "soft"))
        assert rows.shape == (3, 2, 3)
        assert np.all(rows > 0)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0)

    def test_low_tau_concentrates(self):
        z = soft_rows(np.zeros((2, 1, 2)), 0.001, rng_stream(5))
        assert np.all(z.max(axis=-1) > 0.999)


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
    n = 4000
    picks = soft_rows(np.tile(logits, (n, 1)), 0.05, rng).argmax(axis=1)
    counts = np.bincount(picks, minlength=4)
    assert np.abs(counts / n - softmax(logits)).max() < 0.03
