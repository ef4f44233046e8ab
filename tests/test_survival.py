import math

import numpy as np
import pytest

from regimelab.survival import cox_fit

from oracles import breslow_loglik, grid_search_gamma


def synth_dataset(rng, gamma=-10.0, n=73, censor_frac=0.0):
    """Exponential durations with hazard exp(gamma * x), x uniform on [0.05, 0.6]."""
    x = rng.uniform(0.05, 0.6, n)
    durations = rng.exponential(1.0 / np.exp(gamma * x))
    events = np.ones(n, dtype=int)
    if censor_frac > 0:
        cut = rng.random(n) < censor_frac
        durations[cut] *= rng.random(cut.sum())
        events[cut] = 0
    return durations, events, x


class TestCoxFitErrors:
    def test_identical_covariate(self):
        rng = np.random.default_rng(0)
        d = rng.exponential(1.0, 20)
        with pytest.raises(ValueError, match="zero-variance"):
            cox_fit(d, np.ones(20, int), np.full(20, 0.3))

    def test_perfect_separation(self):
        # earliest failures carry the smallest covariate at every event time
        n = 12
        durations = np.arange(1.0, n + 1.0)
        x = np.arange(float(n))
        with pytest.raises(ValueError, match="non-finite MLE"):
            cox_fit(durations, np.ones(n, int), x)

    def test_too_few_events(self):
        with pytest.raises(ValueError, match="2 events"):
            cox_fit([1.0, 2.0, 3.0], [1, 0, 0], [0.1, 0.2, 0.3])

    def test_nonpositive_duration(self):
        with pytest.raises(ValueError, match="positive"):
            cox_fit([1.0, 0.0], [1, 1], [0.1, 0.2])
        with pytest.raises(ValueError, match="positive"):
            cox_fit([1.0, 2.0, -1.0], [1, 1, 0], [0.1, 0.2, 0.3])


class TestCoxFitInvariances:
    def test_censored_at_zero_duration_leaves_fit(self):
        # a series that ends on the trough of an open drawdown censors at duration 0
        rng = np.random.default_rng(5)
        d, e, x = synth_dataset(rng, n=30, censor_frac=0.2)
        base = cox_fit(d, e, x)
        fit = cox_fit(np.append(d, 0.0), np.append(e, 0), np.append(x, 0.45))
        assert fit.gamma == pytest.approx(base.gamma, rel=1e-9, abs=1e-12)
        assert fit.se == pytest.approx(base.se, rel=1e-9)
        assert fit.loglik == pytest.approx(base.loglik, rel=1e-9)
        assert fit.n_events == base.n_events
        assert fit.n_censored == base.n_censored + 1

    def test_duration_rescaling_leaves_gamma(self):
        rng = np.random.default_rng(3)
        d, e, x = synth_dataset(rng, n=40)
        a = cox_fit(d, e, x)
        b = cox_fit(1000.0 * d, e, x)
        assert b.gamma == pytest.approx(a.gamma, abs=1e-12)
        assert b.se == pytest.approx(a.se, abs=1e-12)

    def test_covariate_shift_absorbed(self):
        rng = np.random.default_rng(4)
        d, e, x = synth_dataset(rng, n=40)
        a = cox_fit(d, e, x)
        b = cox_fit(d, e, x + 100.0)
        assert b.gamma == pytest.approx(a.gamma, abs=1e-8)

    def test_covariate_sign_flip(self):
        rng = np.random.default_rng(5)
        d, e, x = synth_dataset(rng, n=40)
        a = cox_fit(d, e, x)
        b = cox_fit(d, e, -x)
        assert b.gamma == pytest.approx(-a.gamma, abs=1e-10)

    def test_hazard_ratio_field(self):
        rng = np.random.default_rng(6)
        d, e, x = synth_dataset(rng, n=50)
        fit = cox_fit(d, e, x)
        assert fit.hr_per_10pp == pytest.approx(math.exp(fit.gamma / 10.0))
        assert fit.se > 0
        assert fit.z == pytest.approx(fit.gamma / fit.se)
        assert fit.iterations < 100


class TestCoxAgainstOracle:
    def test_loglik_matches_oracle_definition(self):
        rng = np.random.default_rng(7)
        d, e, x = synth_dataset(rng, n=25, censor_frac=0.3)
        d = np.ceil(d * 20)  # force ties
        fit = cox_fit(d, e, x)
        # the reported loglik must equal the risk-set definition at gamma-hat
        assert fit.loglik == pytest.approx(
            breslow_loglik(fit.gamma, d, e, x - x.mean()), abs=1e-8
        )

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14, 15])
    def test_newton_matches_grid_search(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 31))
        d, e, x = synth_dataset(rng, gamma=float(rng.uniform(-12, 2)), n=n,
                                censor_frac=float(rng.uniform(0, 0.3)))
        if rng.random() < 0.5:
            d = np.ceil(d * 10)  # integer durations with ties
        try:
            fit = cox_fit(d, e, x)
        except ValueError:
            pytest.skip("separated instance")
        assert abs(fit.gamma - grid_search_gamma(d, e, x)) <= 0.02

    def test_simulation_recovery_smoke(self):
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(25):
            d, e, x = synth_dataset(rng, gamma=-10.0, n=73)
            fit = cox_fit(d, e, x)
            if abs(fit.gamma + 10.0) <= 2.0 * fit.se:
                hits += 1
        assert hits >= 20
