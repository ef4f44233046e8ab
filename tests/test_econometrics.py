import math

import numpy as np
import pytest

from regimelab import econometrics
from regimelab.dataio import MonthlyPanel, build_panel
from regimelab.econometrics import (
    depth_regression,
    headline_regression,
    ols_hac,
    robustness_sweep,
)
from regimelab.episodes import Episode, detect_episodes
from regimelab.intermediary import IntermediaryConfig, simulate, to_monthly_table
from regimelab.nullmodels import GbmParams, NullSpec, simulate_path

from oracles import newey_west_sandwich, white_sandwich


def random_instance(rng, n=12, k=3):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    beta = rng.standard_normal(k)
    y = X @ beta + rng.standard_normal(n) * (0.5 + rng.random(n))
    return y, X


class TestOlsHac:
    def test_exact_fit_zero_residuals(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        y = 3.0 - 0.5 * np.arange(20.0)
        for lags in (0, 3, 6):
            fit = ols_hac(y, X, lags)
            assert fit.coef == pytest.approx([3.0, -0.5], abs=1e-12)
            assert fit.se == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_lag0_matches_white_oracle(self):
        rng = np.random.default_rng(14)
        y, X = random_instance(rng, n=12)
        fit = ols_hac(y, X, lags=0)
        beta_o, cov_o = white_sandwich(y, X)
        assert np.allclose(fit.coef, beta_o, atol=1e-10)
        assert np.allclose(fit.hac_cov, cov_o, atol=1e-10)

    def test_lag6_matches_double_sum_oracle(self):
        rng = np.random.default_rng(15)
        y, X = random_instance(rng, n=40)
        fit = ols_hac(y, X, lags=6)
        beta_o, cov_o = newey_west_sandwich(y, X, 6)
        assert np.allclose(fit.coef, beta_o, atol=1e-10)
        assert np.allclose(fit.hac_cov, cov_o, atol=1e-10)

    def test_cov_symmetric_psd(self):
        rng = np.random.default_rng(16)
        y, X = random_instance(rng, n=60)
        fit = ols_hac(y, X, lags=6)
        assert np.allclose(fit.hac_cov, fit.hac_cov.T)
        assert np.linalg.eigvalsh(fit.hac_cov).min() > -1e-8

    @pytest.mark.parametrize("y,X,t,p", [
        (np.zeros(8), np.column_stack([np.ones(8), np.arange(8.0)]), [0.0, 0.0], [1.0, 1.0]),
        (np.eye(8)[0], np.column_stack([np.eye(8)[0], np.ones(8)]), [math.inf, 0.0], [0.0, 1.0]),
    ], ids=["zero-estimates", "exact-nonzero-estimate"])
    def test_zero_se_t_and_p(self, y, X, t, p):
        # se is exactly 0: t is 0 for a zero estimate and +-inf otherwise, whose p is 0
        fit = ols_hac(y, X, lags=0)
        assert fit.se.tolist() == [0.0, 0.0]
        assert fit.t.tolist() == t
        assert fit.p.tolist() == p

    def test_nan_outcome_gives_nan_p(self):
        # a NaN in y gives NaN estimates; their p is NaN, not 0 (which would read as significant)
        y = np.arange(8.0)
        y[3] = np.nan
        fit = ols_hac(y, np.column_stack([np.ones(8), np.arange(8.0)]), lags=0)
        assert np.isnan(fit.p).all()

    def test_p_monotone_in_abs_t(self):
        rng = np.random.default_rng(17)
        y, X = random_instance(rng, n=80, k=4)
        fit = ols_hac(y, X, lags=2)
        order = np.argsort(np.abs(fit.t))
        assert np.all(np.diff(fit.p[order]) <= 1e-15)

    def test_lags_not_below_nobs_rejected(self):
        rng = np.random.default_rng(19)
        y, X = random_instance(rng, n=5, k=2)
        with pytest.raises(ValueError, match=r"lags \(5\).*observations \(5\)"):
            ols_hac(y, X, lags=5)
        assert ols_hac(y, X, lags=4).nobs == 5

    def test_rank_deficient_names_column(self):
        X = np.column_stack([np.ones(30), np.arange(30.0), 2.0 * np.arange(30.0)])
        with pytest.raises(ValueError, match="dup"):
            ols_hac(np.arange(30.0), X, 0, names=("const", "x", "dup"))


def manual_panel(detrended, vol, threshold, q=0.10):
    months = [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(len(detrended))]
    return MonthlyPanel(
        months=months,
        margin_debt=np.abs(detrended) + 1.0,
        vol_proxy=np.asarray(vol, dtype=float),
        detrended=np.asarray(detrended, dtype=float),
        regime=(np.asarray(vol) > threshold).astype(int),
        threshold=threshold,
        q=q,
    )


class TestHeadlineRegression:
    @staticmethod
    def synthetic_panel(seed=7, **kw):
        sim = simulate(IntermediaryConfig(seed=seed, **kw))
        return build_panel(to_monthly_table(sim), q=0.10)

    def test_all_calm_errors(self):
        rng = np.random.default_rng(19)
        vol = 10 + rng.random(60)
        panel = manual_panel(1 + 0.1 * rng.standard_normal(60), vol, threshold=12.0)
        with pytest.raises(ValueError, match="unidentified"):
            headline_regression(panel)

    def test_synthetic_oracle_seed7_golden(self):
        # values fixed by seed 7 of the intermediary simulator, frozen at first build
        fit = headline_regression(self.synthetic_panel(seed=7), lags=6)
        assert fit.b_S < 0 and fit.wald_p < 0.05
        assert fit.b_S == pytest.approx(-0.443013472329, rel=1e-9)
        assert fit.n_stress == 36
        assert fit.stress_slope["estimate"] == pytest.approx(fit.b + fit.b_S, abs=1e-12)

    def test_wald_p_equals_interaction_p(self):
        fit = headline_regression(self.synthetic_panel(seed=3), lags=6)
        assert fit.wald_p == pytest.approx(fit.fit.p[3])

    def test_stress_slope_variance_identity(self):
        fit = headline_regression(self.synthetic_panel(seed=5), lags=6)
        cov = fit.fit.hac_cov
        var = cov[2, 2] + cov[3, 3] + 2 * cov[2, 3]
        s = fit.stress_slope
        assert s["estimate"] == pytest.approx(fit.b + fit.b_S, abs=1e-12)
        assert s["hac_se"] == pytest.approx(np.sqrt(var))
        assert s["t"] == pytest.approx(s["estimate"] / s["hac_se"])
        assert s["p"] == pytest.approx(math.erfc(abs(s["t"]) / math.sqrt(2.0)))
        assert fit.rows()[-1] == {"coef": "b_plus_bS", "estimate": s["estimate"],
                                  "hac_se": s["hac_se"], "t": s["t"], "p": s["p"]}

    def test_rescaling_detrended_level(self):
        rng = np.random.default_rng(21)
        vol = 10 + 5 * rng.random(120)
        detr = 1 + 0.2 * rng.standard_normal(120)
        thr = float(np.quantile(vol, 0.9))
        base = headline_regression(manual_panel(detr, vol, thr), lags=6)
        scaled = headline_regression(manual_panel(3.0 * detr, vol, thr), lags=6)
        assert scaled.b == pytest.approx(base.b, rel=1e-9)
        assert scaled.b_S == pytest.approx(base.b_S, rel=1e-9)
        assert scaled.fit.coef[0] == pytest.approx(3.0 * base.fit.coef[0], rel=1e-9)
        assert scaled.fit.coef[1] == pytest.approx(3.0 * base.fit.coef[1], rel=1e-9)

    def test_lagged_regime_drops_head(self):
        panel = self.synthetic_panel(seed=2)
        base = headline_regression(panel, lags=6)
        # the level lag already consumes one month, so a 1-month regime lag is free
        assert headline_regression(panel, lags=6, lag_regime=1).fit.nobs == base.fit.nobs
        assert headline_regression(panel, lags=6, lag_regime=2).fit.nobs == base.fit.nobs - 1


class TestDepthRegression:
    @staticmethod
    def fake_episode(i, depth, tau):
        return Episode(
            peak_idx=10 * i, trough_idx=10 * i + 3, recovery_idx=10 * i + 7,
            depth=depth, retention=1 - depth, t_dd=3, t_rec=4, tau=tau, censored=False,
        )

    def test_exact_exponential_relation(self):
        eps = [self.fake_episode(i, d, float(np.exp(2.0 * d)))
               for i, d in enumerate(np.linspace(0.05, 0.5, 12))]
        fit = depth_regression(eps)
        assert fit.coef[1] == pytest.approx(2.0, abs=1e-10)
        assert fit.coef[0] == pytest.approx(0.0, abs=1e-10)

    def test_censored_excluded_with_warning(self):
        eps = [self.fake_episode(i, d, float(np.exp(d))) for i, d in enumerate([0.1, 0.2, 0.3, 0.4])]
        eps.append(Episode(100, 105, None, 0.5, 0.5, 5, None, None, True))
        with pytest.warns(UserWarning, match="excluded 1 censored"):
            fit = depth_regression(eps, lags=3)  # 4 episodes support at most 3 lags
        assert fit.nobs == 4

    def test_too_few_episodes(self):
        eps = [self.fake_episode(i, 0.1 * (i + 1), 1.5) for i in range(2)]
        with pytest.raises(ValueError, match=r"^need >= 3 completed episodes, found 2$"):
            depth_regression(eps)

    def test_permuted_depths_rarely_significant(self):
        # pooled null episodes; breaking the depth-tau link should kill significance
        eps = []
        for i in range(3):
            path = simulate_path(NullSpec("gbm", GbmParams(), n_days=19_170, n_paths=3, seed=33), i)
            eps.extend(detect_episodes(path, 0.03))
        eps = [
            Episode(1000 * j, 1000 * j + e.t_dd, 1000 * j + e.t_dd + e.t_rec, e.depth,
                    e.retention, e.t_dd, e.t_rec, e.tau, False)
            for j, e in enumerate(eps)
        ]
        assert len(eps) > 200
        rng = np.random.default_rng(55)
        n_insig = 0
        for _ in range(100):
            perm = rng.permutation(len(eps))
            shuffled = [
                Episode(e.peak_idx, e.trough_idx, e.recovery_idx, eps[j].depth,
                        eps[j].retention, e.t_dd, e.t_rec, e.tau, False)
                for e, j in zip(eps, perm)
            ]
            fit = depth_regression(shuffled)
            if fit.p[1] >= 0.05:
                n_insig += 1
        assert n_insig >= 90


class TestRobustnessSweep:
    def test_single_threshold_matches_headline(self, monkeypatch):
        monkeypatch.setattr(econometrics, "SWEEP_CELLS",
                            (("threshold", "pct90", 0.10, "log_linear", None, None, None),))
        panel = TestHeadlineRegression.synthetic_panel(seed=7)
        rows = robustness_sweep(panel)
        assert len(rows) == 1
        direct = headline_regression(panel, lags=6)
        assert rows[0]["b_S"] == pytest.approx(direct.b_S, rel=1e-12)
        assert rows[0]["n_stress"] == direct.n_stress

    def test_synthetic_sign_stable_across_thresholds(self):
        panel = TestHeadlineRegression.synthetic_panel(seed=7)
        rows = [r for r in robustness_sweep(panel) if r["sweep"] == "threshold"]
        assert len(rows) == 4
        assert all(r["status"] == "ok" and r["b_S"] < 0 for r in rows)

    def test_failed_cells_absent_not_fatal(self):
        # vol ties everywhere: every quantile threshold equals the common value,
        # the strict comparison flags nothing, and each cell fails identification
        # (post2008, empty for these 2001-2004 months, is too short to fit)
        rng = np.random.default_rng(31)
        months = [f"{2001 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(48)]
        panel = MonthlyPanel(
            months=months,
            margin_debt=np.exp(0.01 * np.arange(48)) * (1 + 0.01 * rng.standard_normal(48)),
            vol_proxy=np.full(48, 20.0),
            detrended=np.ones(48),
            regime=np.zeros(48, dtype=int),
            threshold=20.0,
            q=0.10,
        )
        rows = robustness_sweep(panel)
        assert len(rows) == 9
        assert all(r["status"].startswith("failed") and r["b_S"] is None for r in rows)

    @pytest.mark.parametrize("last,status", [("2001-11", "failed: sub-sample too short"), ("2001-12", "ok")])
    def test_subsample_below_24_months_not_fitted(self, monkeypatch, last, status):
        # 2000-01..2001-11 is 23 months, one short of the 24 a sub-sample needs
        monkeypatch.setattr(econometrics, "SWEEP_CELLS",
                            (("subsample", "short", None, "log_linear", None, "2000-01", last),))
        panel = TestHeadlineRegression.synthetic_panel(seed=7)
        rows = robustness_sweep(panel)
        assert [(r["sweep"], r["cell"], r["status"]) for r in rows] == [("subsample", "short", status)]
        if status != "ok":
            assert all(rows[0][k] is None for k in ("b", "b_S", "p_bS", "stress_slope", "n_stress"))

    def test_full_sweep_has_all_sections(self):
        panel = TestHeadlineRegression.synthetic_panel(seed=7)
        rows = robustness_sweep(panel)
        sections = {r["sweep"] for r in rows}
        assert sections == {"threshold", "detrend", "subsample"}
        cells = [r["cell"] for r in rows if r["sweep"] == "threshold"]
        assert cells == ["pct80", "pct85", "pct90", "pct95"]
