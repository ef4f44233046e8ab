"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 1-8 are data-free; criterion 9 runs only when the bundled CSVs are
present (REGIMELAB_DATA_DIR or ./data).
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from regimelab.cli import main
from regimelab.dataio import build_panel, load_monthly_csv, load_price_csv
from regimelab.econometrics import (
    depth_regression,
    headline_regression,
    ols_hac,
    robustness_sweep,
)
from regimelab.episodes import delta_sensitivity, detect_episodes
from regimelab.intermediary import IntermediaryConfig, simulate, to_monthly_table
from regimelab.nullmodels import (
    AsymVolParams,
    GbmParams,
    HestonParams,
    MarkovRsParams,
    NullSpec,
    run_null_study,
    simulate_path,
)
from regimelab.survival import cox_fit

from conftest import make_price_path
from oracles import (
    brute_force_episodes,
    grid_search_gamma,
    newey_west_sandwich,
    white_sandwich,
)

DATA_DIR = Path(os.environ.get("REGIMELAB_DATA_DIR") or "data")  # empty counts as unset, as in the CLI
PRICES = DATA_DIR / "sp500_daily.csv"
MONTHLY = DATA_DIR / "finra_vix_monthly.csv"

STUDY_KW = dict(n_days=19_170, n_paths=1_000, seed=1, delta=0.05)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1Gbm:
    def test_gbm_null_study(self):
        s = run_null_study(NullSpec("gbm", GbmParams(), **STUDY_KW), 1.35)
        ok = (
            0.95 <= s.median_tau <= 1.05
            and abs(s.q05 - 0.81) <= 0.10
            and abs(s.q95 - 1.24) <= 0.10
            and s.p_one_sided <= 0.03
        )
        report(1, ok, f"gbm median {s.median_tau:.3f}, range [{s.q05:.3f}, {s.q95:.3f}], "
                      f"p {s.p_one_sided:.3f}")


class TestCriterion2MarkovAsym:
    def test_markov_and_asym_vol_studies(self):
        mk = run_null_study(NullSpec("markov_rs", MarkovRsParams(), **STUDY_KW), 1.35)
        av = run_null_study(NullSpec("asym_vol", AsymVolParams(), **STUDY_KW), 1.35)
        ok = 1.07 <= mk.median_tau <= 1.27 and 0.98 <= av.median_tau <= 1.12
        report(2, ok, f"markov_rs median {mk.median_tau:.3f}, asym_vol median {av.median_tau:.3f}")


class TestCriterion3Heston:
    def test_heston_study(self):
        s = run_null_study(NullSpec("heston", HestonParams(), **STUDY_KW), 1.35)
        rejected = 1_000 - s.n_accepted
        ok = 1.10 <= s.median_tau <= 1.90 and rejected > 0
        report(3, ok, f"heston median {s.median_tau:.3f}, rejected {rejected}/1000 "
                      f"(count is not an acceptance target)")


class TestCriterion4HacOracle:
    def test_white_and_bartlett_oracles(self):
        rng = np.random.default_rng(40)
        worst0 = worst6 = 0.0
        for _ in range(20):
            n = int(rng.integers(12, 60))
            k = int(rng.integers(2, 5))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
            y = X @ rng.standard_normal(k) + rng.standard_normal(n) * (0.5 + rng.random(n))
            f0 = ols_hac(y, X, lags=0)
            b0, c0 = white_sandwich(y, X)
            worst0 = max(worst0, np.abs(f0.hac_cov - c0).max(), np.abs(f0.coef - b0).max())
            f6 = ols_hac(y, X, lags=6)
            b6, c6 = newey_west_sandwich(y, X, 6)
            worst6 = max(worst6, np.abs(f6.hac_cov - c6).max(), np.abs(f6.coef - b6).max())
        ok = worst0 < 1e-10 and worst6 < 1e-10
        report(4, ok, f"HAC vs direct summation: worst L=0 dev {worst0:.2e}, "
                      f"worst L=6 dev {worst6:.2e} over 20 instances")


class TestCriterion5CoxOracle:
    def test_newton_vs_grid(self):
        rng = np.random.default_rng(50)
        worst = 0.0
        done = 0
        while done < 30:
            n = int(rng.integers(8, 31))
            x = rng.uniform(0.05, 0.6, n)
            g_true = float(rng.uniform(-12, 2))
            d = rng.exponential(1.0 / np.exp(g_true * x))
            e = np.ones(n, dtype=int)
            if rng.random() < 0.4:
                cut = rng.random(n) < 0.25
                d[cut] *= rng.random(cut.sum())
                e[cut] = 0
            if rng.random() < 0.5:
                d = np.ceil(d * 10)  # integer durations with ties
            try:
                fit = cox_fit(d, e, x)
            except ValueError:
                continue  # separated or under-identified draw; take the next one
            if not -25.0 <= fit.gamma <= 4.0:
                continue  # MLE outside the oracle grid; the comparison is undefined there
            worst = max(worst, abs(fit.gamma - grid_search_gamma(d, e, x)))
            done += 1
        ok = worst <= 0.02
        report(5, ok, f"Newton vs 0.01-step grid: worst |diff| {worst:.4f} over 30 instances")

    def test_simulation_recovery(self):
        hits = 0
        for i in range(200):
            rng = np.random.default_rng(5_000 + i)
            x = rng.uniform(0.05, 0.6, 73)
            d = rng.exponential(1.0 / np.exp(-10.0 * x))
            fit = cox_fit(d, np.ones(73, dtype=int), x)
            if abs(fit.gamma + 10.0) <= 2.0 * fit.se:
                hits += 1
        ok = hits >= 180
        report(5, ok, f"gamma=-10 recovery within 2 SE in {hits}/200 replications")


def _random_path(rng):
    n = int(rng.integers(10, 201))
    kind = rng.integers(0, 4)
    if kind == 0:  # integer walk: ties, flat tops
        closes = 100.0 + np.concatenate([[0], np.cumsum(rng.integers(-3, 4, n - 1))])
        return np.maximum(closes, 1.0)
    if kind == 1:  # lognormal walk
        return 100.0 * np.exp(np.cumsum(rng.normal(0.001, 0.05, n)))
    if kind == 2:  # trending with crash segments
        seg = np.concatenate([np.linspace(100, 130, n // 2 + 1),
                              np.linspace(130, 80, n - n // 2)[1:]])
        return seg + rng.normal(0, 2.0, seg.size)
    closes = 50.0 + 10.0 * rng.integers(0, 4, n)  # coarse grid: heavy ties
    return closes.astype(float)


class TestCriterion6EpisodeOracle:
    def test_brute_force_equivalence_500_paths(self):
        rng = np.random.default_rng(60)
        deltas = (0.03, 0.05, 0.10)
        mismatches = 0
        for i in range(500):
            closes = np.abs(_random_path(rng)) + 1.0
            delta = deltas[i % 3]
            path = make_price_path(closes)
            fast = [(e.peak_idx, e.trough_idx, e.recovery_idx)
                    for e in detect_episodes(path, delta, allow_censored=True)]
            if fast != brute_force_episodes(closes, delta, allow_censored=True):
                mismatches += 1
        ok = mismatches == 0
        report(6, ok, f"episode scan vs quadratic brute force: {mismatches} mismatches "
                      f"on 500 paths")

    def test_constructed_thirty_percent_path(self):
        down = np.linspace(100.0, 70.0, 51)
        up = np.linspace(70.0, 100.0, 151)
        eps = detect_episodes(make_price_path(np.concatenate([down, up[1:]])), 0.05)
        e = eps[0]
        ok = (
            len(eps) == 1
            and math.isclose(e.depth, 0.30)
            and math.isclose(e.retention, 0.70)
            and e.t_dd == 50
            and e.t_rec == 150
            and math.isclose(e.tau, 3.0)
        )
        report(6, ok, f"constructed path: depth {e.depth:.3f}, T_dd {e.t_dd}, "
                      f"T_rec {e.t_rec}, tau {e.tau:.2f}")


class TestCriterion7ModelIdentities:
    def test_stress_contraction_identity(self):
        worst = 0.0
        for seed in range(10):
            sim = simulate(IntermediaryConfig(seed=seed))
            x = sim.agent_exposure()
            s = sim.regime
            pairs = np.flatnonzero((s[:-1] == 1) & (s[1:] == 1))
            for t in pairs:
                implied = (sim.capital[t + 1] / sim.capital[t]) * (sim.vol[t] / sim.vol[t + 1])
                worst = max(worst, np.abs(x[t + 1] / x[t] / implied - 1.0).max())
        ok = worst < 1e-12
        report(7, ok, f"multiplicative contraction identity: worst rel dev {worst:.2e} "
                      f"across all stress pairs, 10 seeds")

    def test_calm_replenishment_level_independence(self):
        sim0 = simulate(IntermediaryConfig(eps=0.0, capital_noise_sd=0.0, seed=7))
        A, s = sim0.aggregate, sim0.regime
        pair = (s[:-1] == 0) & (s[1:] == 0)
        dA, lvl = np.diff(A)[pair], A[:-1][pair]
        cov0 = abs(float(np.mean((dA - dA.mean()) * (lvl - lvl.mean()))))
        covs = []
        for eps in (0.01, 0.005, 0.001):
            sim = simulate(IntermediaryConfig(eps=eps, capital_noise_sd=0.0, seed=7))
            A, s = sim.aggregate, sim.regime
            pair = (s[:-1] == 0) & (s[1:] == 0)
            dA, lvl = np.diff(A)[pair], A[:-1][pair]
            covs.append(abs(float(np.mean((dA - dA.mean()) * (lvl - lvl.mean())))))
        shrinks = all(c < 15_000.0 * e for c, e in zip(covs, (0.01, 0.005, 0.001)))
        ok = cov0 < 1e-10 and shrinks and covs[0] > covs[2]
        report(7, ok, f"additive replenishment: |cov| {cov0:.2e} at eps=0, "
                      f"{covs[0]:.1f}/{covs[1]:.1f}/{covs[2]:.1f} at eps=1e-2/5e-3/1e-3")

    def test_headline_on_synthetic_100_seeds(self):
        hits = 0
        for seed in range(100):
            sim = simulate(IntermediaryConfig(seed=seed))
            try:
                fit = headline_regression(build_panel(to_monthly_table(sim)), lags=6)
            except ValueError:
                continue
            if fit.b_S < 0 and fit.wald_p < 0.05:
                hits += 1
        ok = hits >= 95
        report(7, ok, f"synthetic headline b_S < 0 with p < 0.05 in {hits}/100 seeds")


class TestCriterion8Determinism:
    def test_run_all_byte_identical(self, tmp_path):
        spec = NullSpec("gbm", GbmParams(), n_days=2_500, n_paths=2, seed=12)
        prices = tmp_path / "prices.csv"
        closes = simulate_path(spec, 0).closes
        dates = np.datetime64("1990-01-02", "D") + np.arange(closes.size)
        prices.write_text(
            "date,close\n" + "\n".join(f"{d},{float(c)!r}" for d, c in zip(dates, closes)) + "\n"
        )
        args = ["run-all", "--prices", str(prices), "--data-dir", str(tmp_path / "none"),
                "--models", "gbm,block_bootstrap", "--paths", "6", "--days", "1200",
                "--seed", "5", "--bootstrap-b", "250", "--periods", "240", "--agents", "20"]
        rc1 = main(args + ["--out", str(tmp_path / "a")])
        rc2 = main(args + ["--out", str(tmp_path / "b")])
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        same = files_a == files_b and all(
            (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
            for f in files_a
        )
        ok = rc1 == 0 and rc2 == 0 and same
        report(8, ok, f"repeated run-all produced byte-identical outputs ({len(files_a)} files)")


needs_data = pytest.mark.skipif(
    not (PRICES.exists() and MONTHLY.exists()),
    reason="bundled CSVs not supplied; data-conditional criteria skipped",
)


@needs_data
class TestCriterion9DataConditional:
    @pytest.fixture(scope="class")
    def price_path(self):
        return load_price_csv(PRICES)

    @pytest.fixture(scope="class")
    def panel(self):
        return build_panel(load_monthly_csv(MONTHLY), q=0.10)

    def test_episode_counts(self, price_path):
        eps = detect_episodes(price_path, 0.05, allow_censored=True)
        completed = [e for e in eps if not e.censored]
        deep = [e for e in completed if e.depth > 0.30]
        ok = len(completed) == 73 and len(deep) == 6
        report(9, ok, f"bundled S&P: {len(completed)} episodes, {len(deep)} deeper than 30%")

    def test_headline_table(self, panel):
        fit = headline_regression(panel, lags=6)
        targets = {"a": 0.046, "a_S": 0.099, "b": -0.040, "b_S": -0.165}
        devs = {n: abs(fit.fit.coef[i] - targets[n]) for i, n in enumerate(fit.fit.names)}
        ok = all(d <= 0.005 for d in devs.values()) and fit.wald_p < 0.01
        report(9, ok, f"headline coefficients within 0.005 of Table-1 values, "
                      f"p(b_S) {fit.wald_p:.4f}")

    def test_cox_gamma(self, price_path):
        eps = detect_episodes(price_path, 0.05, allow_censored=True)
        last = len(price_path) - 1
        durations = [e.t_rec if not e.censored else last - e.trough_idx for e in eps]
        events = [0 if e.censored else 1 for e in eps]
        fit = cox_fit(durations, events, [e.depth for e in eps])
        ok = abs(fit.gamma + 13.75) <= 0.5 and fit.z < -5
        report(9, ok, f"cox gamma {fit.gamma:.2f} (z {fit.z:.2f})")

    def test_depth_regression_variants(self, price_path):
        eps = detect_episodes(price_path, 0.05)
        fit = depth_regression(eps, lags=6)
        outliers = [e for e in eps if str(price_path.dates[e.peak_idx]).startswith("1980-11")]
        reduced = [e for e in eps if e not in outliers]
        fit_x = depth_regression(reduced, lags=6)
        ok = abs(fit.coef[1] - 1.22) <= 0.1 and abs(fit_x.coef[1] - 1.59) <= 0.1
        report(9, ok, f"depth beta {fit.coef[1]:.3f} full, {fit_x.coef[1]:.3f} excl 1980-11")

    def test_sweep_signs(self, panel):
        rows = robustness_sweep(panel)
        ok = all(r["b_S"] < 0 for r in rows if r["status"] == "ok" and r["b_S"] is not None)
        report(9, ok, "all identified sweep cells have negative interaction")

    def test_delta_sensitivity_counts(self, price_path):
        rows = delta_sensitivity(price_path)
        counts = [r["n_episodes"] for r in rows]
        ok = counts == [130, 73, 26]
        report(9, ok, f"episode counts at delta 3/5/10%: {counts}")
