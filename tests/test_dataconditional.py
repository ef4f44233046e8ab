"""Reference checks against the bundled historical inputs.

These are skipped entirely unless both files are present under
REGIMELAB_DATA_DIR (or ./data): sp500_daily.csv and finra_vix_monthly.csv.
"""

import os
from pathlib import Path

import pytest

from regimelab.dataio import build_panel, load_monthly_csv, load_price_csv
from regimelab.econometrics import headline_regression, robustness_sweep
from regimelab.episodes import bucket_stats, detect_episodes
from regimelab.nullmodels import BlockBootstrapParams, NullSpec, run_null_study
from regimelab.regime import classify
from regimelab.timeseries import log_returns

DATA_DIR = Path(os.environ.get("REGIMELAB_DATA_DIR") or "data")  # empty counts as unset, as in the CLI
PRICES = DATA_DIR / "sp500_daily.csv"
MONTHLY = DATA_DIR / "finra_vix_monthly.csv"

pytestmark = pytest.mark.skipif(
    not (PRICES.exists() and MONTHLY.exists()),
    reason="bundled CSVs not supplied",
)


@pytest.fixture(scope="module")
def price_path():
    return load_price_csv(PRICES)


@pytest.fixture(scope="module")
def monthly():
    return load_monthly_csv(MONTHLY)


class TestBundledShapes:
    def test_price_file_shape(self, price_path):
        assert len(price_path) == 19_170
        assert str(price_path.dates[0]) == "1950-01-03"
        assert str(price_path.dates[-1]) == "2026-03-28"

    def test_monthly_file_shape(self, monthly):
        assert len(monthly.months) == 351
        assert monthly.months[0] == "1997-01"
        assert monthly.months[-1] == "2026-03"


class TestRegimeThreshold:
    def test_ninetieth_percentile(self, monthly):
        cls = classify(monthly.vol_proxy, q=0.10)
        assert cls.threshold == pytest.approx(29.1, abs=0.2)
        assert cls.flags.sum() == 35


class TestEpisodeTable:
    def test_1973_episode(self, price_path):
        eps = detect_episodes(price_path, 0.05)
        match = [e for e in eps if str(price_path.dates[e.peak_idx]).startswith("1973-01")]
        assert len(match) == 1
        e = match[0]
        assert e.depth == pytest.approx(0.482, abs=0.005)
        assert e.t_dd == 436
        assert e.t_rec == 1462
        assert e.tau == pytest.approx(3.4, abs=0.05)

    def test_deep_bucket_median(self, price_path):
        eps = detect_episodes(price_path, 0.05)
        rows = bucket_stats(eps, bootstrap_B=10_000, seed=1)
        deep = next(r for r in rows if r.bucket == ">30%")
        assert deep.n == 6
        assert deep.median_tau == pytest.approx(3.1, abs=0.1)
        assert deep.ci_low == pytest.approx(1.5, abs=0.3)
        assert deep.ci_high == pytest.approx(5.2, abs=0.4)


class TestHeadlineTable:
    def test_interaction_row(self, monthly):
        fit = headline_regression(build_panel(monthly, q=0.10), lags=6)
        assert fit.b_S == pytest.approx(-0.165, abs=0.005)
        assert fit.fit.se[3] == pytest.approx(0.052, abs=0.005)
        assert fit.wald_p == pytest.approx(0.0016, abs=0.001)
        assert fit.stress_slope["estimate"] == pytest.approx(-0.205, abs=0.005)
        assert fit.b == pytest.approx(-0.040, abs=0.005)
        assert fit.fit.nobs == 350

    def test_lagged_regime_identification_check(self, monthly):
        fit = headline_regression(build_panel(monthly, q=0.10), lags=6, lag_regime=1)
        assert fit.b_S == pytest.approx(-0.20, abs=0.05)
        assert 0.03 <= fit.wald_p <= 0.20

    def test_threshold_sweep_range(self, monthly):
        rows = [r for r in robustness_sweep(build_panel(monthly, q=0.10)) if r["sweep"] == "threshold"]
        vals = [r["b_S"] for r in rows if r["status"] == "ok"]
        assert len(vals) == 4
        assert all(-0.345 - 0.05 <= v <= -0.118 + 0.05 for v in vals)
        assert all(v < 0 for v in vals)


class TestBlockBootstrapRow:
    def test_table4_block_row(self, price_path):
        returns = log_returns(price_path)
        spec = NullSpec(
            "block_bootstrap", BlockBootstrapParams(returns=returns),
            n_days=19_170, n_paths=1_000, seed=1,
        )
        s = run_null_study(spec, 1.35)
        assert 1.20 <= s.median_tau <= 1.40
        assert 0.2 <= s.p_one_sided <= 0.55
