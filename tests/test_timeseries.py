import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regimelab.timeseries import detrend, log_returns, realized_vol

from conftest import make_price_path


class TestLogReturns:
    def test_flat_prices_zero_return(self):
        assert log_returns(make_price_path([100.0, 100.0])) == pytest.approx([0.0])

    def test_ten_percent_gain(self):
        r = log_returns(make_price_path([100.0, 110.0]))
        assert r[0] == pytest.approx(math.log(1.1))
        assert r[0] == pytest.approx(0.0953102, abs=1e-6)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=60))
    def test_sum_telescopes(self, closes):
        path = make_price_path(closes)
        total = log_returns(path).sum()
        assert total == pytest.approx(math.log(closes[-1] / closes[0]), abs=1e-9)


class TestRealizedVol:
    def test_constant_returns_zero_vol(self):
        v = realized_vol(np.full(50, 0.001), window=21)
        assert np.all(np.isnan(v[:20]))
        assert v[20:] == pytest.approx(0.0, abs=1e-15)

    def test_iid_gaussian_matches_daily_sigma(self):
        rng = np.random.default_rng(42)
        sigma_d = 0.01
        returns = rng.normal(0.0, sigma_d, 10_020)
        v = realized_vol(returns, window=21)
        mean_vol = np.nanmean(v)
        target = sigma_d * math.sqrt(252)
        assert abs(mean_vol / target - 1.0) < 0.02

    @given(st.floats(min_value=-3.0, max_value=3.0).filter(lambda c: abs(c) > 1e-3))
    def test_scaling_homogeneity(self, c):
        rng = np.random.default_rng(7)
        returns = rng.normal(0, 0.01, 60)
        base = realized_vol(returns)
        scaled = realized_vol(c * returns)
        assert np.allclose(scaled[20:], abs(c) * base[20:], rtol=1e-10)

    def test_mean_shift_invariance(self):
        rng = np.random.default_rng(11)
        returns = rng.normal(0, 0.01, 80)
        shifted = realized_vol(returns + 0.005)
        assert np.allclose(shifted[20:], realized_vol(returns)[20:], atol=1e-12)

    def test_too_short_input(self):
        with pytest.raises(ValueError, match="at least"):
            realized_vol(np.ones(10), window=21)


class TestDetrend:
    def test_exact_exponential_trend(self):
        t = np.arange(120)
        series = 5.0 * np.exp(0.01 * t)
        assert np.allclose(detrend(series, "log_linear"), 1.0, atol=1e-10)

    def test_log_residual_mean_zero(self):
        rng = np.random.default_rng(5)
        series = 3.0 * np.exp(0.02 * np.arange(90)) * np.exp(rng.normal(0, 0.1, 90))
        assert abs(np.log(detrend(series, "log_linear")).mean()) < 1e-10

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(9)
        series = 5.0 * np.exp(0.01 * np.arange(50)) * (1 + 0.01 * rng.standard_normal(50))
        base = detrend(series, "log_linear")
        scaled = detrend(c * series, "log_linear")
        assert np.allclose(scaled, base, rtol=1e-9)

    def test_noisy_trend_mean_near_one(self):
        rng = np.random.default_rng(101)
        t = np.arange(240)
        noise = 0.01 * (2 * rng.integers(0, 2, 240) - 1)  # iid +/-1%
        series = 5.0 * np.exp(0.01 * t) * (1 + noise)
        assert 0.99 <= detrend(series, "log_linear").mean() <= 1.01

    def test_linear_scheme_positive_trend(self):
        series = 10.0 + 0.5 * np.arange(60)
        assert np.allclose(detrend(series, "linear"), 1.0, atol=1e-10)

    def test_linear_scheme_crossing_zero_errors(self):
        # fitted line runs straight through these points and hits zero in-sample
        series = np.linspace(10.0, -5.0, 40)
        with pytest.raises(ValueError, match="crosses zero"):
            detrend(series, "linear")

    @pytest.mark.parametrize("bad", [0.0, -1.0], ids=["zero", "negative"])
    @pytest.mark.parametrize("scheme", ["log_linear", "ema"])
    def test_non_positive_series_rejected(self, scheme, bad):
        series = 10.0 + np.arange(12.0)
        series[5] = bad
        with pytest.raises(ValueError, match=f"^{scheme} detrending requires a positive series$"):
            detrend(series, scheme)

    @pytest.mark.parametrize("bad", [0.0, -1.0], ids=["zero", "negative"])
    def test_linear_fits_non_positive_series_under_a_positive_trend(self, bad):
        series = 10.0 + np.arange(12.0)
        series[5] = bad
        detrended = detrend(series, "linear")
        slope, intercept = np.polyfit(np.arange(12.0), series, 1)
        assert np.allclose(detrended, series / (intercept + slope * np.arange(12.0)), rtol=1e-12)
        assert np.sign(detrended[5]) == np.sign(bad)

    def test_ema_tracks_level(self):
        series = np.full(48, 7.0)
        assert np.allclose(detrend(series, "ema", 12), 1.0, atol=1e-12)

    def test_ema_seeded_with_first_observation(self):
        series = np.array([4.0, 8.0, 8.0, 8.0])
        detrended = detrend(series, "ema", 12)
        assert detrended[0] == pytest.approx(1.0)
        assert detrended[1] > 1.0  # ema lags the jump
        alpha = 1.0 - 2.0 ** (-1.0 / 12)  # the 12-month half-life's weight
        assert detrended[1] == pytest.approx(8.0 / (4.0 + alpha * 4.0))

    def test_ema_bad_half_life(self):
        with pytest.raises(ValueError, match="half-life"):
            detrend(np.ones(10) + np.arange(10), "ema", 0.0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            detrend(np.ones(10), "quadratic")
