"""Return, realized-volatility, and detrending transforms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRADING_DAYS_PER_YEAR = 252

DETREND_SCHEMES = ("log_linear", "linear", "ema")


@dataclass(frozen=True)
class DetrendFit:
    """Fitted secular trend and the trend-relative (detrended) series.

    params is (intercept, slope) for the trend fits, or the half-life in
    months for the EMA scheme.
    """

    params: tuple[float, float] | float
    detrended: np.ndarray


def log_returns(path) -> np.ndarray:
    """Daily log returns ln(P_t / P_{t-1}); length n-1."""
    closes = np.asarray(path.closes, dtype=float)
    return np.diff(np.log(closes))


def realized_vol(returns: np.ndarray, window: int = 21) -> np.ndarray:
    """Trailing sample-stdev volatility, annualized by sqrt(252).

    Output is aligned with the input: entry t covers returns[t-window+1 .. t],
    and the first window-1 entries are NaN (no full window yet).
    """
    returns = np.asarray(returns, dtype=float)
    if window < 2:
        raise ValueError("window must be >= 2")
    if returns.size < window:
        raise ValueError(f"need at least {window} returns, got {returns.size}")
    windows = np.lib.stride_tricks.sliding_window_view(returns, window)
    vol = windows.std(axis=1, ddof=1) * math.sqrt(TRADING_DAYS_PER_YEAR)
    out = np.full(returns.size, np.nan)
    out[window - 1 :] = vol
    return out


def _ols_line(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    # least squares of y on (1, t); returns (intercept, slope)
    slope, intercept = np.polyfit(t, y, 1)
    return float(intercept), float(slope)


def detrend(series: np.ndarray, scheme: str = "log_linear", param: float | None = None) -> DetrendFit:
    """Remove a secular trend, returning the trend-relative series.

    log_linear: OLS of ln(y) on time, detrended = y / exp(fit).
    linear:     OLS of y on time, detrended = y / fit (fit must stay positive).
    ema:        exponential moving average with the given half-life (months),
                seeded with the first observation; detrended = y / ema.
    """
    y = np.asarray(series, dtype=float)
    if y.size < 3:
        raise ValueError("series must have length >= 3")
    if scheme not in DETREND_SCHEMES:
        raise ValueError(f"unknown detrend scheme {scheme!r}")
    t = np.arange(y.size, dtype=float)

    if scheme == "log_linear":
        if np.any(y <= 0):
            raise ValueError("log_linear detrending requires a positive series")
        intercept, slope = _ols_line(t, np.log(y))
        trend = np.exp(intercept + slope * t)
        return DetrendFit((intercept, slope), y / trend)

    if scheme == "linear":
        intercept, slope = _ols_line(t, y)
        trend = intercept + slope * t
        if np.any(trend <= 0):
            raise ValueError("linear fitted trend crosses zero; detrending undefined")
        return DetrendFit((intercept, slope), y / trend)

    # ema
    half_life = 12.0 if param is None else float(param)
    if half_life <= 0:
        raise ValueError("ema half-life must be > 0")
    if np.any(y <= 0):
        raise ValueError("ema detrending requires a positive series")
    alpha = 1.0 - math.exp(-math.log(2.0) / half_life)
    ema = np.empty_like(y)
    ema[0] = y[0]
    for i in range(1, y.size):
        ema[i] = (1.0 - alpha) * ema[i - 1] + alpha * y[i]
    return DetrendFit(half_life, y / ema)
