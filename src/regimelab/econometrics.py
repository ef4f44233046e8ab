"""OLS with Newey-West HAC covariance and the regime-interacted exposure regressions."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import MonthlyPanel, MonthlyTable, build_panel
from .episodes import Episode
from .regime import SWEEP_QUANTILES, lag_flags

HEADLINE_NAMES = ("a", "a_S", "b", "b_S")

SUBSAMPLE_SPLITS = (("pre2008", None, "2007-12"), ("post2008", "2009-01", None))
DETREND_SWEEP = (("log_linear", None), ("linear", None), ("ema", 12.0))


def _normal_p(t: float) -> float:
    # two-sided p under the standard normal reference
    return math.erfc(abs(t) / math.sqrt(2.0)) if math.isfinite(t) else 0.0


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients with HAC sandwich inference."""

    names: tuple[str, ...]
    coef: np.ndarray
    hac_cov: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    nobs: int
    lags: int

    def rows(self) -> list[dict]:
        return [
            {"coef": n, "estimate": float(b), "hac_se": float(s), "t": float(t), "p": float(p)}
            for n, b, s, t, p in zip(self.names, self.coef, self.se, self.t, self.p)
        ]


def ols_hac(
    y: np.ndarray,
    X: np.ndarray,
    lags: int,
    names: tuple[str, ...] | None = None,
) -> RegressionFit:
    """OLS with a Bartlett-weighted Newey-West covariance (lags=0 gives White).

    Sandwich: (X'X)^-1 S (X'X)^-1 with
    S = G_0 + sum_{l=1..L} (1 - l/(L+1)) (G_l + G_l'),
    G_l = sum_t x_t u_t u_{t-l} x_{t-l}'.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValueError("X must be (n, k) and y length n")
    n, k = X.shape
    if n <= k:
        raise ValueError(f"need more observations ({n}) than regressors ({k})")
    if not 0 <= lags < n:
        raise ValueError(f"lags ({lags}) must be >= 0 and below the number of observations ({n})")
    if names is None:
        names = tuple(f"x{i}" for i in range(k))

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    tol = diag.max() * n * np.finfo(float).eps
    bad = np.flatnonzero(diag <= tol)
    if bad.size:
        raise ValueError(f"design matrix is rank deficient: column {names[bad[0]]!r} is collinear")
    beta = np.linalg.solve(R, Q.T @ y)
    u = y - X @ beta

    Z = X * u[:, None]
    S = Z.T @ Z
    for lag in range(1, lags + 1):
        w = 1.0 - lag / (lags + 1.0)
        G = Z[lag:].T @ Z[:-lag]
        S += w * (G + G.T)

    r_inv = np.linalg.solve(R, np.eye(k))
    xtx_inv = r_inv @ r_inv.T
    cov = xtx_inv @ S @ xtx_inv
    cov = (cov + cov.T) / 2.0

    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
    p = np.array([_normal_p(v) for v in t])
    return RegressionFit(tuple(names), beta, cov, se, t, p, n, lags)


@dataclass(frozen=True)
class HeadlineFit:
    """Regime-interacted regression of exposure changes on the lagged level.

    Coefficient order: calm intercept a, stress intercept shift a_S, calm
    slope b, stress slope shift b_S; stress_slope is the derived b + b_S row.
    """

    fit: RegressionFit
    stress_slope: dict
    wald_p: float
    n_stress: int
    threshold: float

    @property
    def a(self) -> float:
        return float(self.fit.coef[0])

    @property
    def a_S(self) -> float:
        return float(self.fit.coef[1])

    @property
    def b(self) -> float:
        return float(self.fit.coef[2])

    @property
    def b_S(self) -> float:
        return float(self.fit.coef[3])

    def rows(self) -> list[dict]:
        s = self.stress_slope
        return self.fit.rows() + [
            {"coef": s["name"], "estimate": s["estimate"], "hac_se": s["se"], "t": s["t"], "p": s["p"]}
        ]


def headline_regression(panel: MonthlyPanel, lags: int = 6, lag_regime: int = 0) -> HeadlineFit:
    """Regress the detrended exposure change on (1, S, level, S*level).

    The first usable observation drops one month for the level lag; with
    lag_regime=k the stress indicator is shifted back k further months and
    the unlagged head of the sample is dropped.
    """
    m = np.asarray(panel.detrended, dtype=float)
    s = np.asarray(panel.regime, dtype=float)
    if lag_regime:
        s = lag_flags(s, lag_regime)
    y = np.diff(m)
    level = m[:-1]
    s_t = s[1:]
    ok = ~np.isnan(s_t)
    y, level, s_t = y[ok], level[ok], s_t[ok]
    n_stress = int(s_t.sum())
    if n_stress == 0 or n_stress == s_t.size:
        raise ValueError("regime interaction unidentified: sample is all-calm or all-stress")
    X = np.column_stack([np.ones_like(y), s_t, level, s_t * level])
    fit = ols_hac(y, X, lags, names=HEADLINE_NAMES)
    c = np.array([0.0, 0.0, 1.0, 1.0])  # b + b_S
    est = float(c @ fit.coef)
    se = math.sqrt(max(float(c @ fit.hac_cov @ c), 0.0))
    t = est / se if se > 0 else (0.0 if est == 0 else math.inf * np.sign(est))
    return HeadlineFit(
        fit=fit,
        stress_slope={"name": "b_plus_bS", "estimate": est, "se": se, "t": float(t), "p": _normal_p(t)},
        wald_p=float(fit.p[3]),
        n_stress=n_stress,
        threshold=panel.threshold,
    )


def depth_regression(episodes: list[Episode], lags: int = 6) -> RegressionFit:
    """Regress log duration ratio on drawdown depth over chronological episodes."""
    usable = sorted((e for e in episodes if not e.censored), key=lambda e: e.peak_idx)
    n_dropped = len(episodes) - len(usable)
    if n_dropped:
        warnings.warn(f"depth_regression: excluded {n_dropped} censored episodes")
    if len(usable) < 3:
        raise ValueError(f"need >= 3 non-censored episodes, got {len(usable)}")
    tau = np.array([e.tau for e in usable])
    if np.any(tau <= 0):
        raise ValueError("duration ratios must be positive")
    depth = np.array([e.depth for e in usable])
    X = np.column_stack([np.ones_like(depth), depth])
    return ols_hac(np.log(tau), X, lags, names=("alpha", "beta"))


_EMPTY_CELL = dict.fromkeys(("b", "b_S", "p_bS", "stress_slope", "n_stress"))


def _headline_cell(months, margin, vol, q, scheme, param, lags) -> dict:
    cell = {**_EMPTY_CELL, "status": "ok"}
    try:
        panel = build_panel(MonthlyTable(list(months), margin, vol), q, scheme, param)
        hf = headline_regression(panel, lags=lags)
    except ValueError as exc:
        cell["status"] = f"failed: {exc}"
        return cell
    cell.update(
        b=hf.b, b_S=hf.b_S, p_bS=hf.wald_p,
        stress_slope=hf.stress_slope["estimate"], n_stress=hf.n_stress,
    )
    return cell


def robustness_sweep(
    panel: MonthlyPanel,
    thresholds: tuple[float, ...] = SWEEP_QUANTILES,
    detrend_schemes: tuple[tuple[str, float | None], ...] = DETREND_SWEEP,
    subsample_splits: tuple[tuple[str, str | None, str | None], ...] = SUBSAMPLE_SPLITS,
    lags: int = 6,
) -> list[dict]:
    """Re-run the headline regression across thresholds, detrenders, and sub-samples.

    Sub-samples are re-detrended and re-classified on their own window.
    Cells that fail identification are reported with absent values.
    """
    months = list(panel.months)
    margin = np.asarray(panel.margin_debt, dtype=float)
    vol = np.asarray(panel.vol_proxy, dtype=float)
    rows: list[dict] = []
    for q in thresholds:
        cell = _headline_cell(months, margin, vol, q, "log_linear", None, lags)
        rows.append({"sweep": "threshold", "cell": f"pct{round((1 - q) * 100)}", **cell})
    for scheme, param in detrend_schemes:
        cell = _headline_cell(months, margin, vol, panel.q, scheme, param, lags)
        label = scheme if param is None else f"{scheme}{round(param)}"
        rows.append({"sweep": "detrend", "cell": label, **cell})
    for label, first, last in subsample_splits:
        sel = [
            i for i, m in enumerate(months)
            if (first is None or m >= first) and (last is None or m <= last)
        ]
        if len(sel) < 24:
            rows.append({"sweep": "subsample", "cell": label, **_EMPTY_CELL,
                         "status": "failed: sub-sample too short"})
            continue
        cell = _headline_cell(
            [months[i] for i in sel], margin[sel], vol[sel], panel.q, "log_linear", None, lags
        )
        rows.append({"sweep": "subsample", "cell": label, **cell})
    return rows
