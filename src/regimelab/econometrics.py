"""OLS with Newey-West HAC covariance and the regime-interacted exposure regressions."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dataio import MonthlyPanel, MonthlyTable, build_panel
from .regime import lag_flags

if TYPE_CHECKING:  # for an annotation only: importing episodes would load it into headline and cot
    from .episodes import Episode

HEADLINE_NAMES = ("a", "a_S", "b", "b_S")

# The robustness table: (sweep, cell, tail fraction q or None for the panel's own, detrend
# scheme, its parameter, first month, last month); a None month leaves that end open.
SWEEP_CELLS = (
    ("threshold", "pct80", 0.20, "log_linear", None, None, None),
    ("threshold", "pct85", 0.15, "log_linear", None, None, None),
    ("threshold", "pct90", 0.10, "log_linear", None, None, None),
    ("threshold", "pct95", 0.05, "log_linear", None, None, None),
    ("detrend", "log_linear", None, "log_linear", None, None, None),
    ("detrend", "linear", None, "linear", None, None, None),
    ("detrend", "ema12", None, "ema", 12.0, None, None),
    ("subsample", "pre2008", None, "log_linear", None, None, "2007-12"),
    ("subsample", "post2008", None, "log_linear", None, "2009-01", None),
)


def t_and_p(estimate: float, se: float) -> tuple[float, float]:
    """t = estimate / se and its two-sided p under the standard normal; the one rule of every fit.

    A zero se gives t = 0 for a zero estimate and +-inf otherwise, whose p is 0.
    """
    t = estimate / se if se else (estimate * math.inf if estimate else 0.0)
    return t, math.erfc(abs(t) / math.sqrt(2.0))


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

    def rows(self) -> list[dict]:
        return [{"coef": c, "estimate": b, "hac_se": se, "t": t, "p": p} for c, b, se, t, p in
                zip(self.names, self.coef.tolist(), self.se.tolist(), self.t.tolist(), self.p.tolist())]


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
    t, p = np.array(list(map(t_and_p, beta.tolist(), se.tolist()))).T
    return RegressionFit(tuple(names), beta, cov, se, t, p, n)


@dataclass(frozen=True)
class HeadlineFit:
    """Regime-interacted regression of exposure changes on the lagged level.

    Coefficient order: calm intercept a, stress intercept shift a_S, calm
    slope b, stress slope shift b_S; stress_slope is the b + b_S row of rows().
    """

    fit: RegressionFit
    stress_slope: dict
    wald_p: float
    n_stress: int
    threshold: float

    @property
    def b(self) -> float:
        return float(self.fit.coef[2])

    @property
    def b_S(self) -> float:
        return float(self.fit.coef[3])

    def rows(self) -> list[dict]:
        return self.fit.rows() + [self.stress_slope]


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
    t, p = t_and_p(est, se)
    return HeadlineFit(
        fit=fit,
        stress_slope={"coef": "b_plus_bS", "estimate": est, "hac_se": se, "t": t, "p": p},
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
        raise ValueError(f"need >= 3 completed episodes, found {len(usable)}")
    tau = np.array([e.tau for e in usable])
    if np.any(tau <= 0):
        raise ValueError("duration ratios must be positive")
    depth = np.array([e.depth for e in usable])
    X = np.column_stack([np.ones_like(depth), depth])
    return ols_hac(np.log(tau), X, lags, names=("alpha", "beta"))


_EMPTY_CELL = dict.fromkeys(("b", "b_S", "p_bS", "stress_slope", "n_stress"))


def robustness_sweep(panel: MonthlyPanel, lags: int = 6) -> list[dict]:
    """Re-run the headline regression on each cell of SWEEP_CELLS.

    Each cell is re-detrended and re-classified on its own months. A
    sub-sample under 24 months is not fitted; cells that fail identification
    are reported with absent values.
    """
    months = list(panel.months)
    margin = np.asarray(panel.margin_debt, dtype=float)
    vol = np.asarray(panel.vol_proxy, dtype=float)
    rows: list[dict] = []
    for sweep, label, q, scheme, param, first, last in SWEEP_CELLS:
        lo = 0 if first is None else bisect_left(months, first)  # months are sorted
        hi = len(months) if last is None else bisect_right(months, last)
        row = {"sweep": sweep, "cell": label, **_EMPTY_CELL, "status": "ok"}
        if sweep == "subsample" and hi - lo < 24:
            row["status"] = "failed: sub-sample too short"
        else:
            try:
                table = MonthlyTable(months[lo:hi], margin[lo:hi], vol[lo:hi])
                hf = headline_regression(build_panel(table, panel.q if q is None else q, scheme, param), lags=lags)
            except ValueError as exc:
                row["status"] = f"failed: {exc}"
            else:
                row.update(b=hf.b, b_S=hf.b_S, p_bS=hf.wald_p, stress_slope=hf.stress_slope["estimate"],
                           n_stress=hf.n_stress)
        rows.append(row)
    return rows
