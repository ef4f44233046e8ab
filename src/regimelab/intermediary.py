"""Stylized VaR-constrained intermediary simulator.

Every agent operates at the constraint frontier (exposure = capital / (k *
vol)) in both regimes. Stress arrives through a two-state exogenous chain
that raises volatility by a fixed multiplier and impairs capital by a fixed
fraction per period; calm periods replenish capital at a level-independent
per-period drift plus symmetric noise. In stress, exposures contract
multiplicatively; in calm, the aggregate exposure drifts additively -- the
two behaviors the headline regression is designed to separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import MonthlyTable, column_rows


@dataclass(frozen=True)
class IntermediaryConfig:
    n_agents: int = 50
    var_k: float = 2.33                     # VaR confidence multiplier, all agents
    calm_drift: float = 0.004               # per-period capital drift in calm
    capital_noise_sd: float = 0.01          # level-independent calm capital noise
    initial_capital: float = 1.0
    sigma_bar: float = 0.15                 # calm volatility level
    eps: float = 0.0025                     # relative variance of the vol noise
    stress_entry: float = 0.10              # P(stress at t+1 | calm at t)
    stress_exit: float = 0.35               # P(calm at t+1 | stress at t)
    stress_vol_mult: float = 2.0
    stress_loss: float = 0.04               # capital loss fraction per stress period
    impact: float = 1.0                     # price response per relative exposure change
    T: int = 360
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_agents < 1 or self.T < 3:
            raise ValueError("need n_agents >= 1 and T >= 3")
        if self.stress_vol_mult <= 1.0:
            raise ValueError("stress_vol_mult must exceed 1")
        if not 0.0 < self.stress_loss < 1.0:
            raise ValueError("stress_loss must be in (0, 1)")
        for p in (self.stress_entry, self.stress_exit):
            if not 0.0 < p < 1.0:
                raise ValueError("stress entry/exit probabilities must be in (0, 1)")
        if self.eps < 0 or self.capital_noise_sd < 0:
            raise ValueError("noise parameters must be >= 0")
        positive = (self.sigma_bar, self.impact, self.var_k, self.calm_drift, self.initial_capital)
        if not all(x > 0 for x in positive):  # rejects NaN too
            raise ValueError("sigma_bar, impact, var_k, calm_drift and initial_capital must be positive")


@dataclass(frozen=True)
class SimulatedPanel:
    vol: np.ndarray        # (T,)
    regime: np.ndarray     # (T,) int, 1 = stress
    capital: np.ndarray    # (T, n_agents)
    aggregate: np.ndarray  # (T,) sum of frontier exposures
    price: np.ndarray      # (T,)
    config: IntermediaryConfig

    def agent_exposure(self) -> np.ndarray:
        return self.capital / (self.config.var_k * self.vol[:, None])

    def rows(self) -> list[dict]:
        return column_rows(t=range(self.vol.size), vol=self.vol, regime=self.regime,
                           aggregate_exposure=self.aggregate, price=self.price)


def simulate(config: IntermediaryConfig) -> SimulatedPanel:
    """Run the simulator; all randomness comes from config.seed.

    The same underlying draws are used at every eps / noise level (they are
    scaled, not redrawn), so runs differing only in those knobs are coupled.

    Raises ValueError naming the first step where the price or the aggregate
    exposure is non-positive or non-finite; such a panel has no meaning.
    Per-agent capital is not checked: calm-period noise can take one agent's
    capital below zero while the aggregate stays positive (under the default
    config, 3 of 1,000 seeds at T=360 and 15 at T=780), and those panels are
    used as they are.
    """
    n, T = config.n_agents, config.T
    rng = np.random.default_rng(config.seed)
    u_chain = rng.random(T - 1)
    u_vol = rng.uniform(-1.0, 1.0, T)
    z_cap = rng.standard_normal((T - 1, n))

    regime = np.zeros(T, dtype=int)
    for t in range(1, T):
        if regime[t - 1] == 0:
            regime[t] = 1 if u_chain[t - 1] < config.stress_entry else 0
        else:
            regime[t] = 0 if u_chain[t - 1] < config.stress_exit else 1

    capital = np.empty((T, n))
    capital[0] = config.initial_capital
    noise = config.capital_noise_sd * z_cap
    for t in range(1, T):
        if regime[t] == 1:
            capital[t] = (1.0 - config.stress_loss) * capital[t - 1]
        else:
            capital[t] = capital[t - 1] + config.calm_drift + noise[t - 1]

    xi = math.sqrt(3.0 * config.eps) * u_vol
    base = np.where(regime == 1, config.sigma_bar * config.stress_vol_mult, config.sigma_bar)
    vol = base * (1.0 + xi)

    aggregate = (capital / config.var_k).sum(axis=1) / vol

    # one ordered product, step by step as a loop would take it
    price = np.cumprod(np.concatenate(([100.0], 1.0 + config.impact * np.diff(aggregate) / aggregate[:-1])))

    agg_ok = np.isfinite(aggregate) & (aggregate > 0)
    bad = np.flatnonzero(~(agg_ok & np.isfinite(price) & (price > 0)))
    if bad.size:
        t = int(bad[0])
        name, value = ("aggregate exposure", aggregate[t]) if not agg_ok[t] else ("price", price[t])
        raise ValueError(
            f"simulated {name} is {value:.6g} at t={t}; price and aggregate exposure "
            "must stay positive and finite"
        )
    return SimulatedPanel(vol, regime, capital, aggregate, price, config)


def to_monthly_table(panel: SimulatedPanel, start_month: str = "1995-01") -> MonthlyTable:
    """Expose the simulated aggregate as a monthly exposure table."""
    months = (np.datetime64(start_month, "M") + np.arange(panel.vol.size)).astype(str).tolist()
    return MonthlyTable(months, panel.aggregate.copy(), panel.vol.copy())
