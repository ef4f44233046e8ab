"""Calibrated null price processes and the duration-ratio Monte Carlo study.

Five models: geometric Brownian motion, one-lag asymmetric volatility,
Heston stochastic volatility (full-truncation Milstein with the variance-of-
variance correction), two-state Markov regime switching, and a stationary
block bootstrap of an empirical return series.

All paths use a daily step dt = 1/252 and start at 100. Path i draws from a
generator derived from (seed, i) only, so studies parallelize and are
reproducible path by path.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .dataio import PricePath
from .episodes import episode_arrays
from .resample import derive_rng, stationary_block_indices

DT = 1.0 / 252.0
P0 = 100.0

SLICES_PER_WORKER = 4  # path slices per process, so workers slowed by other load still finish together


@dataclass(frozen=True)
class GbmParams:
    mu: float = 0.08
    sigma: float = 0.157

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class AsymVolParams:
    sigma_base: float = 0.157
    gamma_lev: float = -5.0  # per unit daily log return
    vol_floor: float = 0.01
    vol_cap: float = 2.0
    mu: float = 0.08

    def __post_init__(self) -> None:
        if not self.vol_floor < self.sigma_base < self.vol_cap:
            raise ValueError("need vol_floor < sigma_base < vol_cap")


@dataclass(frozen=True)
class HestonParams:
    """Square-root variance with leverage correlation.

    The calibration deliberately sits at a Feller ratio just below one, so
    the variance process spends time near zero; paths whose share of
    near-degenerate steps (v <= eps_v) exceeds max_zero_frac are rejected.
    """

    mu: float = 0.08
    vbar: float = 0.0247
    kappa: float = 5.0
    xi: float = 0.5
    rho: float = -0.75
    v0: float | None = None  # None -> vbar
    eps_v: float = 1e-3
    max_zero_frac: float = 0.05

    def __post_init__(self) -> None:
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must be in (-1, 1)")
        if min(self.vbar, self.kappa, self.xi) <= 0:
            raise ValueError("vbar, kappa, xi must be positive")

    @property
    def feller_ratio(self) -> float:
        return 2.0 * self.kappa * self.vbar / (self.xi * self.xi)


@dataclass(frozen=True)
class MarkovRsParams:
    mu_bull: float = 0.15
    sigma_bull: float = 0.12
    stay_bull: float = 0.98
    mu_bear: float = -0.10
    sigma_bear: float = 0.25
    stay_bear: float = 0.93

    def __post_init__(self) -> None:
        for p in (self.stay_bull, self.stay_bear):
            if not 0.0 < p < 1.0:
                raise ValueError("stay probabilities must be in (0, 1)")

    @property
    def stationary_bull(self) -> float:
        leave_bull = 1.0 - self.stay_bull
        leave_bear = 1.0 - self.stay_bear
        return leave_bear / (leave_bull + leave_bear)


@dataclass(frozen=True)
class BlockBootstrapParams:
    returns: np.ndarray  # empirical daily log returns
    mean_block: int = 63

    def __post_init__(self) -> None:
        r = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", r)
        if r.size < 2:
            raise ValueError("need an empirical return series")
        if self.mean_block < 1:
            raise ValueError("mean_block must be >= 1")


DEFAULT_PARAMS = {
    "gbm": GbmParams,
    "asym_vol": AsymVolParams,
    "heston": HestonParams,
    "markov_rs": MarkovRsParams,
    "block_bootstrap": BlockBootstrapParams,
}
MODELS = tuple(DEFAULT_PARAMS)


@dataclass(frozen=True)
class NullSpec:
    model: str
    params: object
    n_days: int = 19_170
    n_paths: int = 1_000
    seed: int = 1
    delta: float = 0.05

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        kind = DEFAULT_PARAMS[self.model]
        if not isinstance(self.params, kind):
            raise ValueError(f"{self.model} needs {kind.__name__}, got {type(self.params).__name__}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_days < 252:
            raise ValueError("n_days must be >= 252")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")


@dataclass(frozen=True)
class NullStudySummary:
    model: str
    n_accepted: int
    n_zero_episode: int
    median_tau: float
    q05: float
    q95: float
    p_one_sided: float
    comparator: float

    def row(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Step kernels. The sequential recurrences loop over memoryviews, which yield
# and store plain floats (no numpy scalar per element) with the same IEEE
# arithmetic; the markov_rs chain is a vectorised scan.
# ---------------------------------------------------------------------------

def _asym_vol_steps(z, dt, mu, sigma_base, gamma, floor, cap):
    r = np.empty(z.size)
    out = memoryview(r)
    exp = math.exp
    sqdt = math.sqrt(dt)
    sigma = sigma_base
    for t, zt in enumerate(memoryview(z)):
        step = (mu - 0.5 * sigma * sigma) * dt + sigma * sqdt * zt
        out[t] = step
        # volatility for the next step, from this step's log return
        sigma = sigma_base * exp(gamma * step)
        if sigma < floor:
            sigma = floor
        elif sigma > cap:
            sigma = cap
    return r


def _heston_steps(z1, z2, dt, mu, vbar, kappa, xi, v0, eps_v):
    n = z1.size
    v_used = np.empty(n)  # floored variance driving each price step
    out_v = memoryview(v_used)
    sqrt = math.sqrt
    milstein = (0.25 * xi * xi) * (dt * z2 * z2 - dt)
    v = v0
    for t, (b, m) in enumerate(zip(memoryview(z2), memoryview(milstein))):
        vplus = v if v > 0.0 else 0.0
        out_v[t] = vplus
        v = v + kappa * (vbar - vplus) * dt + xi * sqrt(vplus * dt) * b + m
        if v < 0.0:
            v = 0.0
    steps = (mu - 0.5 * v_used) * dt + np.sqrt(v_used) * sqrt(dt) * z1
    return steps, v_used, int(np.count_nonzero(v_used <= eps_v))


def _markov_steps(z, u, dt, mu1, s1, p11, mu2, s2, p22, state0):
    """Two-state chain (0 = bull, 1 = bear) driven by u, and its log returns.

    Step t leaves bull if u[t] >= p11 and bear if u[t] >= p22. When exactly
    one holds the new state is bear iff u[t] >= p11, whatever it was; when
    both hold the state flips. So the state is the one set by the last
    one-sided step (state0 before any), flipped once per two-sided step since.
    """
    n = z.size
    leave_bull = u >= p11
    leave_bear = u >= p22
    # index 0 stands for the start: a one-sided step that sets state0
    value = np.concatenate(([state0], leave_bull))
    one_sided = np.concatenate(([True], leave_bull != leave_bear))
    flips = np.cumsum(np.concatenate(([False], leave_bull & leave_bear)))
    last = np.maximum.accumulate(np.where(one_sided, np.arange(n + 1), 0))
    bear = ((value[last] + flips - flips[last]) & 1)[1:].astype(bool)
    sqdt = math.sqrt(dt)
    drift = np.where(bear, (mu2 - 0.5 * s2 * s2) * dt, (mu1 - 0.5 * s1 * s1) * dt)
    steps = drift + np.where(bear, s2 * sqdt, s1 * sqdt) * z
    return steps, n - int(np.count_nonzero(bear))


def simulate_closes(spec: NullSpec, path_index: int) -> np.ndarray | None:
    """Closing prices of path `path_index`, or None when the path is rejected."""
    rng = derive_rng(spec.seed, path_index)
    n_steps = spec.n_days - 1
    p = spec.params

    if spec.model == "gbm":
        z = rng.standard_normal(n_steps)
        steps = (p.mu - 0.5 * p.sigma * p.sigma) * DT + p.sigma * math.sqrt(DT) * z
    elif spec.model == "asym_vol":
        z = rng.standard_normal(n_steps)
        steps = _asym_vol_steps(z, DT, p.mu, p.sigma_base, p.gamma_lev, p.vol_floor, p.vol_cap)
    elif spec.model == "heston":
        z1 = rng.standard_normal(n_steps)
        w = rng.standard_normal(n_steps)
        z2 = p.rho * z1 + math.sqrt(1.0 - p.rho * p.rho) * w
        v0 = p.vbar if p.v0 is None else p.v0
        steps, _, n_degenerate = _heston_steps(
            z1, z2, DT, p.mu, p.vbar, p.kappa, p.xi, v0, p.eps_v
        )
        if n_degenerate / n_steps > p.max_zero_frac:
            return None
    elif spec.model == "markov_rs":
        state0 = 0 if rng.random() < p.stationary_bull else 1
        z = rng.standard_normal(n_steps)
        u = rng.random(n_steps)
        steps, _ = _markov_steps(
            z, u, DT, p.mu_bull, p.sigma_bull, p.stay_bull,
            p.mu_bear, p.sigma_bear, p.stay_bear, state0,
        )
    else:  # block_bootstrap
        idx = stationary_block_indices(n_steps, p.mean_block, rng)
        steps = p.returns[idx]

    closes = np.empty(spec.n_days)
    closes[0] = P0
    closes[1:] = P0 * np.exp(np.cumsum(steps))
    return closes


@lru_cache(maxsize=8)
def _synthetic_dates(n: int) -> np.ndarray:
    return np.datetime64("1950-01-03", "D") + np.arange(n)


def simulate_path(spec: NullSpec, path_index: int) -> PricePath | None:
    """Simulate path `path_index`; None signals a rejected (degenerate) path."""
    closes = simulate_closes(spec, path_index)
    if closes is None:
        return None
    return PricePath(_synthetic_dates(spec.n_days), closes)


def _run_slice(spec: NullSpec, start: int, stop: int) -> tuple[list[float], int, int]:
    """Paths [start, stop): the median duration ratio of each accepted path
    with a completed episode, in path order, and the counts of rejected and
    zero-episode paths."""
    medians: list[float] = []
    n_rejected = n_zero = 0
    for i in range(start, stop):
        closes = simulate_closes(spec, i)
        if closes is None:
            n_rejected += 1
            continue
        peaks, troughs, recs, _ = episode_arrays(closes, spec.delta)
        if not peaks.size:
            n_zero += 1
            continue
        medians.append(float(np.median((recs - troughs) / (troughs - peaks))))
    return medians, n_rejected, n_zero


def _summarise(spec: NullSpec, parts: list, comparator_tau: float) -> NullStudySummary:
    """The study's summary from its slices' results, joined in slice order."""
    medians = [m for part in parts for m in part[0]]
    n_accepted = spec.n_paths - sum(part[1] for part in parts)
    n_zero = sum(part[2] for part in parts)
    if n_accepted == 0:
        raise ValueError("all simulated paths were rejected")
    if not medians:
        raise ValueError("no completed episodes on any accepted path")
    med_arr = np.array(medians)
    q05, q95 = np.percentile(med_arr, [5.0, 95.0])
    return NullStudySummary(
        model=spec.model,
        n_accepted=n_accepted,
        n_zero_episode=n_zero,
        median_tau=float(np.median(med_arr)),
        q05=float(q05),
        q95=float(q95),
        p_one_sided=float(np.sum(med_arr >= comparator_tau) / n_accepted),
        comparator=comparator_tau,
    )


def usable_cpus() -> int:
    """CPUs this process may run on (every CPU where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_null_studies(
    specs: list[NullSpec], comparator_tau: float = 1.35, workers: int = 1
) -> list[NullStudySummary]:
    """run_null_study's summary of each spec, in order.

    Each study's paths are cut into SLICES_PER_WORKER contiguous slices per
    process (some empty); with several processes, all studies' slices go to
    one fork pool at once, so none idles between studies. Path i depends on
    (seed, i) only, so the summaries do not depend on `workers`. A worker
    that dies raises ChildProcessError.
    """
    if not 0 < comparator_tau < math.inf:
        raise ValueError(f"comparator must be positive and finite, got {comparator_tau}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # no fork (Windows): run in-process
    processes = min(workers, max((s.n_paths for s in specs), default=1)) if hasattr(os, "fork") else 1
    k = SLICES_PER_WORKER * processes
    tasks = [(s, s.n_paths * j // k, s.n_paths * (j + 1) // k) for s in specs for j in range(k)]
    if processes == 1:
        parts = list(itertools.starmap(_run_slice, tasks))
    else:
        # imported here, not at the top, as importing them takes about 15 ms (2-CPU x86 host)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # np.median's first call imports numpy.ma (about 10 ms): once here, not in every worker
        import numpy.ma  # noqa: F401

        # fork, not spawn: workers start with numpy and the specs already loaded;
        # map hands out one slice at a time, so the workers finish together; unlike
        # multiprocessing.Pool, which waits forever, the executor fails when a worker dies
        pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"))
        try:
            parts = list(pool.map(_run_slice, *zip(*tasks)))
        except BrokenProcessPool:
            raise ChildProcessError("a null-study worker process died before finishing its slice") from None
        finally:
            pool.shutdown(cancel_futures=True)
    return [_summarise(spec, parts[i * k:(i + 1) * k], comparator_tau) for i, spec in enumerate(specs)]


def run_null_study(spec: NullSpec, comparator_tau: float = 1.35, workers: int = 1) -> NullStudySummary:
    """Distribution of per-path median duration ratios against a comparator.

    For each accepted path, episodes are detected at spec.delta and the
    median per-episode duration ratio is taken. p_one_sided is a share of
    all accepted paths (one with no completed episode never reaches the
    comparator); median_tau, q05 and q95 use only paths with an episode.
    The paths run on `workers` processes (see run_null_studies); the
    summary is the same for every worker count.
    """
    return run_null_studies([spec], comparator_tau, workers)[0]
