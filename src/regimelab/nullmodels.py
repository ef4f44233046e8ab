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
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .dataio import PricePath
from .resample import derive_rng, median, quantile, stationary_block_cumsum

DT = 1.0 / 252.0
P0 = 100.0

SLICES_PER_WORKER = 4  # path slices per process, so workers slowed by other load still finish together
# a study set under this many path steps, with nothing to overlap, runs in-process. Four 2,520-day studies,
# one process against two (2-CPU x86 host, medians of two series): at 3.0M steps 0.53-0.55 against
# 0.58-0.59 s wall and 0.67-0.68 against 0.89-0.91 s CPU; at 4.5M and 6.0M two were 0.02-0.21 s faster in wall
STEPS_PER_PROCESS = 4_000_000


def _require_finite(params) -> None:
    """A NaN or infinite parameter would give NaN closes or switch a check off."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class GbmParams:
    mu: float = 0.08
    sigma: float = 0.157

    def __post_init__(self) -> None:
        _require_finite(self)
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
        _require_finite(self)
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
    eps_v: float = 1e-3
    max_zero_frac: float = 0.05

    def __post_init__(self) -> None:
        _require_finite(self)
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must be in (-1, 1)")
        if min(self.vbar, self.kappa, self.xi) <= 0:
            raise ValueError("vbar, kappa, xi must be positive")
        # v is never below zero, so a negative eps_v would switch the rejection off
        if self.eps_v < 0:
            raise ValueError("eps_v must be >= 0")
        if not 0.0 <= self.max_zero_frac <= 1.0:
            raise ValueError("max_zero_frac must be in [0, 1]")


@dataclass(frozen=True)
class MarkovRsParams:
    mu_bull: float = 0.15
    sigma_bull: float = 0.12
    stay_bull: float = 0.98
    mu_bear: float = -0.10
    sigma_bear: float = 0.25
    stay_bear: float = 0.93

    def __post_init__(self) -> None:
        _require_finite(self)
        if min(self.sigma_bull, self.sigma_bear) < 0:
            raise ValueError("sigma_bull and sigma_bear must be >= 0")
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
        # contiguous, as the C walk reads it; a strided view is copied
        r = np.ascontiguousarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", r)
        if r.ndim != 1 or r.size < 2:
            raise ValueError("need an empirical return series")
        # a NaN would make every later close of a path that reached it NaN
        if not np.isfinite(r).all():
            raise ValueError("returns must be finite")
        if not self.mean_block >= 1:  # also false for NaN
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
# Path kernels: the C loops in kernels.py. Each returns the log path, 0.0 and then
# the running sum of its steps: np.cumsum of its oracle's steps in tests/oracles.py.
# ---------------------------------------------------------------------------


def _gbm_path(z, dt, mu, sigma):
    logp = np.empty(z.size + 1)
    logp[0] = 0.0
    kernels.load().gbm_path(z, logp[1:], z.size, (mu - 0.5 * sigma * sigma) * dt, sigma * math.sqrt(dt))
    return logp


def _asym_vol_path(z, dt, mu, sigma_base, gamma, floor, cap):
    logp = np.empty(z.size + 1)
    logp[0] = 0.0
    kernels.load().asym_vol_path(z, logp[1:], z.size, dt, mu, sigma_base, gamma, floor, cap)
    return logp


def _heston_path(z1, w, dt, mu, vbar, kappa, xi, rho, v0, eps_v):
    """The log path driven by z1 and rho * z1 + sqrt(1 - rho^2) * w, and its count of steps with v <= eps_v."""
    if w.shape != z1.shape:  # the C loop reads w at every index of z1
        raise ValueError("z1 and w must have the same shape")
    logp = np.empty(z1.size + 1)
    logp[0] = 0.0
    n_degenerate = kernels.load().heston_path(z1, w, logp[1:], z1.size, dt, mu, vbar, kappa, xi, v0, eps_v,
                                              rho, math.sqrt(1.0 - rho * rho))
    return logp, n_degenerate


def _markov_path(z, u, dt, mu1, s1, p11, mu2, s2, p22, state0):
    """The log path of a two-state chain (0 = bull, 1 = bear) driven by u."""
    if u.shape != z.shape:  # the C loop reads u at every index of z
        raise ValueError("z and u must have the same shape")
    logp = np.empty(z.size + 1)
    logp[0] = 0.0
    kernels.load().markov_path(z, u, logp[1:], z.size, dt, mu1, s1, p11, mu2, s2, p22, state0)
    return logp


def simulate_closes(spec: NullSpec, path_index: int) -> np.ndarray | None:
    """Closing prices of path `path_index`, or None when the path is rejected."""
    rng = derive_rng(spec.seed, path_index)
    n_steps = spec.n_days - 1
    p = spec.params

    if spec.model == "block_bootstrap":
        # blocks start anywhere in the whole return series and wrap around it, whatever n_days;
        # the walk adds up the returns it visits, so no index or step array is made
        logp = np.empty(spec.n_days)
        logp[0] = 0.0
        stationary_block_cumsum(p.returns, p.mean_block, rng, logp[1:])
    elif spec.model == "gbm":
        logp = _gbm_path(rng.standard_normal(n_steps), DT, p.mu, p.sigma)
    elif spec.model == "asym_vol":
        logp = _asym_vol_path(rng.standard_normal(n_steps), DT, p.mu, p.sigma_base, p.gamma_lev, p.vol_floor,
                              p.vol_cap)
    elif spec.model == "heston":
        z1 = rng.standard_normal(n_steps)
        w = rng.standard_normal(n_steps)
        logp, n_degenerate = _heston_path(z1, w, DT, p.mu, p.vbar, p.kappa, p.xi, p.rho, p.vbar, p.eps_v)
        if n_degenerate / n_steps > p.max_zero_frac:
            return None
    else:  # markov_rs
        state0 = 0 if rng.random() < p.stationary_bull else 1
        z = rng.standard_normal(n_steps)
        u = rng.random(n_steps)
        logp = _markov_path(z, u, DT, p.mu_bull, p.sigma_bull, p.stay_bull, p.mu_bear, p.sigma_bear,
                            p.stay_bear, state0)
    np.exp(logp, out=logp)
    logp *= P0
    return logp


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
    median_tau = kernels.load().median_tau
    taus = np.empty(spec.n_days // 2)  # the scan's work space: a path has at most n_days // 2 episodes
    for i in range(start, stop):
        closes = simulate_closes(spec, i)
        if closes is None:
            n_rejected += 1
            continue
        m = median_tau(closes, closes.size, spec.delta, taus)
        if math.isnan(m):
            n_zero += 1
        else:
            medians.append(m)
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
    return NullStudySummary(
        model=spec.model,
        n_accepted=n_accepted,
        n_zero_episode=n_zero,
        median_tau=median(med_arr),
        q05=quantile(med_arr, 5.0 / 100),
        q95=quantile(med_arr, 95.0 / 100),
        p_one_sided=float(np.sum(med_arr >= comparator_tau) / n_accepted),
        comparator=comparator_tau,
    )


def usable_cpus() -> int:
    """CPUs this process may run on (every CPU where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def null_studies(specs: list[NullSpec], comparator_tau: float = 1.35, overlapped: bool = False):
    """Start the studies; yield a function that waits for them and returns
    run_null_study's summary of each spec, in order.

    The studies run on one process per usable CPU (usable_cpus(), which CPU
    affinity such as `taskset` or os.sched_setaffinity limits), but on no
    more processes than the largest study has paths. A study set under
    STEPS_PER_PROCESS path steps runs in-process, as there a second process
    costs more CPU than it saves in wall time, unless `overlapped`: the caller
    works while the pool runs, which the threshold was not measured on. Each
    study's paths are cut into SLICES_PER_WORKER contiguous slices per
    process (some empty). With several processes, all slices go to one fork
    pool on entry, so the caller works while they run; with one, they run
    in-process when the function is called. Path i depends on (seed, i)
    only, so the summaries do not depend on the process count. A worker that
    dies raises ChildProcessError; an exception that leaves the block ends
    the workers.
    """
    if not 0 < comparator_tau < math.inf:
        raise ValueError(f"comparator must be positive and finite, got {comparator_tau}")
    total_steps = sum(s.n_paths * (s.n_days - 1) for s in specs)  # the specs share one pool
    # no fork (Windows): run in-process
    pooled = hasattr(os, "fork") and (overlapped or total_steps >= STEPS_PER_PROCESS)
    processes = min(usable_cpus(), max((s.n_paths for s in specs), default=1)) if pooled else 1
    k = SLICES_PER_WORKER * processes

    def summaries(parts: list) -> list[NullStudySummary]:
        return [_summarise(spec, parts[i * k:(i + 1) * k], comparator_tau) for i, spec in enumerate(specs)]

    tasks = [(s, s.n_paths * j // k, s.n_paths * (j + 1) // k) for s in specs for j in range(k)]
    kernels.load()  # built or loaded once, here, before any worker forks, and a missing compiler fails here
    if processes == 1:
        yield lambda: summaries(list(itertools.starmap(_run_slice, tasks)))
        return
    # imported here, not at the top, as importing them takes about 15 ms (2-CPU x86 host)
    import multiprocessing
    import signal
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # fork, not spawn: workers start with numpy and the specs already loaded;
    # workers take one slice at a time, so they finish together; unlike
    # multiprocessing.Pool, which waits forever, the executor fails when a worker dies;
    # workers take SIGINT's default action, so Ctrl-C ends them mid-slice
    pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"),
                               initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_DFL))

    def alive(work):  # work(); a worker's death, seen when submitting or waiting, is a ChildProcessError
        try:
            return work()
        except BrokenProcessPool:
            raise ChildProcessError("a null-study worker process died before finishing its slice") from None

    try:
        futures = alive(lambda: [pool.submit(_run_slice, *task) for task in tasks])
        yield lambda: alive(lambda: summaries([f.result() for f in futures]))
    except BaseException:
        # a signal to this process alone never reaches the workers; shutdown would wait for their slices
        for child in multiprocessing.active_children():
            child.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def run_null_studies(specs: list[NullSpec], comparator_tau: float = 1.35) -> list[NullStudySummary]:
    """run_null_study's summary of each spec, in order (see null_studies)."""
    with null_studies(specs, comparator_tau) as collect:
        return collect()


def run_null_study(spec: NullSpec, comparator_tau: float = 1.35) -> NullStudySummary:
    """Distribution of per-path median duration ratios against a comparator.

    For each accepted path, episodes are detected at spec.delta and the
    median per-episode duration ratio is taken. p_one_sided is a share of
    all accepted paths (one with no completed episode never reaches the
    comparator); median_tau, q05 and q95 use only paths with an episode.
    The paths run on a pool sized as in null_studies, one process per usable
    CPU; the summary is the same for every process count.
    """
    return run_null_studies([spec], comparator_tau)[0]
