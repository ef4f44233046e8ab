"""Independent reference implementations used to cross-check the library.

These deliberately use direct definitions (explicit loops, pair scans, grid
search) rather than the library's vectorized/Newton code paths.
"""

from __future__ import annotations

import math

import numpy as np


def white_sandwich(y, X):
    """Heteroskedasticity-robust covariance by direct summation."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    n, k = X.shape
    xtx = np.zeros((k, k))
    for t in range(n):
        xtx += np.outer(X[t], X[t])
    beta = np.linalg.solve(xtx, X.T @ y)
    u = y - X @ beta
    meat = np.zeros((k, k))
    for t in range(n):
        meat += (u[t] ** 2) * np.outer(X[t], X[t])
    xtx_inv = np.linalg.inv(xtx)
    return beta, xtx_inv @ meat @ xtx_inv


def newey_west_sandwich(y, X, lags):
    """Bartlett-weighted HAC covariance as a literal double sum over (t, l)."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    n, k = X.shape
    xtx = np.zeros((k, k))
    for t in range(n):
        xtx += np.outer(X[t], X[t])
    beta = np.linalg.solve(xtx, X.T @ y)
    u = y - X @ beta
    S = np.zeros((k, k))
    for t in range(n):
        S += (u[t] ** 2) * np.outer(X[t], X[t])
    for lag in range(1, lags + 1):
        w = 1.0 - lag / (lags + 1.0)
        for t in range(lag, n):
            G = u[t] * u[t - lag] * np.outer(X[t], X[t - lag])
            S += w * (G + G.T)
    xtx_inv = np.linalg.inv(xtx)
    return beta, xtx_inv @ S @ xtx_inv


def brute_force_episodes(closes, delta, allow_censored=False):
    """Quadratic pair scan over (peak, recovery) pairs.

    Returns (peak, trough, recovery_or_None) index triples in order.
    """
    closes = np.asarray(closes, float)
    n = closes.size
    out = []
    for p in range(n - 1):
        if closes[p] < closes[: p + 1].max():
            continue  # not at an all-time high
        recovery = None
        for j in range(p + 1, n):
            if closes[j] >= closes[p]:
                recovery = j
                break
        if recovery is None:
            if allow_censored:
                tail = closes[p + 1 :]
                depth = 1.0 - tail.min() / closes[p]
                if depth >= delta:
                    trough = p + 1 + int(np.argmin(tail))
                    out.append((p, trough, None))
            continue
        interior = closes[p + 1 : recovery]
        if interior.size == 0:
            continue
        depth = 1.0 - interior.min() / closes[p]
        if depth >= delta:
            trough = p + 1 + int(np.argmin(interior))
            out.append((p, trough, recovery))
    return out


def episode_arrays_reference(closes: np.ndarray, delta: float):
    """Completed episodes with depth >= delta, as arrays: the numpy scan the
    library ran before its episode scan moved to C.

    Returns (peaks, troughs, recs, depth): the peak, trough and recovery
    indices and the depths of the completed episodes, in order.
    """
    runmax = np.maximum.accumulate(closes)
    highs = np.flatnonzero(closes == runmax)  # exact: runmax propagates the same float
    peaks, recs = highs[:-1], highs[1:]
    keep = recs - peaks > 1  # at least one strictly-below index between highs
    peaks, recs = peaks[keep], recs[keep]
    bounds = np.empty(2 * peaks.size, dtype=np.int64)
    bounds[0::2] = peaks + 1
    bounds[1::2] = recs
    interior_min = np.minimum.reduceat(closes, bounds)[0::2]
    depth = 1.0 - interior_min / closes[peaks]
    deep = depth >= delta
    peaks, recs, depth, interior_min = peaks[deep], recs[deep], depth[deep], interior_min[deep]
    # lay the interiors [p+1, r) end to end; each interval's first index at
    # its minimum is the first hit at or after the interval's offset
    lens = recs - peaks - 1
    offs = np.cumsum(lens) - lens
    pos = np.arange(int(lens.sum())) + np.repeat(peaks + 1 - offs, lens)
    hits = np.flatnonzero(closes[pos] == np.repeat(interior_min, lens))
    troughs = pos[hits[np.searchsorted(hits, offs)]]
    return peaks, troughs, recs, depth


def breslow_loglik(gamma, durations, events, x):
    """Breslow partial log-likelihood from the risk-set definition."""
    durations = np.asarray(durations, float)
    events = np.asarray(events, int)
    x = np.asarray(x, float)
    ll = 0.0
    for t in sorted(set(durations[events == 1])):
        d_set = [i for i in range(len(x)) if durations[i] == t and events[i] == 1]
        r_set = [i for i in range(len(x)) if durations[i] >= t]
        ll += gamma * sum(x[i] for i in d_set)
        ll -= len(d_set) * math.log(sum(math.exp(gamma * x[i]) for i in r_set))
    return ll


def grid_search_gamma(durations, events, x, lo=-30.0, hi=5.0, step=0.01):
    """Maximize the Breslow partial likelihood over a gamma grid.

    Risk sets come straight from the definition; the only concession to speed
    is evaluating all grid points at once per event time.
    """
    durations = np.asarray(durations, float)
    events = np.asarray(events, int)
    # center x so exp() stays in range on wide grids; the likelihood shape is unchanged
    x = np.asarray(x, float) - np.mean(x)
    grid = np.arange(lo, hi + step / 2.0, step)
    ll = np.zeros_like(grid)
    for t in sorted(set(durations[events == 1])):
        d_set = [i for i in range(len(x)) if durations[i] == t and events[i] == 1]
        r_set = [i for i in range(len(x)) if durations[i] >= t]
        ll += grid * sum(x[i] for i in d_set)
        ll -= len(d_set) * np.log(np.exp(np.outer(grid, x[r_set])).sum(axis=1))
    return float(grid[int(np.argmax(ll))])


# The null-model steps: gbm's numpy formula and the other recurrences as scalar
# loops that index numpy arrays one element at a time, the forms the library
# ran before its path kernels moved to C. Each C loop in kernels.py does the
# same IEEE operations in the same order, and its log path is np.cumsum of
# these steps.

def gbm_steps_reference(z, dt, mu, sigma):
    return (mu - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * z


def asym_vol_steps_reference(z, dt, mu, sigma_base, gamma, floor, cap):
    n = z.size
    r = np.empty(n)
    sqdt = math.sqrt(dt)
    sigma = sigma_base
    for t in range(n):
        if t > 0:
            sigma = sigma_base * math.exp(gamma * r[t - 1])
            if sigma < floor:
                sigma = floor
            elif sigma > cap:
                sigma = cap
        r[t] = (mu - 0.5 * sigma * sigma) * dt + sigma * sqdt * z[t]
    return r


def heston_steps_reference(z1, z2, dt, mu, vbar, kappa, xi, v0, eps_v):
    n = z1.size
    steps = np.empty(n)
    v_used = np.empty(n)  # floored variance driving each price step
    sqdt = math.sqrt(dt)
    v = v0
    n_degenerate = 0
    for t in range(n):
        vplus = v if v > 0.0 else 0.0
        v_used[t] = vplus
        if vplus <= eps_v:
            n_degenerate += 1
        steps[t] = (mu - 0.5 * vplus) * dt + math.sqrt(vplus) * sqdt * z1[t]
        v = (
            v
            + kappa * (vbar - vplus) * dt
            + xi * math.sqrt(vplus * dt) * z2[t]
            + 0.25 * xi * xi * (dt * z2[t] * z2[t] - dt)
        )
        if v < 0.0:
            v = 0.0
    return steps, v_used, n_degenerate


def markov_steps_reference(z, u, dt, mu1, s1, p11, mu2, s2, p22, state0):
    n = z.size
    steps = np.empty(n)
    sqdt = math.sqrt(dt)
    state = state0  # 0 = bull, 1 = bear
    n_bull = 0
    for t in range(n):
        if state == 0:
            if u[t] >= p11:
                state = 1
        else:
            if u[t] >= p22:
                state = 0
        if state == 0:
            n_bull += 1
            steps[t] = (mu1 - 0.5 * s1 * s1) * dt + s1 * sqdt * z[t]
        else:
            steps[t] = (mu2 - 0.5 * s2 * s2) * dt + s2 * sqdt * z[t]
    return steps, n_bull


def stationary_block_indices_reference(n: int, mean_block: float, rng: np.random.Generator) -> np.ndarray:
    """Politis-Romano stationary bootstrap index sequence of length exactly n.

    Each position restarts at a uniform index with probability 1/mean_block,
    otherwise continues the previous index + 1 modulo n (circular), giving
    geometric block lengths with the requested mean.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mean_block < 1:
        raise ValueError("mean_block must be >= 1")
    restart = np.empty(n, dtype=bool)
    restart[0] = True
    restart[1:] = rng.random(n - 1) < 1.0 / mean_block
    block_id = np.cumsum(restart) - 1
    n_blocks = block_id[-1] + 1
    starts = rng.integers(0, n, size=n_blocks)
    # position of each block's first element, then offset within block
    block_first = np.flatnonzero(restart)
    offset = np.arange(n) - block_first[block_id]
    return (starts[block_id] + offset) % n


def block_walk_reference(
    n: int, mean_block: float, rng: np.random.Generator, length: int | None = None
) -> np.ndarray:
    """The stationary bootstrap's `length` (default n) indices into a circular
    series of n, as the numpy walk the library ran before its walk moved to
    C: the same draws, and the same indices exactly."""
    length = n if length is None else length
    if n < 1 or length < 1:
        raise ValueError("n and length must be >= 1")
    if mean_block < 1:
        raise ValueError("mean_block must be >= 1")
    restart = rng.random(length - 1) < 1.0 / mean_block
    block_first = np.concatenate(([0], 1 + np.flatnonzero(restart)))
    starts = rng.integers(0, n, size=block_first.size)
    # each block's start minus its first position, spread over its positions;
    # adding in place spares a path-sized temporary, which costs more than the
    # addition itself
    idx = np.repeat(starts - block_first, np.diff(block_first, append=length))
    idx += np.arange(length)
    if length > n:  # a block longer than n wraps more than once
        idx %= n
    else:  # start < n and offset < n, so one wrap suffices, and costs less than %
        idx[idx >= n] -= n
    return idx


def percentile_ci_median_reference(values, B: int, rng: np.random.Generator) -> tuple[float, float]:
    """Percentile bootstrap 95% CI for the median from one (B, n) resample matrix."""
    values = np.asarray(values, dtype=float)
    idx = rng.integers(0, values.size, size=(B, values.size))
    medians = np.median(values[idx], axis=1)
    alpha = 100.0 * (1.0 - 0.95) / 2.0
    lo, hi = np.percentile(medians, [alpha, 100.0 - alpha])
    return float(lo), float(hi)
