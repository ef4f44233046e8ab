"""Stationary block bootstrap index generation and percentile confidence intervals."""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for resample/path `index` under a master seed.

    Child streams depend only on (seed, index), so work units can run in any
    order or in parallel and still reproduce bit-identically.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def stationary_block_indices(n: int, mean_block: float, rng: np.random.Generator) -> np.ndarray:
    """Politis-Romano stationary bootstrap index sequence of length exactly n.

    Each position restarts at a uniform index with probability 1/mean_block,
    otherwise continues the previous index + 1 modulo n (circular), giving
    geometric block lengths with the requested mean.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mean_block < 1:
        raise ValueError("mean_block must be >= 1")
    restart = rng.random(n - 1) < 1.0 / mean_block
    block_first = np.concatenate(([0], 1 + np.flatnonzero(restart)))
    starts = rng.integers(0, n, size=block_first.size)
    # each block's start minus its first position, spread over its positions;
    # start < n and offset < n, so one wrap suffices; adding in place spares a
    # path-sized temporary, which costs more than the addition itself
    idx = np.repeat(starts - block_first, np.diff(block_first, append=n))
    idx += np.arange(n)
    idx[idx >= n] -= n
    return idx


def percentile_ci_median(
    values: np.ndarray,
    B: int,
    level: float = 0.95,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the median: B iid resamples with replacement."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if B < 1:
        raise ValueError("B must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if rng is None:
        rng = np.random.default_rng()
    idx = rng.integers(0, values.size, size=(B, values.size))
    medians = np.median(values[idx], axis=1)
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(medians, [alpha, 100.0 - alpha])
    return float(lo), float(hi)
