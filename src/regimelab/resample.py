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
