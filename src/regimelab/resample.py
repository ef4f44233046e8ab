"""Stationary block bootstrap walks and percentile confidence intervals.

The stationary bootstrap's walk runs as a C loop in kernels.py; its draws
are numpy's, made here.
"""

from __future__ import annotations

import numpy as np

from . import kernels

# index elements per resample block in percentile_ci_median (0.5 MB of int64)
RESAMPLE_BLOCK = 2**16


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for resample/path `index` under a master seed.

    Child streams depend only on (seed, index), so work units can run in any
    order or in parallel and still reproduce bit-identically.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _walk_draws(n: int, mean_block: float, rng: np.random.Generator, length: int):
    """The draws of a stationary bootstrap walk of `length` over n, and its
    restart probability. The restart uniforms come first, then one start
    per block: the numpy walk in tests/oracles.py draws in this order too,
    so both give the same indices for the same generator."""
    if n < 1 or length < 1:
        raise ValueError("n and length must be >= 1")
    if not mean_block >= 1:
        raise ValueError("mean_block must be >= 1")
    p = 1.0 / mean_block
    u = rng.random(length - 1)
    starts = rng.integers(0, n, size=1 + np.count_nonzero(u < p))
    return u, starts, p


def stationary_block_indices(
    n: int, mean_block: float, rng: np.random.Generator, length: int | None = None
) -> np.ndarray:
    """Politis-Romano stationary bootstrap: `length` (default n) indices into
    a circular series of n.

    Each position restarts at a uniform index in [0, n) with probability
    1/mean_block, otherwise continues the previous index + 1 modulo n, giving
    geometric block lengths with the requested mean. With length == n this
    is the usual circular stationary bootstrap of a series of n.
    """
    length = n if length is None else length
    u, starts, p = _walk_draws(n, mean_block, rng, length)
    idx = np.empty(length, dtype=np.int64)
    kernels.load().block_indices(u, starts, n, length, p, idx)
    return idx


def stationary_block_cumsum(
    x: np.ndarray, mean_block: float, rng: np.random.Generator, out: np.ndarray
) -> None:
    """Write to `out` the running sum of the contiguous float64 series x along
    a stationary bootstrap walk of out.size positions over it: exactly
    np.cumsum(x[stationary_block_indices(x.size, mean_block, rng, out.size)]),
    with the same draws, but without the index and gathered arrays."""
    u, starts, p = _walk_draws(x.size, mean_block, rng, out.size)
    kernels.load().block_cumsum(u, starts, x.size, out.size, p, x, out)


def percentile_ci_median(values: np.ndarray, B: int, rng: np.random.Generator) -> tuple[float, float]:
    """Percentile bootstrap 95% CI for the median: B iid resamples with replacement.

    The resamples are drawn and reduced in blocks of rows of about
    RESAMPLE_BLOCK indices each, so beyond its B medians the call's memory
    does not grow with B. Bounded-integer draws continue one stream across
    calls, so the blocks draw exactly what one (B, n) call would, and leave
    rng in the same state.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if B < 1:
        raise ValueError("B must be >= 1")
    rows = max(1, RESAMPLE_BLOCK // values.size)
    medians = np.empty(B)
    for start in range(0, B, rows):
        block = medians[start:start + rows]
        idx = rng.integers(0, values.size, size=(block.size, values.size))
        # the gathered copy is this call's own, so the median may partition it in place
        np.median(values[idx], axis=1, out=block, overwrite_input=True)
    # as written, not 2.5: this is 2.500000000000002, and the CIs are pinned to it
    alpha = 100.0 * (1.0 - 0.95) / 2.0
    lo, hi = np.percentile(medians, [alpha, 100.0 - alpha])
    return float(lo), float(hi)
