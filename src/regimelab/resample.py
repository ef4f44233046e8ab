"""Stationary block bootstrap sums and percentile confidence intervals.

The stationary bootstrap's walk and running sum run as one C loop in
kernels.py; its draws are numpy's, made here.
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


def stationary_block_cumsum(
    x: np.ndarray, mean_block: float, rng: np.random.Generator, out: np.ndarray
) -> None:
    """Write to `out` the running sum of the contiguous float64 series x along
    a Politis-Romano stationary bootstrap walk of out.size positions over it.

    Position 0 is a uniform index in [0, x.size); each later position
    restarts at one with probability 1/mean_block, and otherwise continues
    the previous index + 1 modulo x.size, giving geometric block lengths
    with the requested mean. The restart uniforms are drawn first, then one
    start per block: the numpy walk in tests/oracles.py draws in this order
    too, and the sums equal np.cumsum of x at its indices exactly.
    """
    n, length = x.size, out.size
    if n < 1 or length < 1:
        raise ValueError("n and length must be >= 1")
    if not mean_block >= 1:
        raise ValueError("mean_block must be >= 1")
    p = 1.0 / mean_block
    u = rng.random(length - 1)
    starts = rng.integers(0, n, size=1 + np.count_nonzero(u < p))
    kernels.load().block_cumsum(u, starts, n, length, p, x, out)


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
