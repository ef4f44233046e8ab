"""Stationary block bootstrap sums, percentile confidence intervals, and the
medians and quantiles that regimelab's statistics take.

The stationary bootstrap's walk and running sum run as one C loop in
kernels.py; its draws are numpy's, made here. The medians and quantiles are
taken from sorted copies: np.median, np.quantile and np.percentile import
numpy.ma on every call (through np.ma.isMaskedArray and np.unique), a
package regimelab never uses.
"""

from __future__ import annotations

import math

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


def _median_sorted(s: np.ndarray) -> np.ndarray:
    """The medians along the last axis of s, sorted along it, as np.median takes
    them: the middle value, or the two middle values' sum halved; NaN where a
    value is NaN, which the sort puts last."""
    h = s.shape[-1] // 2
    m = s[..., h] if s.shape[-1] % 2 else (s[..., h - 1] + s[..., h]) / 2
    return np.where(np.isnan(s[..., -1]), np.nan, m)


def median(values) -> float:
    """np.median of the non-empty values, from a sorted copy."""
    return float(_median_sorted(np.sort(np.asarray(values, dtype=float), axis=None)))


def quantile(values, q: float) -> float:
    """np.quantile(values, q) for q in [0, 1] (numpy's default linear method)
    from a sorted copy of the non-empty values; NaN when a value is NaN.
    np.percentile(values, p) is quantile(values, p / 100). As numpy does, it
    takes virtual index v = (n - 1) * q, gamma = v - floor(v) and a two-sided
    lerp, and at the top (v >= n - 1) the last value twice with gamma = v + 1.
    """
    s = np.sort(np.asarray(values, dtype=float), axis=None)
    v = (s.size - 1) * q
    i, j = (-1, -1) if v >= s.size - 1 else (math.floor(v), math.floor(v) + 1)
    g, a, b = v - i, float(s[i]), float(s[j])
    x = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
    return math.nan if math.isnan(s[-1]) else x


def percentile_ci_median(values: np.ndarray, B: int, rng: np.random.Generator) -> tuple[float, float]:
    """Percentile bootstrap 95% CI for the median: B iid resamples with replacement.

    The resamples are drawn and reduced in blocks of rows of about
    RESAMPLE_BLOCK indices each, so beyond its B medians the call's memory
    does not grow with B. Bounded-integer draws continue one stream across
    calls, so the blocks draw exactly what one (B, n) call would, and leave
    rng in the same state. Each resample's median is taken as np.median
    takes it, from its row of the block sorted in place, and the CI's ends
    as np.percentile takes them, by quantile.
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
        resamples = values[rng.integers(0, values.size, size=(block.size, values.size))]
        resamples.sort(axis=1)  # the gathered copy is this call's own
        block[:] = _median_sorted(resamples)
    # as written, not 2.5: this is 2.500000000000002, and the CIs are pinned to it
    alpha = 100.0 * (1.0 - 0.95) / 2.0
    return quantile(medians, alpha / 100), quantile(medians, (100.0 - alpha) / 100)
