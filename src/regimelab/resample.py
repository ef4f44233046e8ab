"""Stationary block bootstrap index generation and percentile confidence intervals."""

from __future__ import annotations

import numpy as np

# index elements per resample block in percentile_ci_median (0.5 MB of int64)
RESAMPLE_BLOCK = 2**16


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for resample/path `index` under a master seed.

    Child streams depend only on (seed, index), so work units can run in any
    order or in parallel and still reproduce bit-identically.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


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
