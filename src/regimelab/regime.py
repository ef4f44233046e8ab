"""Volatility-quantile stress classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .resample import quantile


@dataclass(frozen=True)
class RegimeClassification:
    threshold: float
    flags: np.ndarray  # int {0,1}


def classify(vol: np.ndarray, q: float = 0.10) -> RegimeClassification:
    """Flag observations with volatility strictly above the (1-q) quantile.

    The threshold is the empirical quantile with linear interpolation on
    order statistics, np.quantile's default, taken by resample.quantile
    from a sorted copy; comparison is strict, so ties at the threshold are
    calm.
    """
    vol = np.asarray(vol, dtype=float)
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    if vol.size < 10:
        raise ValueError("need at least 10 observations to classify")
    if not np.all(np.isfinite(vol)):
        raise ValueError("volatility series contains non-finite values")
    threshold = quantile(vol, 1.0 - q)
    return RegimeClassification(threshold, (vol > threshold).astype(int))


def lag_flags(flags: np.ndarray, k: int) -> np.ndarray:
    """Shift flags back by k steps; the first k entries become NaN (absent)."""
    flags = np.asarray(flags, dtype=float)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= flags.size:
        raise ValueError("k must be smaller than the series length")
    if k == 0:
        return flags.copy()
    out = np.full(flags.size, np.nan)
    out[k:] = flags[:-k]
    return out
