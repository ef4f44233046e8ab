"""Drawdown-recovery episode detection and magnitude-bucket statistics.

An episode runs from an all-time-high peak through the trough to the first
index that regains the peak price. Peaks at price ties take the LAST index
attaining the running maximum (flat tops do not count toward the drawdown
duration); troughs take the FIRST index attaining the interval minimum;
recovery uses a weak >= comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import PricePath
from .resample import percentile_ci_median, stationary_block_indices

BUCKET_EDGES = ((0.05, 0.10), (0.10, 0.20), (0.20, 0.30), (0.30, float("inf")))
BUCKET_LABELS = ("5-10%", "10-20%", "20-30%", ">30%")

DELTA_SWEEP = (0.03, 0.05, 0.10)


@dataclass(frozen=True)
class Episode:
    """One peak -> trough -> recovery record, in observation steps."""

    peak_idx: int
    trough_idx: int
    recovery_idx: int | None
    depth: float
    retention: float  # trough/peak price ratio
    t_dd: int
    t_rec: int | None
    tau: float | None
    censored: bool


@dataclass(frozen=True)
class BucketRow:
    label: str
    n: int
    median_retention: float | None
    median_t_dd: float | None
    median_tau: float | None
    ci_low: float | None
    ci_high: float | None


def episode_arrays(closes: np.ndarray, delta: float):
    """Completed episodes with depth >= delta, as arrays.

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


def detect_episodes(path: PricePath, delta: float = 0.05, allow_censored: bool = False) -> list[Episode]:
    """Detect all drawdown-recovery episodes with depth >= delta.

    A trailing drawdown that never regains its peak is emitted as a censored
    episode only when allow_censored is set; otherwise it is dropped.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if len(path) < 3:
        raise ValueError("path must have length >= 3")
    closes = np.asarray(path.closes, dtype=float)
    n = closes.size
    if allow_censored:
        # a +inf close "recovers" the trailing drawdown at index n; PricePath
        # closes are finite, so only the censored episode can end there
        closes = np.append(closes, np.inf)
    peaks, troughs, recs, depth = episode_arrays(closes, delta)
    retention = closes[troughs] / closes[peaks]
    return [
        Episode(
            peak_idx=p,
            trough_idx=t,
            recovery_idx=None if r == n else r,
            depth=d,
            retention=ret,
            t_dd=t - p,
            t_rec=None if r == n else r - t,
            tau=None if r == n else (r - t) / (t - p),
            censored=r == n,
        )
        for p, t, r, d, ret in zip(
            peaks.tolist(), troughs.tolist(), recs.tolist(), depth.tolist(), retention.tolist()
        )
    ]


def episodes_to_rows(path: PricePath, episodes: list[Episode]) -> list[dict]:
    """Episode table rows in the fixed CSV schema."""
    rows = []
    for e in episodes:
        rows.append(
            {
                "peak_date": str(path.dates[e.peak_idx]),
                "trough_date": str(path.dates[e.trough_idx]),
                "recovery_date": None if e.recovery_idx is None else str(path.dates[e.recovery_idx]),
                "depth": e.depth,
                "dd_days": e.t_dd,
                "rec_days": e.t_rec,
                "retention": e.retention,
                "tau": e.tau,
                "censored": e.censored,
            }
        )
    return rows


def _bucket_of(depth: float) -> int | None:
    for i, (lo, hi) in enumerate(BUCKET_EDGES):
        if lo <= depth < hi:
            return i
    return None  # depth below the smallest bucket edge


def _median_or_none(values: list[float]) -> float | None:
    return float(np.median(values)) if values else None


def _median_ci(taus: np.ndarray, B: int, rng, mean_block: int) -> tuple[float, float]:
    if mean_block == 1:
        return percentile_ci_median(taus, B=B, rng=rng)
    medians = np.empty(B)
    for b in range(B):
        idx = stationary_block_indices(taus.size, min(mean_block, taus.size), rng)
        medians[b] = np.median(taus[idx])
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return float(lo), float(hi)


def _bucket_row(label: str, members: list[Episode], B: int, rng, mean_block: int) -> BucketRow:
    taus = [e.tau for e in members if not e.censored]
    ci_low = ci_high = None
    if taus:
        ci_low, ci_high = _median_ci(np.array(taus), B, rng, mean_block)
    return BucketRow(
        label=label,
        n=len(members),
        median_retention=_median_or_none([e.retention for e in members]),
        median_t_dd=_median_or_none([float(e.t_dd) for e in members]),
        median_tau=_median_or_none(taus),
        ci_low=ci_low,
        ci_high=ci_high,
    )


def bucket_stats(
    episodes: list[Episode],
    bootstrap_B: int = 10_000,
    seed: int = 1,
    mean_block: int = 1,
) -> list[BucketRow]:
    """Per-magnitude-bucket medians with percentile bootstrap CIs, plus an All row.

    Censored episodes never enter the duration-ratio statistics; empty
    buckets yield n=0 rows with absent statistics. CIs draw bootstrap_B
    resamples: iid episode-level resampling when mean_block is 1, otherwise
    stationary-block resampling of contiguous runs of chronologically ordered
    episodes with that mean block length.
    """
    if bootstrap_B < 1:
        raise ValueError("bootstrap_B must be >= 1")
    if mean_block < 1:
        raise ValueError("mean_block must be >= 1")
    if not episodes:
        raise ValueError("episodes must be non-empty")
    rng = np.random.default_rng(seed)
    ordered = sorted(episodes, key=lambda e: e.peak_idx)
    buckets: list[list[Episode]] = [[] for _ in BUCKET_EDGES]
    for e in ordered:
        i = _bucket_of(e.depth)
        if i is not None:
            buckets[i].append(e)
    rows = [
        _bucket_row(label, members, bootstrap_B, rng, mean_block)
        for label, members in zip(BUCKET_LABELS, buckets)
    ]
    rows.append(_bucket_row("all", ordered, bootstrap_B, rng, mean_block))
    return rows


def bucket_rows_to_records(rows: list[BucketRow]) -> list[dict]:
    return [
        {
            "bucket": r.label,
            "n": r.n,
            "median_retention": r.median_retention,
            "median_dd_days": r.median_t_dd,
            "median_tau": r.median_tau,
            "ci_low": r.ci_low,
            "ci_high": r.ci_high,
        }
        for r in rows
    ]


def delta_sensitivity(path: PricePath) -> list[dict]:
    """Episode counts and medians across minimum-depth thresholds."""
    out = []
    for delta in DELTA_SWEEP:
        eps = detect_episodes(path, delta=delta)
        taus = [e.tau for e in eps]
        deep = [e.tau for e in eps if e.depth >= 0.30]
        out.append(
            {
                "delta": delta,
                "n_episodes": len(eps),
                "median_retention": _median_or_none([e.retention for e in eps]),
                "median_tau": _median_or_none(taus),
                "gt30_median_tau": _median_or_none(deep),
            }
        )
    return out
