"""Output checks: table schemas, table digests, and the independent oracles.

The oracles are the reference implementations in the repository's
`tests/oracles.py`, imported as they are. They check a run's tables against
the benchmark's own inputs, never against the library's code paths.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

SCHEMAS = {
    "headline": "coef,estimate,hac_se,t,p",
    "sweeps": "sweep,cell,b,b_S,p_bS,stress_slope,n_stress,status",
    "panel": "month,margin_debt,vol_proxy,detrended,regime",
    "episodes": "peak_date,trough_date,recovery_date,depth,dd_days,rec_days,retention,tau,censored",
    "buckets": "bucket,n,median_retention,median_dd_days,median_tau,ci_low,ci_high",
    "delta_sensitivity": "delta,n_episodes,median_retention,median_tau,gt30_median_tau",
    "volseries": "date,realized_vol,stress",
    "r3_depth": "variant,coef,estimate,hac_se,t,p",
    "cox": "gamma,se,z,p,hr_per_10pp,n_events,n_censored",
    "nulls": "model,n_accepted,n_zero_episode,median_tau,q05,q95,p_one_sided,comparator",
}

# CLI defaults the oracle checks assume; the workloads do not override them.
LAGS = 6
DELTA = 0.05
GRID_STEP = 0.01
GRID = (-60.0, 20.0)  # gamma range searched by the Cox oracle


def table_problems(out_dir: Path, stems: tuple[str, ...]) -> list[str]:
    """Missing, unexpected or wrong-schema tables in `out_dir`."""
    want = {f"{s}.csv" for s in stems}
    have = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    problems = [f"missing table {n}" for n in sorted(want - have)]
    problems += [f"unexpected file {n}" for n in sorted(have - want)]
    for stem in stems:
        path = out_dir / f"{stem}.csv"
        if path.exists():
            with open(path) as fh:
                header = fh.readline().rstrip("\n")
            if header != SCHEMAS[stem]:
                problems.append(f"{path.name}: header {header!r}, want {SCHEMAS[stem]!r}")
    return problems


def table_digest(out_dir: Path, stems: tuple[str, ...]) -> str:
    """SHA-256 over the tables' names and bytes, in a fixed order."""
    h = hashlib.sha256()
    for stem in sorted(stems):
        name = f"{stem}.csv"
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def headline_problems(oracles, out_dir: Path) -> list[str]:
    """headline.csv hac_se against direct-summation Newey-West on panel.csv."""
    panel = _rows(out_dir / "panel.csv")
    m = np.array([float(r["detrended"]) for r in panel])
    s = np.array([float(r["regime"]) for r in panel])
    y, level, s_t = np.diff(m), m[:-1], s[1:]
    X = np.column_stack([np.ones_like(y), s_t, level, s_t * level])
    _, cov = oracles.newey_west_sandwich(y, X, LAGS)
    want = dict(zip(("a", "a_S", "b", "b_S"), np.sqrt(np.diag(cov))))
    problems = []
    for r in _rows(out_dir / "headline.csv"):
        if r["coef"] in want and not _close(float(r["hac_se"]), want[r["coef"]], 1e-6):
            problems.append(f"headline {r['coef']} hac_se {r['hac_se']} != oracle {want[r['coef']]:.10g}")
    return problems


def episode_problems(oracles, out_dir: Path, dates, closes, triples) -> list[str]:
    """episodes.csv against the brute-force scan's (peak, trough, recovery or
    None) triples of the input; cox.csv gamma against the grid search."""
    problems = []
    want = [(str(dates[p]), str(dates[t]), "" if r is None else str(dates[r])) for p, t, r in triples]
    got = [(r["peak_date"], r["trough_date"], r["recovery_date"]) for r in _rows(out_dir / "episodes.csv")]
    if got != want:
        problems.append(f"episodes.csv has {len(got)} episodes, brute force finds {len(want)} (or dates differ)")

    last = closes.size - 1
    durations = [last - t if r is None else r - t for p, t, r in triples]
    events = [0 if r is None else 1 for p, t, r in triples]
    depth = [1.0 - closes[t] / closes[p] for p, t, r in triples]
    lo, hi = GRID
    gamma = oracles.grid_search_gamma(durations, events, depth, lo=lo, hi=hi, step=GRID_STEP)
    if not lo < gamma < hi:
        problems.append(f"Cox grid oracle hit its bound at gamma={gamma}")
    got_gamma = float(_rows(out_dir / "cox.csv")[0]["gamma"])
    if not math.isclose(got_gamma, gamma, abs_tol=GRID_STEP + 1e-9):
        problems.append(f"cox gamma {got_gamma} is more than one grid step from the oracle's {gamma}")
    return problems
