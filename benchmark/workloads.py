"""The benchmark's workloads and the inputs each one is given.

Each workload is one `python -m regimelab.cli ...` invocation. The benchmark
appends `--data-dir`, `--out` and `--seed` itself, so every child gets an
explicit data directory (empty for the data-free workloads) and the
workload seed.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from regimelab import (
    IntermediaryConfig,
    MarkovRsParams,
    NullSpec,
    PricePath,
    detect_episodes,
    simulate,
    simulate_path,
)
from regimelab.intermediary import to_monthly_table

HEADLINE_TABLES = ("headline", "sweeps", "panel")
PRICE_TABLES = ("episodes", "buckets", "delta_sensitivity", "volseries", "r3_depth", "cox")

PRICE_START = "1950-01-03"  # first business day of the generated price file
MONTH_START = "1959-01"  # 780 months from here end in 2023-12

# The price file's sample drift and volatility (annualised) and its episode
# count at delta = 5% are pinned. The block-bootstrap null resamples the
# file's returns, so its per-path episode scan, and the bucket bootstrap's
# (B, n_episodes) arrays, cost the same whatever the seed.
PRICE_DRIFT = 0.08
PRICE_VOL = 0.16


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments before --data-dir/--out/--seed
    tables: tuple[str, ...]  # stems of the tables the command must write
    price_rows: int = 0  # rows of the generated sp500_daily.csv; 0 writes none
    price_episodes: int = 0  # episodes (censored included) the price file must have
    months: int = 0  # rows of the generated finra_vix_monthly.csv; 0 writes none


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "datafree_runall",
            ("run-all", "--paths", "40", "--days", "19170"),
            HEADLINE_TABLES + ("nulls",),
        ),
        Workload(
            "prices_runall",
            ("run-all", "--models", "block_bootstrap", "--paths", "1000", "--days", "19170"),
            HEADLINE_TABLES + PRICE_TABLES + ("nulls",),
            price_rows=19_170,
            price_episodes=70,
            months=780,
        ),
        Workload(
            "short_horizon_nulls",
            ("nulls", "--models", "gbm,asym_vol,heston,markov_rs", "--days", "2520", "--paths", "300"),
            ("nulls",),
        ),
    )
}

# The same commands at a scale that runs in about a second, for the smoke test.
TINY = {
    "datafree_runall": replace(
        WORKLOADS["datafree_runall"], argv=("run-all", "--paths", "8", "--days", "2520")
    ),
    "prices_runall": replace(
        WORKLOADS["prices_runall"],
        argv=("run-all", "--models", "block_bootstrap", "--paths", "20", "--days", "2520",
              "--bootstrap-b", "200"),
        price_rows=2520,
        price_episodes=10,
    ),
    "short_horizon_nulls": replace(
        WORKLOADS["short_horizon_nulls"],
        argv=("nulls", "--models", "gbm,asym_vol,heston,markov_rs", "--days", "1000", "--paths", "10"),
    ),
}


@dataclass(frozen=True)
class Inputs:
    data_dir: Path
    dates: np.ndarray | None  # datetime64[D] of the price file, or None
    closes: np.ndarray | None  # closes exactly as written, or None
    sha256: dict[str, str]  # file name -> SHA-256 of its bytes


def _write_csv(path: Path, header: str, rows) -> str:
    text = header + "\n" + "".join(",".join(r) + "\n" for r in rows)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _price_path(workload: Workload, seed: int) -> PricePath:
    """The first markov_rs path, rescaled to the pinned drift and volatility,
    that has the workload's episode count and does not end on the trough of
    a drawdown. (On such a file the censored episode's duration is 0 and
    `regimelab r3` exits non-zero: Cox durations must be positive.)"""
    spec = NullSpec("markov_rs", MarkovRsParams(), n_days=workload.price_rows, n_paths=1, seed=seed)
    dates = np.busday_offset(PRICE_START, np.arange(workload.price_rows), roll="forward")
    for i in itertools.count():
        r = np.diff(np.log(simulate_path(spec, i).closes))
        r = (r - r.mean()) / r.std() * PRICE_VOL / np.sqrt(252) + PRICE_DRIFT / 252
        path = PricePath(dates, 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(r)))))
        c = path.closes
        last_high = c.size - 1 - int(np.argmax(c[::-1]))
        ends_on_trough = last_high < c.size - 1 and int(np.argmin(c[last_high:])) == c.size - 1 - last_high
        if (not ends_on_trough
                and len(detect_episodes(path, 0.05, allow_censored=True)) == workload.price_episodes):
            return path


def generate_inputs(workload: Workload, seed: int, data_dir: Path) -> Inputs:
    """Write the workload's input files for `seed` into `data_dir`.

    The price file is drawn from the library's markov_rs null (see
    _price_path) on business-day dates; the monthly file is the intermediary
    simulator's aggregate exposure and volatility. Floats are written with
    repr, so reading them back gives the same doubles.
    """
    data_dir.mkdir(parents=True, exist_ok=True)
    sha: dict[str, str] = {}
    dates = closes = None
    if workload.price_rows:
        path = _price_path(workload, seed)
        dates, closes = path.dates, path.closes
        sha["sp500_daily.csv"] = _write_csv(
            data_dir / "sp500_daily.csv", "date,close",
            ((str(d), repr(float(c))) for d, c in zip(dates, closes)),
        )
    if workload.months:
        table = to_monthly_table(
            simulate(IntermediaryConfig(T=workload.months, seed=seed)), start_month=MONTH_START
        )
        sha["finra_vix_monthly.csv"] = _write_csv(
            data_dir / "finra_vix_monthly.csv", "month,margin_debt,vix",
            ((m, repr(float(a)), repr(float(v)))
             for m, a, v in zip(table.months, table.margin_debt, table.vol_proxy)),
        )
    return Inputs(data_dir, dates, closes, sha)
