"""Batch command-line front end.

Commands: headline, episodes, r3, nulls, cot, simulate-intermediary, run-all.
Inputs default to <data-dir>/sp500_daily.csv and <data-dir>/finra_vix_monthly.csv,
where the data directory comes from --data-dir, the REGIMELAB_DATA_DIR
environment variable (unless empty), or ./data. All outputs are deterministic
given flags, seed, and inputs. A command's tables are written only once all of
its computations have succeeded; run-all writes each sub-command's as it succeeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path
from typing import TYPE_CHECKING

# the package's constants and the standard library only: each command imports the layers it runs,
# so --version, --help and a rejected flag load no numpy
from . import MODELS, __version__

if TYPE_CHECKING:
    from .dataio import PricePath
    from .nullmodels import NullSpec

MONTHLY_SCHEMA_HELP = (
    "expected CSV schema: header 'month,margin_debt,vix'; months YYYY-MM, unique, "
    "no gaps; positive values"
)
PRICE_SCHEMA_HELP = "expected CSV schema: header 'date,close'; ISO-8601 dates; positive closes"
COT_SCHEMA_HELP = (
    "expected CSV schema: header 'period,exposure,vol'; ISO week-ending dates or YYYY-MM "
    "periods; positive values"
)

COT_MESSAGE = """\
cot: companion exposure test NOT ESTIMATED (status: not estimated).
The weekly speculative-positioning history is not assembled in this package,
and no estimates are fabricated. When an assembled file is supplied via
--input, the command runs the regime-interacted regression of the detrended
exposure change on (1, stress flag, lagged level, stress x lagged level)
with Newey-West standard errors, and labels the output
'companion - not a paper claim'.
{schema}"""

EMA_NOTE = (
    "note: EMA detrending seeds the moving average with the first observation; "
    "early detrended values are sensitive to this convention"
)


@dataclass
class RunConfig:
    """Parsed flags; defaults reproduce the baseline settings and are the CLI's defaults."""

    command: str = "run-all"
    data_dir: Path = field(default_factory=lambda: Path("data"))
    prices: Path | None = None
    monthly: Path | None = None
    cot_input: Path | None = None
    out: Path = field(default_factory=lambda: Path("results"))
    format: str = "csv"
    q: float = 0.10
    delta: float = 0.05
    lags: int = 6
    lag_regime: int = 0
    bootstrap_b: int = 10_000
    n_paths: int = 1_000
    n_days: int = 19_170
    seed: int = 1
    synthetic: bool = False
    models: tuple[str, ...] = MODELS
    comparator: float = 1.35
    agents: int = 50
    periods: int = 360

    def price_path(self) -> Path:
        return self.prices if self.prices is not None else self.data_dir / "sp500_daily.csv"

    @cached_property
    def price_series(self) -> PricePath:
        """The price file, parsed at most once per config (run-all's steps share it)."""
        from .dataio import load_price_csv
        path = self.price_path()
        if not path.exists():
            raise FileNotFoundError(f"price series not found: {path}; pass --prices. {PRICE_SCHEMA_HELP}")
        return load_price_csv(path)

    def monthly_path(self) -> Path:
        return self.monthly if self.monthly is not None else self.data_dir / "finra_vix_monthly.csv"

    def out_file(self, stem: str) -> Path:
        ext = "json" if self.format == "json" else "csv"
        return self.out / f"{stem}.{ext}"


Tables = list[tuple[str, dict | list[dict]]]  # (stem, columns or rows) in write order


def _load_headline_panel(cfg: RunConfig):
    from .dataio import build_panel, load_monthly_csv
    if cfg.synthetic:
        from .intermediary import IntermediaryConfig, simulate, to_monthly_table
        sim = simulate(
            IntermediaryConfig(n_agents=cfg.agents, T=cfg.periods, seed=cfg.seed)
        )
        print(f"synthetic panel: {cfg.periods} months from the intermediary simulator (seed {cfg.seed})")
        return build_panel(to_monthly_table(sim), q=cfg.q)
    path = cfg.monthly_path()
    if not path.exists():
        raise FileNotFoundError(
            f"monthly panel not found: {path}; pass --monthly or --synthetic. {MONTHLY_SCHEMA_HELP}"
        )
    return build_panel(load_monthly_csv(path), q=cfg.q)


def cmd_headline(cfg: RunConfig) -> Tables:
    from .econometrics import headline_regression, robustness_sweep
    panel = _load_headline_panel(cfg)
    fit = headline_regression(panel, lags=cfg.lags, lag_regime=cfg.lag_regime)
    print(
        f"headline: b_S = {fit.b_S:+.4f} (p = {fit.wald_p:.4g}), stress slope "
        f"{fit.stress_slope['estimate']:+.4f}, n_stress = {fit.n_stress}, "
        f"threshold = {fit.threshold:.4g}"
    )
    sweep_rows = robustness_sweep(panel, lags=cfg.lags)
    print(EMA_NOTE)
    panel_columns = {"month": panel.months, "margin_debt": panel.margin_debt, "vol_proxy": panel.vol_proxy,
                     "detrended": panel.detrended, "regime": panel.regime}
    return [("headline", fit.rows()), ("sweeps", sweep_rows), ("panel", panel_columns)]


def cmd_episodes(cfg: RunConfig) -> Tables:
    import numpy as np
    from .episodes import bucket_rows_to_records, bucket_stats, delta_sensitivity, detect_episodes, episodes_to_rows
    from .regime import classify
    from .timeseries import log_returns, realized_vol
    path = cfg.price_series
    eps = detect_episodes(path, delta=cfg.delta, allow_censored=True)
    if not eps:
        print(f"no episodes with depth >= {cfg.delta}")
        return []
    buckets = bucket_stats(eps, bootstrap_B=cfg.bootstrap_b, seed=cfg.seed)
    n_deep = buckets[-2].n  # the >30% bucket; the last row is all episodes
    n_cens = sum(1 for e in eps if e.censored)
    print(f"episodes: {len(eps)} at delta={cfg.delta} ({n_deep} deeper than 30%, {n_cens} censored)")

    vol = realized_vol(log_returns(path), window=21)
    idx = np.flatnonzero(~np.isnan(vol))  # vol[i] covers returns ending at date i+1
    cls = classify(vol[idx], q=cfg.q)
    # dates as a list: astype(str) gives 28-character strings, 2 MB on a 19,170-day file
    volseries = {"date": path.dates[idx + 1].astype(str).tolist(), "realized_vol": vol[idx], "stress": cls.flags}
    return [("episodes", episodes_to_rows(path, eps)), ("buckets", bucket_rows_to_records(buckets)),
            ("delta_sensitivity", delta_sensitivity(path)), ("volseries", volseries)]


def cmd_r3(cfg: RunConfig) -> Tables:
    from .econometrics import depth_regression
    from .episodes import detect_episodes
    from .survival import cox_fit
    path = cfg.price_series
    eps = detect_episodes(path, delta=cfg.delta, allow_censored=True)
    completed = [e for e in eps if not e.censored]
    fit = depth_regression(completed, lags=cfg.lags)
    rows = [{"variant": "full", **r} for r in fit.rows()]
    outliers = [e for e in completed if str(path.dates[e.peak_idx]).startswith("1980-11")]
    if outliers:
        reduced = [e for e in completed if e not in outliers]
        fit_x = depth_regression(reduced, lags=cfg.lags)
        rows += [{"variant": "excl_1980-11", **r} for r in fit_x.rows()]
    else:
        print("r3: no 1980-11 peak episode in this sample; exclude-one variant skipped")
    last_idx = len(path) - 1
    durations = [e.t_rec if not e.censored else last_idx - e.trough_idx for e in eps]
    events = [0 if e.censored else 1 for e in eps]
    depth = [e.depth for e in eps]
    cox = cox_fit(durations, events, depth)

    beta = fit.coef[1]
    print(f"r3 depth regression: beta = {beta:+.4f} (p = {fit.p[1]:.4g}) on {fit.nobs} episodes")
    print(
        f"cox: gamma = {cox.gamma:+.4f} (se {cox.se:.4f}, z {cox.z:+.3f}), "
        f"hazard ratio per 10pp depth = {cox.hr_per_10pp:.3f}"
    )
    return [("r3_depth", rows), ("cox", [cox.row()])]


def _null_specs(cfg: RunConfig) -> list[NullSpec]:
    """cfg.models' specs, checked; with no price CSV, block_bootstrap is dropped, and noted, if others remain."""
    from .nullmodels import DEFAULT_PARAMS, BlockBootstrapParams, NullSpec
    from .timeseries import log_returns
    models = list(cfg.models)
    if not models:
        raise ValueError(f"--models names no model; choose from {','.join(MODELS)}")
    bad = [m for m in models if m not in MODELS]
    if bad:
        raise ValueError(f"--models: unknown models {bad}; choose from {','.join(MODELS)}")
    repeated = [m for m in dict.fromkeys(models) if models.count(m) > 1]
    if repeated:
        raise ValueError(f"--models: repeated models {repeated}; name each model once")
    returns = None
    price_file = cfg.price_path()
    if "block_bootstrap" in models:
        if price_file.exists():
            returns = log_returns(cfg.price_series)
        elif models == ["block_bootstrap"]:
            raise FileNotFoundError(
                f"block_bootstrap requires the price CSV ({price_file}). {PRICE_SCHEMA_HELP}"
            )
        else:
            models = [m for m in models if m != "block_bootstrap"]
            print(f"note: block_bootstrap skipped, price CSV not found ({price_file})")
    return [
        NullSpec(model, BlockBootstrapParams(returns) if model == "block_bootstrap" else DEFAULT_PARAMS[model](),
                 n_days=cfg.n_days, n_paths=cfg.n_paths, seed=cfg.seed, delta=cfg.delta)
        for model in models
    ]


def cmd_nulls(cfg: RunConfig, collect=None) -> Tables:
    """The studies of _null_specs(cfg), started here, or by run-all, which passes `collect` to wait for them."""
    from .nullmodels import null_studies
    with ExitStack() as stack:
        collect = collect or stack.enter_context(null_studies(_null_specs(cfg), cfg.comparator))
        summaries = collect()
    for summary in summaries:
        print(
            f"{summary.model}: median tau {summary.median_tau:.3f} "
            f"[{summary.q05:.2f}, {summary.q95:.2f}], p = {summary.p_one_sided:.3f}, "
            f"accepted {summary.n_accepted}/{cfg.n_paths}"
        )
    return [("nulls", [summary.row() for summary in summaries])]


def cmd_cot(cfg: RunConfig) -> Tables:
    if cfg.cot_input is None:
        print(COT_MESSAGE.format(schema=COT_SCHEMA_HELP))
        return []
    from .dataio import build_panel, load_exposure_csv
    from .econometrics import headline_regression
    table = load_exposure_csv(cfg.cot_input)
    panel = build_panel(table, q=cfg.q)
    fit = headline_regression(panel, lags=cfg.lags, lag_regime=cfg.lag_regime)
    print("companion - not a paper claim")
    print(
        f"cot companion: b_S = {fit.b_S:+.4f} (p = {fit.wald_p:.4g}), "
        f"n_stress = {fit.n_stress} of {len(panel)}"
    )
    return [("cot_companion", fit.rows())]


def cmd_simulate_intermediary(cfg: RunConfig) -> Tables:
    from .intermediary import IntermediaryConfig, simulate
    sim = simulate(IntermediaryConfig(n_agents=cfg.agents, T=cfg.periods, seed=cfg.seed))
    n_stress = int(sim.regime.sum())
    print(f"simulated {cfg.periods} periods, {cfg.agents} agents, {n_stress} stress periods")
    return [("intermediary_panel", sim.columns())]


def cmd_run_all(cfg: RunConfig) -> Tables:
    # imported before headline runs: imported after it, the data-free run-all's peak RSS read
    # 0.3-0.4 MB higher (the import order, not any new allocation)
    from .nullmodels import null_studies
    # one config for every step, so they share its parsed price series
    if not (cfg.synthetic or cfg.monthly_path().exists()):
        print("run-all: monthly panel missing, running headline on synthetic data")
        cfg = replace(cfg, synthetic=True)
    failures = _run("headline", cmd_headline, cfg)
    # each step's command, or the error that rules the step out, for _run to report
    steps = {step: COMMANDS[step][0] for step in ("episodes", "r3", "nulls", "cot")}
    if not cfg.price_path().exists():
        print(
            "run-all: price CSV missing, data-conditional checks skipped "
            f"(episodes, r3; expected at {cfg.price_path()})"
        )
        del steps["episodes"], steps["r3"]
    else:
        try:
            cfg.price_series  # parsed here, so a bad file is read and reported once
        except (ValueError, OSError) as exc:
            print(f"run-all: {exc}", file=sys.stderr)
            unread = ["episodes", "r3"] + ["nulls"] * ("block_bootstrap" in cfg.models)
            steps.update(dict.fromkeys(unread, ValueError("skipped, the price file could not be read")))
    with ExitStack() as stack:
        if callable(steps["nulls"]):
            # run-all draws numbers itself, so its workers inherit numpy.random; a pooled nulls parent never
            # draws one, and leaves the import (several MB with the libcrypto it brings) to its workers
            import numpy.random  # noqa: F401
            # the workers run the studies during episodes and r3; an error in starting them is the nulls step's
            try:
                steps["nulls"] = partial(cmd_nulls, collect=stack.enter_context(null_studies(
                    _null_specs(cfg), cfg.comparator, overlapped=callable(steps.get("episodes")))))
            except (ValueError, OSError) as exc:
                steps["nulls"] = exc
        failures += sum(_run(step, command, cfg) for step, command in steps.items())
    if failures:
        raise ValueError(f"{failures} sub-command(s) failed")
    print("run-all: complete")
    return []


def _run(label: str, command, cfg: RunConfig) -> int:
    """Run one command, then write its tables (columns or rows): a command that raises writes none.

    Every command's and run-all step's outcome is reported here: a ValueError or OSError, raised by
    the command or passed in its place (a step ruled out before it runs), is printed on stderr as
    `<label>: <reason>` and returns 1; success returns 0.
    """
    from .dataio import write_table
    try:
        if isinstance(command, Exception):
            raise command
        for stem, table in command(cfg):
            cfg.out.mkdir(parents=True, exist_ok=True)
            path = cfg.out_file(stem)
            write_table(table, path, cfg.format)
            print(f"wrote {path}")
    except (ValueError, OSError) as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    return 0


def _models(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


# Every flag, once. A flag's default is the RunConfig field its dest names;
# --data-dir defaults to None so that config_from_args can fall back to
# $REGIMELAB_DATA_DIR.
FLAGS = {
    "--data-dir": dict(type=Path, default=None,
                       help="input directory (default: $REGIMELAB_DATA_DIR or ./data)"),
    "--out": dict(type=Path, help="output directory"),
    "--format": dict(choices=("csv", "json")),
    "--seed": dict(type=int),
    "--prices": dict(type=Path, help="daily price CSV (date,close)"),
    "--monthly": dict(type=Path, help="monthly panel CSV (month,margin_debt,vix)"),
    "--input": dict(dest="cot_input", type=Path, help="assembled companion CSV (period,exposure,vol)"),
    "--synthetic": dict(action="store_true", help="use the intermediary simulator instead of data"),
    "--q": dict(type=float, help="stress tail fraction"),
    "--delta": dict(type=float, help="minimum drawdown depth"),
    "--lags": dict(type=int, help="Newey-West lag count"),
    "--lag-regime": dict(type=int, help="lag the stress indicator k months"),
    "--bootstrap-b": dict(type=int, help="bootstrap resamples for bucket CIs"),
    "--models": dict(type=_models, help=f"comma-separated subset of {','.join(MODELS)}"),
    "--paths": dict(dest="n_paths", type=int),
    "--days": dict(dest="n_days", type=int),
    "--comparator": dict(type=float, help="empirical median duration ratio"),
    "--agents": dict(type=int),
    "--periods": dict(type=int),
}

_COMMON = ("--data-dir", "--out", "--format", "--seed")

# command -> (function, help line, flags in help order)
COMMANDS = {
    "headline": (
        cmd_headline, "regime-interacted exposure regression plus robustness sweeps",
        (*_COMMON, "--monthly", "--synthetic", "--q", "--lags", "--lag-regime", "--agents", "--periods"),
    ),
    "episodes": (
        cmd_episodes, "drawdown-recovery episode detection and bucket statistics",
        (*_COMMON, "--prices", "--delta", "--q", "--bootstrap-b"),
    ),
    "r3": (
        cmd_r3, "continuous-depth regression and Cox hazard model",
        (*_COMMON, "--prices", "--delta", "--lags"),
    ),
    "nulls": (
        cmd_nulls, "null-model duration-ratio studies",
        (*_COMMON, "--prices", "--models", "--paths", "--days", "--delta", "--comparator"),
    ),
    "cot": (
        cmd_cot, "companion exposure test (reports not-estimated without input)",
        (*_COMMON, "--input", "--q", "--lags", "--lag-regime"),
    ),
    "simulate-intermediary": (
        cmd_simulate_intermediary, "emit a simulated intermediary panel",
        (*_COMMON, "--agents", "--periods"),
    ),
    # not the union of the others: run-all takes no --lag-regime and no --input
    "run-all": (
        cmd_run_all, "chain headline, episodes, r3, nulls, cot",
        (*_COMMON, "--prices", "--monthly", "--synthetic", "--q", "--delta", "--lags",
         "--bootstrap-b", "--models", "--paths", "--days", "--comparator", "--agents", "--periods"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimelab",
        description="Regime-conditional exposure regressions, drawdown-recovery episodes, and null-model studies.",
    )
    parser.add_argument("--version", action="version", version=f"regimelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for name, (_, help_line, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags:
            action = p.add_argument(flag, **FLAGS[flag])
            if "default" not in FLAGS[flag]:
                action.default = getattr(defaults, action.dest)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**vars(args))
    if cfg.data_dir is None:
        cfg.data_dir = Path(os.environ.get("REGIMELAB_DATA_DIR") or "data")  # set but empty counts as unset
    return cfg


def main(argv: list[str] | None = None) -> int:
    # BLAS on the calling thread, set before any command imports numpy: the path pool (null_studies) is
    # the parallelism and no matrix here reaches OpenBLAS's threading threshold, so an extra BLAS thread
    # only spins idle. Overridden, not defaulted: left unset, OpenBLAS starts one thread per CPU
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cfg = config_from_args(build_parser().parse_args(argv))
    return _run("error", COMMANDS[cfg.command][0], cfg)


if __name__ == "__main__":
    sys.exit(main())
