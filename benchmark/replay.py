"""Traced replay of a workload through regimelab's public functions.

The replay parses the workload's arguments with the CLI's own parser, then
makes the calls the CLI's command makes, in the same order, with one span
around each call into a library module. The null studies are replayed path
by path: `simulate_path(spec, i)` then `detect_episodes(path, delta)`, so
each path's simulation and episode scan get their own spans. The replay
writes the same tables as the CLI, which lets the benchmark compare their
bytes.

A span's name starts with its layer, the library module called.
`cli.main` covers the whole replay; its self time is the CLI's own work
(argument parsing, row building) that no library span covers.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from regimelab import (
    AsymVolParams,
    BlockBootstrapParams,
    GbmParams,
    HestonParams,
    IntermediaryConfig,
    MarkovRsParams,
    NullSpec,
    NullStudySummary,
    build_panel,
    bucket_stats,
    classify,
    cox_fit,
    delta_sensitivity,
    depth_regression,
    detect_episodes,
    headline_regression,
    load_monthly_csv,
    load_price_csv,
    log_returns,
    realized_vol,
    robustness_sweep,
    run_null_study,
    simulate,
    simulate_path,
    write_table,
)
from regimelab import cli
from regimelab.episodes import bucket_rows_to_records, episodes_to_rows
from regimelab.intermediary import to_monthly_table

MODELS = ("gbm", "asym_vol", "heston", "markov_rs", "block_bootstrap")
PARAMS = {"gbm": GbmParams, "asym_vol": AsymVolParams, "heston": HestonParams,
          "markov_rs": MarkovRsParams}
SPANNED_LAYERS = ("nullmodels", "episodes", "econometrics", "survival", "dataio",
                  "timeseries", "regime", "intermediary")

# metric name -> span whose total duration it reports, in seconds
SPAN_METRICS = {
    **{f"nullmodels.simulate_path.{m}.busy_s": f"nullmodels.simulate_path.{m}" for m in MODELS},
    **{f"nullmodels.run_null_study.{m}.s": f"nullmodels.run_null_study.{m}" for m in MODELS},
    "episodes.detect_episodes.null_s": "episodes.detect_episodes.null",
    "episodes.detect_episodes.series_s": "episodes.detect_episodes.series",
    "episodes.bucket_stats.s": "episodes.bucket_stats",
    "episodes.delta_sensitivity.s": "episodes.delta_sensitivity",
    "econometrics.headline_regression.s": "econometrics.headline_regression",
    "econometrics.robustness_sweep.s": "econometrics.robustness_sweep",
    "econometrics.depth_regression.s": "econometrics.depth_regression",
    "survival.cox_fit.s": "survival.cox_fit",
    "dataio.load_price_csv.s": "dataio.load_price_csv",
    "dataio.load_monthly_csv.s": "dataio.load_monthly_csv",
    "dataio.write_table.s": "dataio.write_table",
    "timeseries.realized_vol.s": "timeseries.realized_vol",
    "regime.classify.s": "regime.classify",
    "intermediary.simulate.s": "intermediary.simulate",
    "cli.main.s": "cli.main",
}
# metrics that are counters the replay increments where the work happens
COUNT_METRICS = {
    **{f"nullmodels.paths_rejected.{m}": "count" for m in MODELS},
    "episodes.count": "count",
    "episodes.censored": "count",
    "resample.bootstrap_resamples": "count",
    "econometrics.sweep_cells_failed": "count",
    "survival.cox_fit.iterations": "count",
    "dataio.rows_parsed": "count",
    "dataio.bytes_written": "bytes",
}
# metrics derived from spans and counters together
DERIVED_METRICS = {
    **{f"nullmodels.steps_per_s.{m}": "steps/s" for m in MODELS},
    **{f"nullmodels.accept_ratio.{m}": "ratio" for m in MODELS},
    "nullmodels.run_null_study.share": "ratio",
    "episodes.episodes_per_path": "count",
    **{f"{layer}.self_s": "s" for layer in SPANNED_LAYERS},
    "cli.unaccounted_s": "s",
}
# cli.main.s minus the untraced CLI's time after start-up; run.py computes it
OVERHEAD_METRIC = "trace.overhead_s"

PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    **COUNT_METRICS,
    **DERIVED_METRICS,
    OVERHEAD_METRIC: "s",
}


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._open.pop()][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for n, s, e, p in self.spans]


@dataclass
class Replay:
    tracer: Tracer
    null_studies: list[tuple[NullSpec, float, dict]] = field(default_factory=list)


def _write(tr: Tracer, cfg, stem: str, rows: list[dict]) -> None:
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out_file(stem)
    tr.call("dataio.write_table", write_table, rows, path, cfg.format)
    tr.counts["dataio.bytes_written"] += path.stat().st_size


def _headline(tr: Tracer, cfg) -> None:
    if cfg.synthetic or not cfg.monthly_path().exists():
        sim = tr.call("intermediary.simulate", simulate,
                      IntermediaryConfig(n_agents=cfg.agents, T=cfg.periods, seed=cfg.seed))
        table = tr.call("intermediary.to_monthly_table", to_monthly_table, sim)
    else:
        table = tr.call("dataio.load_monthly_csv", load_monthly_csv, cfg.monthly_path())
        tr.counts["dataio.rows_parsed"] += len(table.months)
    panel = tr.call("dataio.build_panel", build_panel, table, q=cfg.q)
    fit = tr.call("econometrics.headline_regression", headline_regression, panel,
                  lags=cfg.lags, lag_regime=cfg.lag_regime)
    _write(tr, cfg, "headline", fit.rows())
    sweep_rows = tr.call("econometrics.robustness_sweep", robustness_sweep, panel, lags=cfg.lags)
    tr.counts["econometrics.sweep_cells_failed"] += sum(r["status"] != "ok" for r in sweep_rows)
    _write(tr, cfg, "sweeps", sweep_rows)
    panel_rows = [
        {
            "month": m,
            "margin_debt": float(panel.margin_debt[i]),
            "vol_proxy": float(panel.vol_proxy[i]),
            "detrended": float(panel.detrended[i]),
            "regime": int(panel.regime[i]),
        }
        for i, m in enumerate(panel.months)
    ]
    _write(tr, cfg, "panel", panel_rows)


def _prices(tr: Tracer, cfg):
    path = tr.call("dataio.load_price_csv", load_price_csv, cfg.price_path())
    tr.counts["dataio.rows_parsed"] += len(path)
    return path


def _episodes(tr: Tracer, cfg) -> None:
    path = _prices(tr, cfg)
    eps = tr.call("episodes.detect_episodes.series", detect_episodes, path,
                  delta=cfg.delta, allow_censored=True)
    if not eps:
        return
    tr.counts["episodes.count"] += len(eps)
    tr.counts["episodes.censored"] += sum(e.censored for e in eps)
    _write(tr, cfg, "episodes", tr.call("episodes.episodes_to_rows", episodes_to_rows, path, eps))
    buckets = tr.call("episodes.bucket_stats", bucket_stats, eps,
                      bootstrap_B=cfg.bootstrap_b, seed=cfg.seed)
    tr.counts["resample.bootstrap_resamples"] += cfg.bootstrap_b * sum(b.ci_low is not None for b in buckets)
    _write(tr, cfg, "buckets", tr.call("episodes.bucket_rows_to_records", bucket_rows_to_records, buckets))
    _write(tr, cfg, "delta_sensitivity", tr.call("episodes.delta_sensitivity", delta_sensitivity, path))

    rets = tr.call("timeseries.log_returns", log_returns, path)
    vol = tr.call("timeseries.realized_vol", realized_vol, rets, window=21)
    valid = ~np.isnan(vol)
    cls = tr.call("regime.classify", classify, vol[valid], q=cfg.q)
    vol_rows = [
        {"date": str(path.dates[i + 1]), "realized_vol": float(vol[i]), "stress": int(cls.flags[j])}
        for j, i in enumerate(np.flatnonzero(valid))
    ]
    _write(tr, cfg, "volseries", vol_rows)


def _r3(tr: Tracer, cfg) -> None:
    path = _prices(tr, cfg)
    eps = tr.call("episodes.detect_episodes.series", detect_episodes, path,
                  delta=cfg.delta, allow_censored=True)
    completed = [e for e in eps if not e.censored]
    if len(completed) < 3:
        raise ValueError(f"r3: need >= 3 completed episodes, found {len(completed)}")
    fit = tr.call("econometrics.depth_regression", depth_regression, eps, lags=cfg.lags)
    rows = [{"variant": "full", **r} for r in fit.rows()]
    outliers = [e for e in completed if str(path.dates[e.peak_idx]).startswith("1980-11")]
    if outliers:
        reduced = [e for e in eps if e not in outliers]
        fit_x = tr.call("econometrics.depth_regression", depth_regression, reduced, lags=cfg.lags)
        rows += [{"variant": "excl_1980-11", **r} for r in fit_x.rows()]
    _write(tr, cfg, "r3_depth", rows)

    last_idx = len(path) - 1
    durations = [e.t_rec if not e.censored else last_idx - e.trough_idx for e in eps]
    events = [0 if e.censored else 1 for e in eps]
    cox = tr.call("survival.cox_fit", cox_fit, durations, events, [e.depth for e in eps])
    tr.counts["survival.cox_fit.iterations"] += cox.iterations
    _write(tr, cfg, "cox", [cox.row()])


def _null_study(tr: Tracer, spec: NullSpec, comparator: float) -> NullStudySummary:
    """run_null_study, one span per simulate_path and detect_episodes call."""
    m = spec.model
    medians: list[float] = []
    n_rejected = n_zero = 0
    with tr.span(f"nullmodels.run_null_study.{m}"):
        for i in range(spec.n_paths):
            path = tr.call(f"nullmodels.simulate_path.{m}", simulate_path, spec, i)
            if path is None:
                n_rejected += 1
                continue
            eps = tr.call("episodes.detect_episodes.null", detect_episodes, path, spec.delta)
            tr.counts["episodes.null_episodes"] += len(eps)
            if not eps:
                n_zero += 1
                continue
            medians.append(float(np.median([e.tau for e in eps])))
        n_accepted = spec.n_paths - n_rejected
        med_arr = np.array(medians)
        q05, q95 = np.percentile(med_arr, [5.0, 95.0])
        summary = NullStudySummary(
            model=m,
            n_accepted=n_accepted,
            n_zero_episode=n_zero,
            median_tau=float(np.median(med_arr)),
            q05=float(q05),
            q95=float(q95),
            p_one_sided=float(np.sum(med_arr >= comparator) / n_accepted),
            comparator=comparator,
        )
    tr.counts[f"nullmodels.paths.{m}"] += spec.n_paths
    tr.counts[f"nullmodels.paths_rejected.{m}"] += n_rejected
    tr.counts[f"nullmodels.steps.{m}"] += spec.n_paths * (spec.n_days - 1)
    tr.counts["episodes.null_accepted"] += n_accepted
    return summary


def _nulls(tr: Tracer, cfg, replay: Replay) -> None:
    models = list(cfg.models)
    returns = None
    if "block_bootstrap" in models:
        if cfg.price_path().exists():
            returns = tr.call("timeseries.log_returns", log_returns, _prices(tr, cfg))
        else:
            models.remove("block_bootstrap")
    rows = []
    for model in models:
        params = BlockBootstrapParams(returns=returns) if model == "block_bootstrap" else PARAMS[model]()
        spec = NullSpec(model=model, params=params, n_days=cfg.n_days, n_paths=cfg.n_paths,
                        seed=cfg.seed, delta=cfg.delta)
        row = _null_study(tr, spec, cfg.comparator).row()
        replay.null_studies.append((spec, cfg.comparator, row))
        rows.append(row)
    _write(tr, cfg, "nulls", rows)


def replay(argv: list[str], run_id: str) -> Replay:
    """Replay `regimelab <argv>` in this process; tables go to its --out."""
    rp = Replay(Tracer(run_id))
    tr = rp.tracer
    with tr.span("cli.main"):
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        if cfg.command == "run-all":
            _headline(tr, cfg)
            if cfg.price_path().exists():
                _episodes(tr, cfg)
                _r3(tr, cfg)
            _nulls(tr, cfg, rp)
        elif cfg.command == "nulls":
            _nulls(tr, cfg, rp)
        else:
            raise ValueError(f"no replay for command {cfg.command!r}")
    return rp


def null_fidelity_problems(rp: Replay) -> list[str]:
    """Replayed null rows that differ in any field from run_null_study's."""
    problems = []
    for spec, comparator, row in rp.null_studies:
        want = run_null_study(spec, comparator_tau=comparator).row()
        if row != want:
            problems.append(f"{spec.model}: replay row {row} != run_null_study row {want}")
    return problems


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one replay, except the tracing overhead."""
    dur = [end - start for _, start, end, _ in tr.spans]
    covered = [0.0] * len(dur)
    for (_, _, _, parent), d in zip(tr.spans, dur):
        if parent is not None:
            covered[parent] += d
    total: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    for (name, *_), d, c in zip(tr.spans, dur, covered):
        total[name] += d
        self_time[name.split(".", 1)[0]] += d - c

    c = tr.counts
    out = {name: total[span] for name, span in SPAN_METRICS.items()}
    out.update({name: float(c[name]) for name in COUNT_METRICS})
    for m in MODELS:
        busy, paths = total[f"nullmodels.simulate_path.{m}"], c[f"nullmodels.paths.{m}"]
        out[f"nullmodels.steps_per_s.{m}"] = c[f"nullmodels.steps.{m}"] / busy if busy else 0.0
        out[f"nullmodels.accept_ratio.{m}"] = (
            (paths - c[f"nullmodels.paths_rejected.{m}"]) / paths if paths else 0.0
        )
    studies = sum(total[f"nullmodels.run_null_study.{m}"] for m in MODELS)
    out["nullmodels.run_null_study.share"] = studies / total["cli.main"]
    accepted = c["episodes.null_accepted"]
    out["episodes.episodes_per_path"] = c["episodes.null_episodes"] / accepted if accepted else 0.0
    for layer in SPANNED_LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    out["cli.unaccounted_s"] = self_time["cli"]
    return out
