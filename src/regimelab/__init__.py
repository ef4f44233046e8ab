"""Regime-conditional exposure regressions, drawdown-recovery analysis, and null-model studies.

Each exported name is imported from its module on first access (PEP 562), so
importing the package, as the CLI does before it parses its flags, loads
neither numpy nor any layer.
"""

import importlib

__version__ = "0.1.0"

# the null models, in table order; nullmodels pairs each with its parameter class
MODELS = ("gbm", "asym_vol", "heston", "markov_rs", "block_bootstrap")

_EXPORTS = {
    "dataio": ("MonthlyPanel", "MonthlyTable", "PricePath", "build_panel", "load_exposure_csv",
               "load_monthly_csv", "load_price_csv", "write_table"),
    "econometrics": ("HeadlineFit", "RegressionFit", "depth_regression", "headline_regression", "ols_hac",
                     "robustness_sweep"),
    "episodes": ("BucketRow", "Episode", "bucket_stats", "delta_sensitivity", "detect_episodes",
                 "episode_arrays"),
    "intermediary": ("IntermediaryConfig", "SimulatedPanel", "simulate"),
    "nullmodels": ("AsymVolParams", "BlockBootstrapParams", "GbmParams", "HestonParams", "MarkovRsParams",
                   "NullSpec", "NullStudySummary", "run_null_study", "simulate_closes", "simulate_path"),
    "regime": ("RegimeClassification", "classify", "lag_flags"),
    "resample": ("derive_rng", "percentile_ci_median"),
    "survival": ("CoxFit", "cox_fit"),
    "timeseries": ("detrend", "log_returns", "realized_vol"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
