"""Regime-conditional exposure regressions, drawdown-recovery analysis, and null-model studies."""

from .dataio import (
    MonthlyPanel,
    MonthlyTable,
    PricePath,
    build_panel,
    load_exposure_csv,
    load_monthly_csv,
    load_price_csv,
    write_table,
)
from .econometrics import (
    HeadlineFit,
    RegressionFit,
    depth_regression,
    headline_regression,
    ols_hac,
    robustness_sweep,
)
from .episodes import (
    BucketRow,
    Episode,
    bucket_stats,
    delta_sensitivity,
    detect_episodes,
    episode_arrays,
)
from .intermediary import (
    IntermediaryConfig,
    SimulatedPanel,
    simulate,
)
from .nullmodels import (
    AsymVolParams,
    BlockBootstrapParams,
    GbmParams,
    HestonParams,
    MarkovRsParams,
    NullSpec,
    NullStudySummary,
    run_null_study,
    simulate_closes,
    simulate_path,
)
from .regime import RegimeClassification, classify, lag_flags
from .resample import derive_rng, percentile_ci_median
from .survival import CoxFit, cox_fit
from .timeseries import detrend, log_returns, realized_vol

__version__ = "0.1.0"
