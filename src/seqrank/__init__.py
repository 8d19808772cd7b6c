"""Sequential asset ranking, forecasting, diagnostics and backtesting."""

__version__ = "0.1.0"

from .backtest import (
    BacktestConfig,
    BacktestError,
    BacktestReport,
    MetricsBlock,
    compute_metrics,
    run_backtest,
)
from .ranker import RankerState, RankOutput
from .regression import CurdsWheyState, batch_ridge, batch_shrinkage
from .stats import (
    AdfResult,
    DegenerateDataError,
    LeveneResult,
    StationarityReport,
    TTestResult,
    adf_test,
    levene_test,
    monthly_stationarity_report,
    welch_t_test,
)
from .timeseries import (
    JumpDiffusionConfig,
    QuotePanel,
    build_panel,
    load_csv,
    simulate_jump_diffusion,
    weekday_range,
    write_csv,
)

__all__ = [
    "__version__",
    "BacktestConfig",
    "BacktestError",
    "BacktestReport",
    "MetricsBlock",
    "compute_metrics",
    "run_backtest",
    "RankerState",
    "RankOutput",
    "CurdsWheyState",
    "batch_ridge",
    "batch_shrinkage",
    "AdfResult",
    "DegenerateDataError",
    "LeveneResult",
    "StationarityReport",
    "TTestResult",
    "adf_test",
    "levene_test",
    "monthly_stationarity_report",
    "welch_t_test",
    "JumpDiffusionConfig",
    "QuotePanel",
    "build_panel",
    "load_csv",
    "simulate_jump_diffusion",
    "weekday_range",
    "write_csv",
]
