"""Election forecasting, forecast scoring, and forecast combination.

The pipeline: ingest polls, smooth the national spread with a Gaussian
kernel, regress each state on the smoothed national series (falling back to
historical elections where polls are thin), diffuse the national spread over
the remaining days as a driftless Brownian motion, and compute the
electoral college (Gaussian state noise) or Monte Carlo it (Student-T).
Around it: proper scoring rules for probability series and EV histograms,
an ex-ante mark-to-market trading score, and exponential-weights expert
aggregation with a regret guarantee.
"""

from .calibration import (
    MIN_POLLS,
    MarketCalibration,
    StateCalibration,
    calibrate_from_historical,
    calibrate_market,
    calibrate_state,
    calibrate_states,
)
from .errors import (
    AlignmentError,
    CalibrationError,
    ConfigurationError,
    DegenerateDesignError,
    IngestError,
    InsufficientDataError,
    ScoreError,
    StatecastError,
)
from .ingest import (
    Polls,
    SmoothedSeries,
    load_historical,
    parse_polls,
    smooth_national,
    to_spreads,
)
from .online import (
    LearnerState,
    OnlineRunResult,
    learning_rate,
    regret_bound,
)
from .scoring import (
    BinaryForecastSeries,
    aggregate_scores,
    brier,
    cdf_score,
    gaussian_histogram,
    log_likelihood,
    log_score,
    score_curves,
    selten,
    spherical,
)
from .simulation import (
    ForecastDistribution,
    SimulationConfig,
    gaussian_days,
    probability_time_series,
    run_forecast,
    sample_state_noise,
    simulate_market_terminals,
    simulate_paths,
)
from .states import STATE_CODES, default_ev_table, load_ev_table
from .trading import (
    PnLSeries,
    mark_to_market,
    pair_trading_scores,
    positions,
    settle,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BinaryForecastSeries",
    "CalibrationError",
    "ConfigurationError",
    "DegenerateDesignError",
    "ForecastDistribution",
    "IngestError",
    "InsufficientDataError",
    "LearnerState",
    "MarketCalibration",
    "MIN_POLLS",
    "OnlineRunResult",
    "PnLSeries",
    "Polls",
    "ScoreError",
    "SimulationConfig",
    "SmoothedSeries",
    "STATE_CODES",
    "StateCalibration",
    "StatecastError",
    "aggregate_scores",
    "brier",
    "calibrate_from_historical",
    "calibrate_market",
    "calibrate_state",
    "calibrate_states",
    "cdf_score",
    "default_ev_table",
    "gaussian_days",
    "gaussian_histogram",
    "learning_rate",
    "load_ev_table",
    "load_historical",
    "log_likelihood",
    "log_score",
    "mark_to_market",
    "pair_trading_scores",
    "parse_polls",
    "positions",
    "probability_time_series",
    "regret_bound",
    "run_forecast",
    "sample_state_noise",
    "score_curves",
    "selten",
    "settle",
    "simulate_market_terminals",
    "simulate_paths",
    "smooth_national",
    "spherical",
    "to_spreads",
]
