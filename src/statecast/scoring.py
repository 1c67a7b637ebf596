"""Scores for probability series and electoral-vote density reports.

Two input shapes are scored.  A :class:`BinaryForecastSeries` is a dated
sequence of win probabilities judged against the realized 0/1 outcome
(Brier, log-likelihood).  Each binary rule is written once, for a block of
series of one length, one row each; :func:`brier` and
:func:`log_likelihood` score one series as a block of one row.  A histogram
forecast is a probability vector over integer outcomes, here electoral
votes 0..538, judged against the realized bin (Selten, spherical, log,
CDF).  Each density scorer takes one realized bin and returns a float, or
an integer array of bins and returns an array of scores; a non-integer or
out-of-range bin is a :class:`ScoreError`.

Orientation is fixed per metric and never silently flipped: Brier and the
CDF score are penalties (lower is better); log-likelihood, Selten, and
spherical are rewards (higher is better).  The CDF score sums the squared
gap between the forecast CDF and the realized step function over unit-width
bins, which makes it equal to the CRPS of the discrete distribution and,
unlike the bin-by-bin scores, sensitive to how far mass sits from the
outcome.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigurationError, ScoreError
from .states import EV_BINS

METRIC_BRIER = "brier"
METRIC_LOGLIK = "loglik"
METRIC_SELTEN = "selten"
METRIC_SPHERICAL = "spherical"
METRIC_CDF = "cdf"

BINARY_METRICS = (METRIC_BRIER, METRIC_LOGLIK)
DENSITY_METRICS = (METRIC_SELTEN, METRIC_SPHERICAL, METRIC_CDF)

WEIGHT_OVERALL = "overall"
WEIGHT_STATE_AVERAGE = "state_average"
WEIGHT_EV = "ev_weighted"

#: Histograms must sum to 1 within this tolerance.
HISTOGRAM_TOL = 1e-9


class HypersensitiveForecastWarning(UserWarning):
    """A forecaster reported probability 0 or 1 and the outcome went the
    other way, so the log-likelihood is negative infinity."""


@dataclass
class BinaryForecastSeries:
    """One forecaster's dated win-probability series."""

    forecaster: str
    times: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.times.shape != self.probs.shape or self.times.ndim != 1:
            raise ValueError("times and probs must be 1-D and the same length")
        if not (self.times[1:] > self.times[:-1]).all():
            raise ValueError("times must be strictly increasing")
        if self.probs.size and not (self.probs.min() >= 0.0 and self.probs.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.times)


def _as_omega(omega) -> float:
    """The realized outcome, one number that is 0 or 1, as a float."""
    if isinstance(omega, Real) and omega in (0, 1):
        return float(omega)
    raise ScoreError(f"binary realization must be 0 or 1, got {omega!r}")


def _brier_block(probs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The Brier score of each row of ``probs``, a C-contiguous (series x
    dates) block of probabilities, against that row's realized 0/1 outcome
    in ``omega``.  numpy adds along the last axis of such a block exactly as
    it adds each row taken as a 1-D array, so a row scores the same bits in
    a block of any height."""
    return np.sum((omega[:, None] - probs) ** 2, axis=-1)


def _loglik_block(probs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The log-likelihood of each row of the block ``probs``, as
    :func:`_brier_block` takes it; a row with a zero-probability term sums
    to the -inf sentinel."""
    w = omega[:, None]
    terms = w * probs + (1.0 - w) * (1.0 - probs)
    with np.errstate(divide="ignore"):  # log(0) is the sentinel
        return np.sum(np.log(terms), axis=-1)


def _one_row(block, series: BinaryForecastSeries, omega, what: str) -> float:
    """``block``'s score of ``series`` against the outcome ``omega``."""
    if len(series) == 0:
        raise ScoreError(f"{what} of an empty series is undefined")
    return float(block(series.probs[None, :], np.array([_as_omega(omega)]))[0])


def _warn_zero_probability(forecaster: str, scores) -> None:
    """One :class:`HypersensitiveForecastWarning` naming ``forecaster`` if
    any of its ``scores`` is the -inf sentinel, which only a log-likelihood
    takes; shown at the line that called this function's caller."""
    if -math.inf in scores:
        warnings.warn(
            f"{forecaster or 'forecaster'} assigned zero probability "
            "to the realized outcome; log-likelihood is -inf",
            HypersensitiveForecastWarning,
            stacklevel=3,
        )


def brier(series: BinaryForecastSeries, omega) -> float:
    """Sum of squared probability errors; 0 for a perfect forecaster.

    ``omega`` is the realized 0/1 outcome, judged at every date.
    """
    return _one_row(_brier_block, series, omega, "Brier score")


def log_likelihood(series: BinaryForecastSeries, omega) -> float:
    """Sum of log probabilities assigned to the realized 0/1 outcome
    ``omega`` at every date; 0 is perfect.

    A reported 0 (or 1) probability on the wrong side returns the -inf
    sentinel with a :class:`HypersensitiveForecastWarning` instead of
    raising, so hard-line forecasters stay comparable.
    """
    score = _one_row(_loglik_block, series, omega, "log-likelihood")
    _warn_zero_probability(series.forecaster, (score,))
    return score


def _check_histogram(bins) -> np.ndarray:
    h = np.asarray(bins, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ScoreError("histogram must be a nonempty 1-D probability vector")
    # Written so that NaN, which fails every comparison, fails the checks.
    if not h.min() >= -HISTOGRAM_TOL:
        raise ScoreError("histogram has negative or NaN mass")
    total = float(h.sum())
    if not abs(total - 1.0) <= HISTOGRAM_TOL:
        raise ScoreError(f"histogram sums to {total!r}, not 1")
    return h


def _check_realized(h: np.ndarray, realized) -> np.ndarray:
    """``realized`` as integer bin index(es) of ``h``: one bin or an array."""
    i = np.asarray(realized)
    if i.dtype.kind not in "iu":
        raise ScoreError(f"realized bin {realized!r} is not an integer in [0, {h.size - 1}]")
    outside = (i < 0) | (i >= h.size)
    if outside.any():
        raise ScoreError(f"realized bin {i[outside].flat[0]} outside [0, {h.size - 1}]")
    return i


def selten(bins, realized):
    """Bin-wise Brier reward 2*p[realized] - sum(p^2), in [-1, 1].

    Bins are scored independently, so the result is blind to how far wrong
    mass sits from the realized bin.
    """
    h = _check_histogram(bins)
    return 2.0 * h[_check_realized(h, realized)] - np.dot(h, h)


def spherical(bins, realized):
    """p[realized] / ||p||_2, in [0, 1]."""
    h = _check_histogram(bins)
    return h[_check_realized(h, realized)] / float(np.linalg.norm(h))


def log_score(bins, realized):
    """log p[realized]; -inf when the realized bin got no mass."""
    h = _check_histogram(bins)
    i = _check_realized(h, realized)
    with np.errstate(divide="ignore"):
        return np.log(h[i])


def cdf_score(bins, realized):
    """Integrated squared CDF error against the realized step function.

    sum_k (F(k) - [k >= realized])^2 over unit-width bins; 0 only for a
    point mass on the realized bin.  Equals the CRPS of the discrete
    distribution, so misses are penalized by distance.  An array of
    realized bins makes one row of squared gaps per bin, each cell taken
    from the squared gaps of the two sides of the step.
    """
    h = _check_histogram(bins)
    i = _check_realized(h, realized)
    cdf = np.cumsum(h)
    return np.sum(np.where(np.arange(h.size) >= i[..., None], (cdf - 1.0) ** 2, cdf ** 2),
                  axis=-1)


#: Block scorers: ``fn(probs, omega)`` scores each row of a block.
_BINARY_FNS = {METRIC_BRIER: _brier_block, METRIC_LOGLIK: _loglik_block}
_DENSITY_FNS = {
    METRIC_SELTEN: selten,
    METRIC_SPHERICAL: spherical,
    METRIC_CDF: cdf_score,
    "log": log_score,
}


def aggregate_scores(scores: dict[str, float], weighting: str,
                     ev_table: dict[str, int]) -> float:
    """Average a forecaster's per-state scores, ``{state: score}``, plainly
    (``state_average``) or weighted by each state's electoral votes
    (``ev_weighted``), taking the states in the map's order.  States whose
    votes sum to 0 have no EV-weighted average."""
    if not scores:
        raise ScoreError("cannot aggregate zero state scores")
    values = np.array(list(scores.values()), dtype=float)
    if weighting == WEIGHT_STATE_AVERAGE:
        return float(np.mean(values))
    if weighting != WEIGHT_EV:
        raise ScoreError(f"unknown weighting {weighting!r}")
    missing = [state for state in scores if state not in ev_table]
    if missing:
        raise ConfigurationError(f"state {missing[0]!r} has no EV entry")
    weights = np.array([ev_table[state] for state in scores], dtype=float)
    if not weights.any():
        raise ScoreError(f"the electoral votes of {', '.join(scores)} sum to 0")
    return float(np.sum(weights * values) / np.sum(weights))


def gaussian_histogram(mean: float, std: float) -> np.ndarray:
    """A Gaussian discretized onto the unit-width EV bins 0..538 and
    renormalized."""
    if std <= 0:
        raise ValueError("std must be positive")
    edges = (np.arange(EV_BINS + 1) - 0.5).tolist()  # Python floats: the same IEEE results
    cdf = np.array([0.5 * math.erfc((mean - x) / (std * math.sqrt(2))) for x in edges])
    h = np.diff(cdf)
    return h / h.sum()


#: Densities behind the score-shape comparison: Gaussians of varying center
#: and width on the EV axis.
def default_curve_family() -> list[tuple[str, np.ndarray]]:
    family = []
    for mean in (232, 269, 306):
        for std in (20, 45):
            family.append((f"mu{mean}_sd{std}", gaussian_histogram(mean, std)))
    return family


def score_curves(metric: str, densities, realizations) -> np.ndarray:
    """Score each density at each hypothetical realization.

    ``densities`` is a sequence of (label, bins) pairs; the result has one
    row per realization and one column per density, suitable for plotting
    score shape against the outcome axis.
    """
    if metric not in _DENSITY_FNS:
        raise ScoreError(f"unknown density metric {metric!r}")
    if not densities:
        raise ScoreError("no densities to score")
    return np.column_stack([_DENSITY_FNS[metric](bins, realizations)
                            for _, bins in densities])
