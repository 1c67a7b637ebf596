"""Scores for probability series and electoral-vote density reports.

Two input shapes are scored.  A :class:`BinaryForecastSeries` is a dated
sequence of win probabilities judged against the realized 0/1 outcome
(Brier, log-likelihood).  A histogram forecast is a probability vector over
integer outcomes, here electoral votes 0..538, judged against the realized
bin (Selten, spherical, log, CDF).

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

import numpy as np

from .errors import ConfigurationError, ScoreError

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
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.probs.size and not (self.probs.min() >= 0.0 and self.probs.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class ScoreReport:
    """One scored (forecaster, metric, weighting) cell, optionally per state."""

    forecaster: str
    metric: str
    value: float
    weighting: str = WEIGHT_OVERALL
    state: str | None = None

    def to_row(self) -> dict:
        row = {
            "forecaster": self.forecaster,
            "metric": self.metric,
            "weighting": self.weighting,
            "value": self.value,
        }
        if self.state is not None:
            row["state"] = self.state
        return row


def _as_omegas(omega, n: int) -> np.ndarray:
    arr = np.asarray(omega, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ScoreError(f"realization length {arr.shape} != series length {n}")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ScoreError("binary realizations must be 0 or 1")
    return arr


def brier(series: BinaryForecastSeries, omega) -> float:
    """Sum of squared probability errors; 0 for a perfect forecaster.

    ``omega`` is the realized outcome, a single 0/1 applied to every date or
    a per-date sequence.
    """
    if len(series) == 0:
        raise ScoreError("Brier score of an empty series is undefined")
    w = _as_omegas(omega, len(series))
    return float(np.sum((w - series.probs) ** 2))


def log_likelihood(series: BinaryForecastSeries, omega) -> float:
    """Sum of log probabilities assigned to what happened; 0 is perfect.

    A reported 0 (or 1) probability on the wrong side returns the -inf
    sentinel with a :class:`HypersensitiveForecastWarning` instead of
    raising, so hard-line forecasters stay comparable.
    """
    if len(series) == 0:
        raise ScoreError("log-likelihood of an empty series is undefined")
    w = _as_omegas(omega, len(series))
    terms = w * series.probs + (1.0 - w) * (1.0 - series.probs)
    if np.any(terms <= 0.0):
        warnings.warn(
            f"{series.forecaster or 'forecaster'} assigned zero probability "
            "to the realized outcome; log-likelihood is -inf",
            HypersensitiveForecastWarning,
            stacklevel=2,
        )
        return float("-inf")
    return float(np.sum(np.log(terms)))


def _check_histogram(bins, tol: float = HISTOGRAM_TOL) -> np.ndarray:
    h = np.asarray(bins, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ScoreError("histogram must be a nonempty 1-D probability vector")
    # Written so that NaN, which fails every comparison, fails the checks.
    if not h.min() >= -tol:
        raise ScoreError("histogram has negative or NaN mass")
    total = float(h.sum())
    if not abs(total - 1.0) <= tol:
        raise ScoreError(f"histogram sums to {total!r}, not 1")
    return h


def _check_realized(h: np.ndarray, realized: int) -> int:
    realized = int(realized)
    if not 0 <= realized < h.size:
        raise ScoreError(f"realized bin {realized} outside [0, {h.size - 1}]")
    return realized


def selten(bins, realized: int) -> float:
    """Bin-wise Brier reward 2*p[realized] - sum(p^2), in [-1, 1].

    Bins are scored independently, so the result is blind to how far wrong
    mass sits from the realized bin.
    """
    h = _check_histogram(bins)
    i = _check_realized(h, realized)
    return float(2.0 * h[i] - np.dot(h, h))


def spherical(bins, realized: int) -> float:
    """p[realized] / ||p||_2, in [0, 1]."""
    h = _check_histogram(bins)
    i = _check_realized(h, realized)
    nrm = float(np.linalg.norm(h))
    if nrm == 0.0:
        raise ScoreError("spherical score undefined for a zero histogram")
    return float(h[i] / nrm)


def log_score(bins, realized: int) -> float:
    """log p[realized]; -inf when the realized bin got no mass."""
    h = _check_histogram(bins)
    i = _check_realized(h, realized)
    if h[i] <= 0.0:
        return float("-inf")
    return float(np.log(h[i]))


def cdf_score(bins, realized: int) -> float:
    """Integrated squared CDF error against the realized step function.

    sum_k (F(k) - [k >= realized])^2 over unit-width bins; 0 only for a
    point mass on the realized bin.  Equals the CRPS of the discrete
    distribution, so misses are penalized by distance.
    """
    h = _check_histogram(bins)
    i = _check_realized(h, realized)
    cdf = np.cumsum(h)
    step = (np.arange(h.size) >= i).astype(float)
    return float(np.sum((cdf - step) ** 2))


_BINARY_FNS = {METRIC_BRIER: brier, METRIC_LOGLIK: log_likelihood}
_DENSITY_FNS = {
    METRIC_SELTEN: selten,
    METRIC_SPHERICAL: spherical,
    METRIC_CDF: cdf_score,
    "log": log_score,
}


def aggregate_scores(
    reports: list[ScoreReport],
    weighting: str,
    ev_table: dict[str, int] | None = None,
) -> ScoreReport:
    """Average per-state reports, unweighted or by electoral votes.

    All inputs must share a metric (and forecaster).  Density metrics are
    single-event national scores and cannot be state-aggregated.
    """
    if not reports:
        raise ScoreError("cannot aggregate zero score reports")
    metrics = {r.metric for r in reports}
    if len(metrics) != 1:
        raise ScoreError(f"mixed metrics in aggregation: {sorted(metrics)}")
    metric = metrics.pop()
    if metric in DENSITY_METRICS and weighting != WEIGHT_OVERALL:
        raise ScoreError(f"{metric} supports only the overall weighting")
    forecasters = {r.forecaster for r in reports}
    forecaster = forecasters.pop() if len(forecasters) == 1 else ",".join(sorted(forecasters))

    values = np.array([r.value for r in reports], dtype=float)
    if weighting == WEIGHT_STATE_AVERAGE or weighting == WEIGHT_OVERALL:
        value = float(np.mean(values))
    elif weighting == WEIGHT_EV:
        if ev_table is None:
            raise ConfigurationError("EV weighting requires an EV table")
        weights = []
        for r in reports:
            if r.state is None or r.state not in ev_table:
                raise ConfigurationError(
                    f"report for {r.state!r} has no EV entry"
                )
            weights.append(ev_table[r.state])
        weights = np.array(weights, dtype=float)
        value = float(np.sum(weights * values) / np.sum(weights))
    else:
        raise ScoreError(f"unknown weighting {weighting!r}")
    return ScoreReport(forecaster=forecaster, metric=metric, value=value,
                       weighting=weighting)


def gaussian_histogram(mean: float, std: float, n_bins: int = 539) -> np.ndarray:
    """A Gaussian discretized onto unit-width integer bins and renormalized."""
    if std <= 0:
        raise ValueError("std must be positive")
    edges = np.arange(n_bins + 1) - 0.5
    cdf = np.array([0.5 * math.erfc((mean - x) / (std * math.sqrt(2))) for x in edges])
    h = np.diff(cdf)
    return h / h.sum()


#: Densities behind the score-shape comparison: Gaussians of varying center
#: and width on the EV axis.
def default_curve_family(n_bins: int = 539) -> list[tuple[str, np.ndarray]]:
    family = []
    for mean in (232, 269, 306):
        for std in (20, 45):
            family.append((f"mu{mean}_sd{std}", gaussian_histogram(mean, std, n_bins)))
    return family


def score_curves(metric: str, densities, realizations) -> np.ndarray:
    """Score each density at each hypothetical realization.

    ``densities`` is a sequence of (label, bins) pairs; the result has one
    row per realization and one column per density, suitable for plotting
    score shape against the outcome axis.
    """
    if metric not in _DENSITY_FNS:
        raise ScoreError(f"unknown density metric {metric!r}")
    fn = _DENSITY_FNS[metric]
    realizations = np.asarray(realizations, dtype=int)
    out = np.empty((realizations.size, len(densities)), dtype=float)
    for j, (_, bins) in enumerate(densities):
        for k, w in enumerate(realizations):
            out[k, j] = fn(bins, int(w))
    return out
