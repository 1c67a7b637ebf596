"""Exponential-weights combination of expert probability forecasts.

Weights start uniform and each expert is reweighted by exp(-eta * its
cumulative loss), with eta = sqrt(8 ln N / T) for N experts over a horizon
of T rounds.  The aggregate prediction each round is the weight-averaged
expert prediction, emitted before that round's losses are observed.  For
per-round losses in [0, 1] the learner's cumulative (weight-averaged) loss
exceeds the best single expert's by at most sqrt(T/2 * ln N).

Losses are supplied by the caller; builders for the two standard choices are
here: squared error against the next day's reference price, and the
negated daily trading-P&L increment mapped affinely onto [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ExpertPanel:
    """Aligned expert predictions: one row per date, one column per expert."""

    names: list[str]
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape != (len(self.times), len(self.names)):
            raise ValueError("values must be (n_dates, n_experts)")
        if len(self.names) < 1:
            raise ValueError("panel needs at least one expert")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("dates must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("panel has missing/non-finite predictions after alignment")
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise ValueError("predictions must lie in [0, 1]")

    @property
    def n_experts(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class LearnerState:
    """Weights, cumulative losses, and the learning rate after some rounds.

    Weights are always recoverable from the cumulative losses alone:
    w_i proportional to exp(-eta * L_i) over a uniform start.
    """

    weights: np.ndarray
    cumulative_losses: np.ndarray
    eta: float
    round: int


def learning_rate(n_experts: int, horizon: int) -> float:
    """eta = sqrt(8 ln N / T); 0 for a single expert (ln 1 = 0)."""
    return math.sqrt(8.0 * math.log(n_experts) / horizon)


def regret_bound(n_experts: int, horizon: int) -> float:
    """Guaranteed ceiling sqrt(T/2 * ln N) for per-round losses in [0, 1]."""
    return math.sqrt(horizon / 2.0 * math.log(n_experts))


def init(n_experts: int, horizon: int) -> LearnerState:
    """Uniform weights over the experts and the horizon-tuned rate."""
    if n_experts < 1:
        raise ValueError("need at least one expert")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return LearnerState(
        weights=np.full(n_experts, 1.0 / n_experts),
        cumulative_losses=np.zeros(n_experts),
        eta=learning_rate(n_experts, horizon),
        round=0,
    )


def predict(state: LearnerState, expert_predictions) -> float:
    """Weight-averaged prediction; lies between the expert extremes."""
    preds = np.asarray(expert_predictions, dtype=float)
    if preds.shape != state.weights.shape:
        raise ValueError(
            f"{preds.shape[0] if preds.ndim else 0} predictions for "
            f"{state.weights.shape[0]} experts"
        )
    return float(np.dot(state.weights, preds))


def update(state: LearnerState, per_round_losses) -> LearnerState:
    """Fold one round of losses into the cumulative record and reweight.

    Weights are recomputed from scratch as exp(-eta * cumulative), shifted
    by the running minimum for stability, so equal losses leave them
    untouched.  Non-finite losses are rejected; clamp sentinels (e.g. -inf
    log scores) before calling.
    """
    losses = np.asarray(per_round_losses, dtype=float)
    if losses.shape != state.cumulative_losses.shape:
        raise ValueError("loss vector length does not match expert count")
    if not np.all(np.isfinite(losses)):
        raise ValueError("per-round losses must be finite")
    cumulative = state.cumulative_losses + losses
    shifted = -state.eta * (cumulative - cumulative.min())
    w = np.exp(shifted)
    return LearnerState(
        weights=w / w.sum(),
        cumulative_losses=cumulative,
        eta=state.eta,
        round=state.round + 1,
    )


@dataclass
class OnlineRunResult:
    """Aggregate prediction series, final state, and realized regret."""

    aggregate: np.ndarray
    state: LearnerState
    regret: float
    learner_losses: np.ndarray


def run(panel: ExpertPanel, losses) -> OnlineRunResult:
    """Run the full prequential loop over a panel.

    ``losses`` is (n_rounds, n_experts) and must match the panel row for
    row: the round-t aggregate is emitted from the pre-round weights, the
    learner is charged the weight-averaged round-t loss, and only then are
    the losses folded in.  The learning rate is tuned to the number of
    rounds (at least 1).  Regret is the learner's cumulative loss minus the
    best expert's.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or losses.shape != (len(panel.times), panel.n_experts):
        raise ValueError(
            f"losses shape {losses.shape} does not match panel "
            f"{(len(panel.times), panel.n_experts)}"
        )
    n_rounds = losses.shape[0]
    state = init(panel.n_experts, max(n_rounds, 1))
    aggregate = np.empty(n_rounds)
    learner_losses = np.empty(n_rounds)
    for t in range(n_rounds):
        aggregate[t] = predict(state, panel.values[t])
        learner_losses[t] = float(np.dot(state.weights, losses[t]))
        state = update(state, losses[t])
    best = float(state.cumulative_losses.min()) if n_rounds else 0.0
    regret = float(learner_losses.sum() - best)
    return OnlineRunResult(aggregate=aggregate, state=state, regret=regret,
                           learner_losses=learner_losses)


def quadratic_losses(predictions: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Squared error of each day's prediction against the next day's price.

    Shapes (T, N) and (T,) give (T-1, N): the last day has no next price.
    """
    predictions = np.asarray(predictions, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return (predictions[:-1] - reference[1:, None]) ** 2


def trading_losses(predictions: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-round trading loss: the negated daily P&L increment in [0, 1].

    The day-t position prediction - reference earns (s_{t+1} - s_t) per
    unit; the raw increment lies in [-1, 1] and is mapped by
    (1 - increment) / 2 so the regret bound's [0, 1] premise holds.
    """
    predictions = np.asarray(predictions, dtype=float)
    reference = np.asarray(reference, dtype=float)
    increments = (predictions[:-1] - reference[:-1, None]) * np.diff(reference)[:, None]
    return (1.0 - increments) / 2.0
