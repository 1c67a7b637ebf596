"""Scoring rules: frozen examples, algebraic identities, curve shapes."""

import math

import numpy as np
import pytest

from statecast.errors import ConfigurationError, ScoreError
from statecast.scoring import (
    WEIGHT_EV,
    WEIGHT_STATE_AVERAGE,
    BinaryForecastSeries,
    HypersensitiveForecastWarning,
    ScoreReport,
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
from statecast.states import default_ev_table

from propriety import propriety_violations


def series(probs, name="f"):
    return BinaryForecastSeries(name, np.arange(len(probs), dtype=float), probs)


def point_mass(i, n=539):
    h = np.zeros(n)
    h[i] = 1.0
    return h


class TestBrier:
    def test_perfect_forecaster(self):
        assert brier(series([1.0, 1.0, 1.0]), 1) == 0.0
        assert brier(series([0.0, 0.0]), 0) == 0.0

    def test_constant_half_with_alternating_outcomes(self):
        assert brier(series([0.5, 0.5, 0.5, 0.5]), [1, 0, 1, 0]) == 1.0

    def test_single_point(self):
        assert brier(series([0.7]), 1) == pytest.approx(0.09, abs=1e-12)

    def test_empty_series_undefined(self):
        with pytest.raises(ScoreError):
            brier(series([]), 1)

    def test_rejects_non_binary_omega(self):
        with pytest.raises(ScoreError):
            brier(series([0.5]), 0.3)


class TestLogLikelihood:
    def test_certain_and_right(self):
        assert log_likelihood(series([1.0, 1.0]), 1) == 0.0

    def test_two_half_probabilities(self):
        assert log_likelihood(series([0.5, 0.5]), 1) == pytest.approx(
            2 * math.log(0.5), abs=1e-12
        )

    def test_zero_probability_sentinel(self):
        with pytest.warns(HypersensitiveForecastWarning):
            value = log_likelihood(series([0.0]), 1)
        assert value == float("-inf")

    def test_one_probability_wrong_way(self):
        with pytest.warns(HypersensitiveForecastWarning):
            assert log_likelihood(series([1.0]), 0) == float("-inf")

    def test_segment_additivity(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.05, 0.95, 10)
        w = rng.integers(0, 2, 10)
        whole = log_likelihood(series(p), w)
        parts = log_likelihood(series(p[:4]), w[:4]) + log_likelihood(
            BinaryForecastSeries("f", np.arange(4, 10, dtype=float), p[4:]), w[4:]
        )
        assert whole == pytest.approx(parts, abs=1e-12)


class TestSelten:
    def test_point_mass_on_realized(self):
        assert selten(point_mass(232), 232) == 1.0

    def test_uniform_four_bins(self):
        assert selten(np.full(4, 0.25), 2) == pytest.approx(0.25, abs=1e-12)

    def test_split_mass_misses(self):
        h = np.zeros(539)
        h[226] = 0.5
        h[538] = 0.5
        assert selten(h, 227) == pytest.approx(-0.5, abs=1e-12)

    def test_blind_to_distance(self):
        # equally wrong whether the mass is adjacent or across the axis
        assert selten(point_mass(226), 227) == selten(point_mass(538), 227) == -1.0

    def test_one_hot_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            h = rng.dirichlet(np.ones(12))
            w = int(rng.integers(0, 12))
            onehot = np.zeros(12)
            onehot[w] = 1.0
            assert selten(h, w) == pytest.approx(
                1.0 - float(np.sum((onehot - h) ** 2)), abs=1e-12
            )

    def test_rejects_unnormalized(self):
        with pytest.raises(ScoreError):
            selten(np.full(4, 0.3), 1)


class TestSpherical:
    def test_point_mass(self):
        assert spherical(point_mass(100), 100) == 1.0

    def test_uniform(self):
        assert spherical(np.full(16, 1 / 16), 3) == pytest.approx(0.25, abs=1e-12)

    def test_two_bin_example(self):
        assert spherical(np.array([0.8, 0.2]), 0) == pytest.approx(
            0.9701425001453319, abs=1e-12
        )


class TestCdfScore:
    def test_point_mass_at_realization(self):
        assert cdf_score(point_mass(232), 232) == 0.0

    def test_distance_sensitivity(self):
        assert cdf_score(point_mass(226), 227) == 1.0
        assert cdf_score(point_mass(538), 227) == 311.0

    def test_half_mass_at_zero_and_two(self):
        h = np.zeros(3)
        h[0] = 0.5
        h[2] = 0.5
        assert cdf_score(h, 0) == pytest.approx(0.5, abs=1e-12)

    def test_crps_identity_on_random_histograms(self):
        # independent oracle: E|X - w| - E|X - X'| / 2 by direct double sums
        rng = np.random.default_rng(34)
        x = np.arange(539, dtype=float)
        dist = np.abs(np.subtract.outer(x, x))
        for _ in range(30):
            support = rng.choice(539, size=rng.integers(2, 40), replace=False)
            h = np.zeros(539)
            h[support] = rng.dirichlet(np.ones(len(support)))
            w = int(rng.integers(0, 539))
            crps = float(h @ np.abs(x - w)) - 0.5 * float(h @ dist @ h)
            assert cdf_score(h, w) == pytest.approx(crps, abs=1e-9)

    def test_moving_mass_away_increases_penalty(self):
        h = np.zeros(10)
        h[4] = 0.5
        h[6] = 0.5
        base = cdf_score(h, 2)
        worse = h.copy()
        worse[6] -= 0.25
        worse[8] += 0.25
        assert cdf_score(worse, 2) > base


class TestLogScore:
    def test_point_mass(self):
        assert log_score(point_mass(10, 20), 10) == 0.0

    def test_zero_bin_is_minus_inf(self):
        assert log_score(point_mass(10, 20), 11) == float("-inf")


class TestAggregateScores:
    def test_single_state_identity(self):
        report = ScoreReport("f", "brier", 0.42, state="OH")
        agg = aggregate_scores([report], WEIGHT_STATE_AVERAGE, default_ev_table())
        assert agg.value == 0.42
        assert agg.weighting == WEIGHT_STATE_AVERAGE

    def test_equal_scores_any_weighting(self):
        reports = [ScoreReport("f", "brier", 0.3, state=s) for s in ("CA", "WY")]
        ev = default_ev_table()
        assert aggregate_scores(reports, WEIGHT_STATE_AVERAGE, ev).value == pytest.approx(0.3)
        assert aggregate_scores(reports, WEIGHT_EV, ev).value == pytest.approx(0.3)

    def test_ev_weighted_ca_wy(self):
        reports = [ScoreReport("f", "brier", 0.0, state="CA"),
                   ScoreReport("f", "brier", 1.0, state="WY")]
        agg = aggregate_scores(reports, WEIGHT_EV, default_ev_table())
        assert agg.value == pytest.approx(3.0 / 58.0, abs=1e-12)

    def test_empty_undefined(self):
        with pytest.raises(ScoreError):
            aggregate_scores([], WEIGHT_STATE_AVERAGE)

    def test_mixed_metrics_rejected(self):
        reports = [ScoreReport("f", "brier", 0.1, state="CA"),
                   ScoreReport("f", "loglik", -0.1, state="WY")]
        with pytest.raises(ScoreError):
            aggregate_scores(reports, WEIGHT_STATE_AVERAGE)

    def test_density_metrics_only_overall(self):
        reports = [ScoreReport("f", "selten", 0.5, state="CA")]
        with pytest.raises(ScoreError):
            aggregate_scores(reports, WEIGHT_STATE_AVERAGE)

    def test_ev_weighting_needs_table(self):
        with pytest.raises(ConfigurationError):
            aggregate_scores([ScoreReport("f", "brier", 0.1, state="CA")], WEIGHT_EV)


class TestScoreCurves:
    def setup_method(self):
        self.density = [("g", gaussian_histogram(269, 40))]
        self.realizations = np.arange(539)

    def test_log_tail_is_parabolic(self):
        curve = score_curves("log", self.density, self.realizations)[:, 0]
        d2 = np.diff(curve, 2)[458:]
        assert np.all(d2 < 0)
        assert np.max(np.abs(d2 - d2.mean())) <= 0.15 * abs(d2.mean())

    def test_cdf_tail_is_linear(self):
        curve = score_curves("cdf", self.density, self.realizations)[:, 0]
        d1 = np.diff(curve)[460:]
        assert np.allclose(d1, 1.0, atol=1e-3)

    def test_selten_tail_is_flat(self):
        curve = score_curves("selten", self.density, self.realizations)[:, 0]
        assert np.max(np.abs(np.diff(curve)[460:])) <= 1e-6

    def test_unknown_metric(self):
        with pytest.raises(ScoreError):
            score_curves("nope", self.density, self.realizations)

    def test_gaussian_histogram_normalized(self):
        h = gaussian_histogram(269, 40)
        assert h.sum() == pytest.approx(1.0, abs=1e-12)
        assert h.min() >= 0.0


class TestProprietyCoarse:
    """Coarse-grid version of the acceptance propriety suite."""

    @pytest.mark.parametrize("metric", ["brier", "log", "selten", "spherical", "cdf"])
    def test_optimum_is_truth(self, metric):
        assert propriety_violations(metric, step=0.25) == []


class TestHistogramChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [selten, spherical, log_score, cdf_score])
    def test_non_finite_mass_rejected(self, fn, bad):
        h = np.full(4, 0.25)
        h[1] = bad
        with pytest.raises(ScoreError):
            fn(h, 0)

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.1])
    def test_series_rejects_non_probability(self, bad):
        with pytest.raises(ValueError):
            series([0.5, bad])
