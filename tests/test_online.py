"""Exponential-weights learner: updates, predictions, regret accounting."""

import dataclasses
import math

import numpy as np
import pytest

from statecast.online import (
    ExpertPanel,
    init,
    learning_rate,
    predict,
    quadratic_losses,
    regret_bound,
    run,
    trading_losses,
    update,
)


def panel_of(values, times=None):
    values = np.asarray(values, dtype=float)
    times = np.arange(len(values), dtype=float) if times is None else times
    names = [f"e{i}" for i in range(values.shape[1])]
    return ExpertPanel(names, times, values)


class TestInit:
    def test_uniform_start(self):
        state = init(4, 10)
        np.testing.assert_array_equal(state.weights, np.full(4, 0.25))
        assert state.round == 0

    def test_learning_rate_closed_form(self):
        # eta = sqrt(8 ln 2 / 8) = sqrt(ln 2)
        assert init(2, 8).eta == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-12)

    def test_single_expert_degenerates(self):
        state = init(1, 10)
        assert state.eta == 0.0
        np.testing.assert_array_equal(state.weights, [1.0])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            init(0, 5)
        with pytest.raises(ValueError):
            init(3, 0)


class TestPredict:
    def test_single_expert_identity(self):
        assert predict(init(1, 5), [0.37]) == 0.37

    def test_uniform_average(self):
        assert predict(init(2, 5), [0.2, 0.8]) == pytest.approx(0.5, abs=1e-15)

    def test_weighted_average(self):
        state = dataclasses.replace(init(2, 5), weights=np.array([0.9, 0.1]))
        assert predict(state, [1.0, 0.0]) == pytest.approx(0.9, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(init(2, 5), [0.2, 0.4, 0.6])

    def test_stays_within_expert_range(self):
        rng = np.random.default_rng(14)
        state = init(5, 20)
        for _ in range(10):
            preds = rng.uniform(0, 1, 5)
            state = update(state, rng.uniform(0, 1, 5))
            y = predict(state, preds)
            assert preds.min() - 1e-12 <= y <= preds.max() + 1e-12


class TestUpdate:
    def test_equal_losses_leave_weights(self):
        state = init(3, 9)
        after = update(state, [0.4, 0.4, 0.4])
        np.testing.assert_allclose(after.weights, state.weights, atol=1e-15)
        assert after.round == 1

    def test_huge_loss_kills_an_expert(self):
        state = init(2, 4)
        for _ in range(50):
            state = update(state, [0.0, 1.0])
        assert state.weights[1] < 1e-12
        assert state.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_expert_hand_values(self):
        state = dataclasses.replace(init(2, 4), eta=1.0)
        after = update(state, [0.0, 1.0])
        assert after.weights[0] == pytest.approx(0.7310585786300049, abs=1e-12)
        assert after.weights[1] == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            update(init(2, 4), [0.0, float("-inf")])

    def test_weights_stay_probability_vector(self):
        rng = np.random.default_rng(15)
        state = init(6, 30)
        for _ in range(30):
            state = update(state, rng.uniform(0, 1, 6))
            assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert state.weights.min() >= 0.0

    def test_weights_recoverable_from_cumulative_losses(self):
        rng = np.random.default_rng(16)
        state = init(4, 12)
        for _ in range(12):
            state = update(state, rng.uniform(0, 1, 4))
            shifted = -state.eta * (state.cumulative_losses - state.cumulative_losses.min())
            expected = np.exp(shifted)
            np.testing.assert_allclose(state.weights, expected / expected.sum(), atol=1e-12)


class TestRun:
    def test_identical_experts_zero_regret(self):
        T = 20
        values = np.tile([[0.6, 0.6, 0.6]], (T, 1))
        losses = np.tile([[0.3, 0.3, 0.3]], (T, 1))
        result = run(panel_of(values), losses)
        np.testing.assert_allclose(result.aggregate, 0.6, atol=1e-15)
        assert result.regret == pytest.approx(0.0, abs=1e-12)

    def test_constant_loss_gap_converges(self):
        T = 50
        values = np.tile([[0.9, 0.1]], (T, 1))
        losses = np.tile([[0.1, 0.9]], (T, 1))
        result = run(panel_of(values), losses)
        state = result.state
        # closed form: w2/w1 = exp(-eta * T * 0.8)
        expected_ratio = math.exp(-state.eta * T * 0.8)
        assert state.weights[1] / state.weights[0] == pytest.approx(expected_ratio, rel=1e-9)
        assert predict(state, [0.9, 0.1]) == pytest.approx(0.9, abs=1e-5)

    def test_prequential_first_prediction_uses_uniform_weights(self):
        values = np.array([[1.0, 0.0], [1.0, 0.0]])
        losses = np.array([[0.0, 1.0], [0.0, 1.0]])
        result = run(panel_of(values), losses)
        assert result.aggregate[0] == pytest.approx(0.5, abs=1e-15)
        assert result.aggregate[1] > 0.5  # weight has shifted to expert 0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        T, N = 15, 4
        values = rng.uniform(0, 1, (T, N))
        losses = rng.uniform(0, 1, (T, N))
        perm = np.array([2, 0, 3, 1])
        base = run(panel_of(values), losses)
        permuted = run(panel_of(values[:, perm]), losses[:, perm])
        np.testing.assert_allclose(permuted.aggregate, base.aggregate, atol=1e-12)
        np.testing.assert_allclose(permuted.state.weights, base.state.weights[perm], atol=1e-12)

    def test_zero_eta_gives_plain_mean(self):
        rng = np.random.default_rng(18)
        T, N = 10, 3
        values = rng.uniform(0, 1, (T, N))
        losses = rng.uniform(0, 1, (T, N))
        result = run(panel_of(values), losses)
        state = dataclasses.replace(init(N, T), eta=0.0)
        means = []
        for t in range(T):
            means.append(predict(state, values[t]))
            state = update(state, losses[t])
        np.testing.assert_allclose(means, values.mean(axis=1), atol=1e-12)

    def test_regret_bound_on_random_losses(self):
        N, T = 5, 100
        bound = regret_bound(N, T)
        rng = np.random.default_rng(19)
        for _ in range(50):
            losses = rng.uniform(0, 1, (T, N))
            values = rng.uniform(0, 1, (T, N))
            result = run(panel_of(values), losses)
            assert result.regret <= bound

    def test_regret_bound_on_switching_adversary(self):
        N, T = 5, 100
        losses = np.ones((T, N))
        for seg in range(N):
            losses[20 * seg:20 * (seg + 1), seg] = 0.0
        result = run(panel_of(np.full((T, N), 0.5)), losses)
        assert result.regret <= regret_bound(N, T)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            run(panel_of(np.full((5, 2), 0.5)), np.zeros((4, 2)))


class TestPanelValidation:
    def test_missing_values_rejected(self):
        values = np.array([[0.5, np.nan], [0.5, 0.5]])
        with pytest.raises(ValueError):
            panel_of(values)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            panel_of(np.array([[0.5, 1.2]]))


class TestLossBuilders:
    def test_quadratic_against_next_price(self):
        preds = np.array([[0.6, 0.2], [0.7, 0.3], [0.8, 0.4]])
        ref = np.array([0.5, 0.6, 0.7])
        losses = quadratic_losses(preds, ref)
        assert losses.shape == (2, 2)
        assert losses[0, 0] == pytest.approx(0.0, abs=1e-15)  # (0.6 - 0.6)^2
        assert losses[1, 1] == pytest.approx((0.3 - 0.7) ** 2, abs=1e-15)

    def test_trading_losses_bounded_and_oriented(self):
        rng = np.random.default_rng(20)
        preds = rng.uniform(0, 1, (30, 3))
        ref = rng.uniform(0, 1, 30)
        losses = trading_losses(preds, ref)
        assert losses.shape == (29, 3)
        assert losses.min() >= 0.0 and losses.max() <= 1.0
        # a profitable day (position and move both positive) means low loss
        preds2 = np.array([[1.0], [1.0]])
        ref2 = np.array([0.5, 0.9])
        assert trading_losses(preds2, ref2)[0, 0] < 0.5

    def test_learning_rate_matches_formula(self):
        assert learning_rate(5, 100) == pytest.approx(math.sqrt(8 * math.log(5) / 100), abs=1e-15)
