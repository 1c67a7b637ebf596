"""Trading score: positions, mark-to-market, settlement, propriety."""

import numpy as np
import pytest

from statecast.errors import AlignmentError, StatecastError
from statecast.scoring import BinaryForecastSeries
from statecast.trading import (
    PositionSeries,
    mark_to_market,
    pair_trading_scores,
    positions,
    settle,
)


def fc(probs, times=None, name="a"):
    times = np.arange(len(probs), dtype=float) if times is None else times
    return BinaryForecastSeries(name, times, probs)


def ref(values, times=None):
    times = np.arange(len(values), dtype=float) if times is None else times
    return BinaryForecastSeries("market", times, values)


def trading_score(forecast, r, omega=None):
    """Settled cumulative P&L of trading the forecast against the reference."""
    return settle(mark_to_market(positions(forecast, r), r), omega=omega).total


class TestPositions:
    def test_zero_when_forecast_equals_reference(self):
        pos = positions(fc([0.4, 0.6, 0.5]), ref([0.4, 0.6, 0.5]))
        np.testing.assert_array_equal(pos.values, 0.0)

    def test_distance_from_reference(self):
        pos = positions(fc([0.8]), ref([0.6]))
        assert pos.values[0] == pytest.approx(0.2, abs=1e-12)

    def test_inner_join_on_dates(self):
        pos = positions(fc([0.7, 0.8], times=[1.0, 3.0]),
                        ref([0.5, 0.5, 0.5], times=[1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(pos.times, [1.0, 3.0])

    def test_disjoint_dates_error(self):
        with pytest.raises(AlignmentError):
            positions(fc([0.7], times=[1.0]), ref([0.5], times=[2.0]))

    def test_translation_leaves_positions_fixed(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.2, 0.7, 6)
        s = rng.uniform(0.2, 0.7, 6)
        base = positions(fc(a), ref(s))
        shifted = positions(fc(a + 0.2), ref(s + 0.2))
        np.testing.assert_allclose(shifted.values, base.values, atol=1e-12)

    def test_pair_positions_exactly_opposite(self):
        pnl_a, pnl_b = pair_trading_scores(fc([0.8], name="a"), fc([0.4], name="b"),
                                           omega=1.0)
        assert pnl_a.last_position == 0.2
        assert pnl_b.last_position == -0.2
        assert pnl_a.last_position == -pnl_b.last_position  # exact, not approximate
        # the settlement increments are opposite bit for bit
        assert pnl_a.increments[-1].tobytes() == (-pnl_b.increments[-1]).tobytes()


def mark_by_loop(pos, r):
    """Oracle for mark_to_market: walk the reference dates, re-striking the
    held position whenever a position date is passed."""
    by_time = dict(zip(pos.times.tolist(), pos.values.tolist()))
    start = int(np.searchsorted(r.times, pos.times[0]))
    held = by_time[float(r.times[start])]
    times, increments = [], []
    for i in range(start + 1, len(r.times)):
        times.append(float(r.times[i]))
        increments.append(held * float(r.probs[i] - r.probs[i - 1]))
        if float(r.times[i]) in by_time:
            held = by_time[float(r.times[i])]
    increments = np.array(increments, dtype=float)
    return (np.array(times, dtype=float), increments, np.cumsum(increments),
            held, float(r.probs[-1]), float(r.times[-1]))


class TestMarkToMarket:
    @pytest.mark.parametrize("case", ["gaps", "single_date", "every_date"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_date_loop_bit_for_bit(self, case, seed):
        rng = np.random.default_rng(seed)
        n = {"gaps": 12, "single_date": 1, "every_date": 9}[case]
        r = ref(rng.uniform(0.0, 1.0, n), times=np.arange(n) * 1.5 + 3.0)
        if case == "gaps":
            # reference dates before, between and after the position dates
            idx = np.sort(rng.choice(np.arange(2, 9), size=3, replace=False))
        else:
            idx = np.arange(n)
        pos = PositionSeries(r.times[idx], rng.uniform(-1.0, 1.0, idx.size))
        pnl = mark_to_market(pos, r)
        times, increments, cumulative, held, price, time = mark_by_loop(pos, r)
        assert pnl.times.tobytes() == times.tobytes()
        assert pnl.increments.tobytes() == increments.tobytes()
        assert pnl.cumulative.tobytes() == cumulative.tobytes()
        assert (pnl.last_position, pnl.last_price, pnl.last_time) == (held, price, time)
        assert np.float64(pnl.last_position).tobytes() == np.float64(held).tobytes()

    def test_constant_reference_earns_nothing(self):
        pos = positions(fc([0.8, 0.7, 0.9]), ref([0.6, 0.6, 0.6]))
        pnl = mark_to_market(pos, ref([0.6, 0.6, 0.6]))
        np.testing.assert_array_equal(pnl.increments, 0.0)
        assert pnl.total == 0.0
        assert not pnl.settled

    def test_single_step_increment(self):
        r = ref([0.6, 0.7])
        pnl = mark_to_market(positions(fc([0.8, 0.8]), r), r)
        assert pnl.increments[0] == pytest.approx(0.2 * 0.1, abs=1e-12)

    def test_constant_position_telescopes(self):
        # with the position held fixed, total = c * (s_T - s_0)
        values = np.array([0.3, 0.45, 0.40, 0.55, 0.62])
        r = ref(values)
        pos = PositionSeries(times=np.array([0.0]), values=np.array([0.25]))
        pnl = mark_to_market(pos, r)
        assert pnl.total == pytest.approx(0.25 * (values[-1] - values[0]), abs=1e-12)

    def test_refining_dates_changes_nothing(self):
        coarse = ref([0.3, 0.5, 0.8], times=[0.0, 2.0, 4.0])
        fine = ref([0.3, 0.41, 0.5, 0.66, 0.8], times=[0.0, 1.0, 2.0, 3.0, 4.0])
        forecast = fc([0.9, 0.7, 0.95], times=[0.0, 2.0, 4.0])
        total_coarse = mark_to_market(positions(forecast, coarse), coarse).total
        total_fine = mark_to_market(positions(forecast, fine), fine).total
        assert total_fine == pytest.approx(total_coarse, abs=1e-12)

    def test_cumulative_is_running_sum(self):
        r = ref([0.2, 0.5, 0.4, 0.7])
        pnl = mark_to_market(positions(fc([0.9, 0.8, 0.6, 0.9]), r), r)
        np.testing.assert_allclose(pnl.cumulative, np.cumsum(pnl.increments), atol=0)


class TestSettle:
    def test_one_period_case(self):
        r = ref([0.6])
        pnl = mark_to_market(positions(fc([0.8]), r), r)
        settled = settle(pnl, omega=1.0)
        assert settled.total == pytest.approx(0.2 * 0.4, abs=1e-12)
        assert settled.settled

    def test_double_settlement_rejected(self):
        r = ref([0.6, 0.7])
        settled = settle(mark_to_market(positions(fc([0.8, 0.8]), r), r), omega=1.0)
        with pytest.raises(StatecastError):
            settle(settled, omega=1.0)

    def test_settle_at_market_when_no_realization(self):
        r = ref([0.6, 0.9])
        pnl = mark_to_market(positions(fc([0.8, 0.8]), r), r)
        settled = settle(pnl)
        assert settled.total == pnl.total  # zero settlement increment
        assert settled.settled

    def test_pair_zero_sum_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = fc(rng.uniform(0.0, 1.0, n), name="a")
            b = fc(rng.uniform(0.0, 1.0, n), name="b")
            omega = float(rng.integers(0, 2))
            pnl_a, pnl_b = pair_trading_scores(a, b, omega=omega)
            assert pnl_a.total + pnl_b.total == 0.0  # exactly


class TestTradingScore:
    def test_zero_for_reference_hugger(self):
        values = np.array([0.4, 0.55, 0.62])
        assert trading_score(fc(values), ref(values), omega=1.0) == 0.0

    def test_three_step_direct_oracle(self):
        # always-right forecaster against a reference drifting toward 1
        s = np.array([0.6, 0.7, 0.9])
        total = trading_score(fc([1.0, 1.0, 1.0]), ref(s), omega=1.0)
        oracle = sum((1.0 - s[t]) * (s[t + 1] - s[t]) for t in range(2))
        oracle += (1.0 - s[-1]) * (1.0 - s[-1])
        assert total == pytest.approx(oracle, abs=1e-12)
        assert total >= 0.0

    def test_partial_score_available_before_settlement(self):
        s = np.array([0.5, 0.6, 0.8])
        pnl = mark_to_market(positions(fc([0.9, 0.9, 0.9]), ref(s)), ref(s))
        assert len(pnl.cumulative) == 2  # a standing score at every mark date
        assert not pnl.settled

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    def test_expected_score_maximized_at_truth(self, p):
        # exact expectation over omega ~ Bernoulli(p) of the one-period
        # pair-mode settled score, maximized over the report grid
        grid = np.round(np.arange(0.0, 1.0001, 0.01), 2)
        b = fc([0.5], name="b")

        def expected(a_val):
            pnl1, _ = pair_trading_scores(fc([a_val]), b, omega=1.0)
            pnl0, _ = pair_trading_scores(fc([a_val]), b, omega=0.0)
            return p * pnl1.total + (1.0 - p) * pnl0.total

        scores = np.array([expected(a) for a in grid])
        assert abs(grid[int(np.argmax(scores))] - p) <= 0.01 + 1e-12

    def test_pair_mean_reference_kind(self):
        # the pair trades against its mean, 0.6 then 0.4
        pnl_a, _ = pair_trading_scores(fc([0.8, 0.6]), fc([0.4, 0.2], name="b"))
        assert pnl_a.last_price == pytest.approx(0.4, abs=1e-12)
        assert pnl_a.increments[0] == pytest.approx(0.2 * (0.4 - 0.6), abs=1e-12)


class TestReferenceChecks:
    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.1])
    def test_rejects_non_probability(self, bad):
        with pytest.raises(ValueError):
            ref([0.5, bad])
