"""Selection, weighting, costs, the array backtest against its daily loop, and metrics."""

import dataclasses
import datetime as dt
import gc
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import seqrank.backtest as backtest
from seqrank import (
    BacktestConfig,
    BacktestError,
    CurdsWheyState,
    JumpDiffusionConfig,
    QuotePanel,
    RankerState,
    compute_metrics,
    run_backtest,
    simulate_jump_diffusion,
    weekday_range,
)
from seqrank.backtest import (
    COST_MODELS,
    MODES,
    NBAR_INPUTS,
    NBAR_MEMBERSHIPS,
    STRATEGIES,
    _SIGNALS,
    _forecast_matrix,
    _posterior_matrix,
    cw_weights,
    equity_rows,
    nbar_weights,
    render_equity_csv,
    render_equity_svg,
    select_decile,
    transaction_cost,
)

import backtest_oracle as oracle
from backtest_oracle import oracle_run_backtest

from conftest import constant_growth_panel, dominance_panel, fresh_copy, panel_from_mids


def legs(*rows):
    """A ``(days, k)`` leg array from one index list per day."""
    return np.array(rows, dtype=np.intp)


NO_LEG = legs([], [])

# posterior after one update at tau 0.5 from uniform on returns (0.3, 0.1, 0.2)
TRACED_P = RankerState(3, 0.5).update([0.3, 0.1, 0.2])


class TestSelectDecile:
    def test_sp250_scale(self):
        scores = np.linspace(1, 0, 250)
        longs, shorts = select_decile(np.stack([scores, scores[::-1]]), 0.1, "long-short")
        assert longs.shape == shorts.shape == (2, 25)
        assert np.array_equal(longs, [np.arange(25), np.arange(225, 250)])
        assert np.array_equal(shorts, [np.arange(225, 250), np.arange(25)])

    def test_strict_ordering(self):
        scores = np.array([[10, 9, 8, 7, 6, 5, 4, 3, 2, 1], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]], float)
        longs, shorts = select_decile(scores, 0.1, "long-short")
        assert longs.tolist() == [[0], [9]] and shorts.tolist() == [[9], [0]]

    def test_tie_break_is_deterministic(self):
        # ties go to the lower index: the head of a tie is long, its tail short
        scores = np.array([np.ones(10), [1, 1, 1, 1, 0, 0, 0, 0, 2, 2]])
        longs, shorts = select_decile(scores, 0.2, "long-short")
        assert longs.tolist() == [[0, 1], [8, 9]]
        assert shorts.tolist() == [[8, 9], [6, 7]]

    def test_long_only_has_no_short_set(self):
        longs, shorts = select_decile(np.array([np.arange(10.0), -np.arange(10.0)]), 0.2, "long-only")
        assert longs.tolist() == [[8, 9], [0, 1]]
        assert shorts.shape == (2, 0)

    def test_minimum_one_per_leg(self):
        longs, shorts = select_decile(np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]]), 0.1, "long-short")
        assert longs.tolist() == [[0], [2]] and shorts.tolist() == [[1], [0]]

    @given(seed=st.integers(0, 10_000), d=st.integers(2, 40), days=st.integers(1, 5),
           frac=st.floats(0.05, 0.5), ties=st.booleans())
    def test_legs_disjoint_and_sized(self, seed, d, days, frac, ties):
        scores = np.random.default_rng(seed).normal(size=(days, d))
        if ties:
            scores = scores.round()
        longs, shorts = select_decile(scores, frac, "long-short")
        k = max(1, math.floor(d * frac))
        assert longs.shape == shorts.shape == (days, k)
        for row, long_row, short_row in zip(scores, longs, shorts):
            assert not set(long_row) & set(short_row)
            assert (long_row.tolist(), short_row.tolist()) == oracle.select_decile(row, frac, "long-short")

    @pytest.mark.parametrize("kind", ["normal", "rounded", "all-equal", "signed-zeros", "mixed"])
    @pytest.mark.parametrize("mode", MODES)
    def test_paper_scale_blocks_match_the_stable_sort(self, kind, mode):
        # d = 250 and 64-day blocks, as the backtest calls it: rounded scores,
        # uniform posteriors and +-0.0 put many ties at the slice edges
        rng = np.random.default_rng(250)
        normal = rng.normal(size=(64, 250))
        scores = {
            "normal": normal,
            "rounded": normal.round(),
            "all-equal": np.full((64, 250), 1 / 250),
            "signed-zeros": rng.choice([0.0, -0.0], size=(64, 250)),
            "mixed": np.where(rng.random((64, 250)) < 0.5, rng.choice([0.0, -0.0, 1.0], size=(64, 250)), normal),
        }[kind]
        longs, shorts = select_decile(scores, 0.1, mode)
        assert longs.shape == (64, 25) and shorts.shape == (64, 25 if mode == "long-short" else 0)
        for row, long_row, short_row in zip(scores, longs, shorts):
            assert (long_row.tolist(), short_row.tolist()) == oracle.select_decile(row, 0.1, mode)

    @pytest.mark.parametrize("d", [3, 5, 7, 251])
    @pytest.mark.parametrize("mode", MODES)
    def test_half_at_odd_d(self, d, mode):
        # k = (d - 1) / 2 leaves one asset between the legs
        rng = np.random.default_rng(d)
        scores = np.vstack([rng.normal(size=(3, d)), rng.integers(0, 2, size=(3, d)), np.zeros((1, d))])
        longs, shorts = select_decile(scores, 0.5, mode)
        assert longs.shape[1] == d // 2
        for row, long_row, short_row in zip(scores, longs, shorts):
            assert (long_row.tolist(), short_row.tolist()) == oracle.select_decile(row, 0.5, mode)
            assert not set(long_row) & set(short_row)

    def test_long_short_needs_two_assets(self):
        with pytest.raises(ValueError, match="at least 2 assets"):
            select_decile(np.array([[1.0], [2.0]]), 0.5, "long-short")
        longs, shorts = select_decile(np.array([[1.0], [2.0]]), 0.5, "long-only")
        assert longs.tolist() == [[0], [0]] and shorts.shape == (2, 0)

    @pytest.mark.parametrize("fraction,mode", [(0.1, "long_only"), (0.6, "long-short"), (0.0, "long-only")])
    def test_rejects_bad_arguments(self, fraction, mode):
        with pytest.raises(ValueError, match="mode must be one of"):
            select_decile(np.zeros((2, 10)), fraction, mode)

    def test_non_finite_scores_rejected(self):
        scores = np.array([[1.0, 2.0, 3.0], [1.0, np.nan, 3.0]])
        with pytest.raises(ValueError, match="scores contain non-finite values"):
            select_decile(scores, 0.1, "long-only")


class TestWeights:
    def test_equal_weight_leg(self):
        weights = cw_weights(250, legs(range(25), range(225, 250)), NO_LEG)
        assert np.allclose(weights[0, :25], 0.04) and weights[0, 25:].sum() == 0.0
        assert np.allclose(weights[1, 225:], 0.04) and weights[1, :225].sum() == 0.0

    def test_single_pair(self):
        weights = cw_weights(4, legs([0], [3]), legs([1], [2]))
        assert np.array_equal(weights, [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]])

    def test_long_only_never_negative(self):
        assert (cw_weights(6, legs([1, 4], [0, 5]), NO_LEG) >= 0.0).all()

    def test_nbar_uniform_reduces_to_equal_weight(self):
        uniform = np.full((2, 6), 1 / 6)
        longs, shorts = legs([0, 3], [1, 2]), legs([2, 5], [0, 4])
        assert np.allclose(nbar_weights(uniform, longs, shorts), cw_weights(6, longs, shorts), atol=1e-12)
        weights = nbar_weights(np.full((2, 5), 0.2), legs([0, 2, 4], [1, 3, 4]), NO_LEG)
        assert np.allclose(weights[0, [0, 2, 4]], 1 / 3) and np.allclose(weights[1, [1, 3, 4]], 1 / 3)

    def test_nbar_hand_trace_long(self):
        assert np.allclose(TRACED_P, [5 / 12, 3 / 12, 4 / 12], atol=1e-12)
        posterior = np.stack([TRACED_P, np.full(3, 1 / 3)])
        weights = nbar_weights(posterior, legs([0, 2], [0, 2]), NO_LEG)
        assert np.allclose(weights, [[5 / 9, 0.0, 4 / 9], [0.5, 0.0, 0.5]], atol=1e-12)

    def test_nbar_hand_trace_short(self):
        posterior = np.stack([TRACED_P, TRACED_P])
        weights = nbar_weights(posterior, legs([0], [1]), legs([1, 2], [0, 2]))
        assert np.allclose(weights, [[1.0, -9 / 17, -8 / 17], [-7 / 15, 1.0, -8 / 15]], atol=1e-12)

    def test_nbar_singleton_legs(self):
        posterior = np.stack([TRACED_P, TRACED_P])
        weights = nbar_weights(posterior, legs([1], [2]), legs([0], [1]))
        assert np.allclose(weights, [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]], atol=1e-12)

    def test_nbar_short_weight_zero_for_certain_asset(self):
        # an asset with posterior 1 leaves every other long at 0, so the
        # legs overlap here to give the long leg a positive sum
        posterior = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        weights = nbar_weights(posterior, legs([0], [2]), legs([0, 1], [1, 2]))
        assert np.array_equal(weights, [[1.0, -1.0, 0.0], [0.0, -1.0, 1.0]])
        with pytest.raises(ValueError, match="short weights undefined"):
            nbar_weights(posterior, legs([0], [2]), legs([0], [2]))
        with pytest.raises(ValueError, match="selected posteriors sum to zero"):
            nbar_weights(posterior, legs([0], [0]), NO_LEG)

    def test_legs_sum_to_one(self):
        rng = np.random.default_rng(0)
        posterior = RankerState(10, 0.99).update(rng.normal(size=(30, 10)))
        weights = nbar_weights(posterior, *select_decile(posterior, 0.3, "long-short"))
        assert np.allclose(np.where(weights > 0, weights, 0.0).sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.where(weights < 0, weights, 0.0).sum(axis=1), -1.0, atol=1e-12)
        assert (np.abs(weights).sum(axis=1) <= 2.0 + 1e-12).all()

    @given(seed=st.integers(0, 10_000), d=st.integers(2, 30), days=st.integers(1, 70),
           frac=st.sampled_from([0.05, 0.1, 1 / 3, 0.5]), mode=st.sampled_from(MODES),
           ties=st.booleans())
    def test_rows_match_the_per_day_oracle(self, seed, d, days, frac, mode, ties):
        rng = np.random.default_rng(seed)
        rets = rng.normal(size=(days, d))
        posterior = RankerState(d, 0.9).update(rets.round() if ties else rets)
        longs, shorts = select_decile(posterior, frac, mode)
        cw, nbar = cw_weights(d, longs, shorts), nbar_weights(posterior, longs, shorts)
        for j, p in enumerate(posterior):
            long_set, short_set = oracle.select_decile(p, frac, mode)
            assert (longs[j].tolist(), shorts[j].tolist()) == (long_set, short_set)
            assert cw[j].tobytes() == oracle.cw_weights(d, long_set, short_set).tobytes()
            assert nbar[j].tobytes() == oracle.nbar_weights(p, long_set, short_set).tobytes()


class TestTransactionCost:
    def test_no_rebalance_no_cost(self):
        w = np.array([0.5, 0.5])
        cost, turnover = transaction_cost(w, np.stack([w, w]), np.full((2, 2), 0.01))
        assert cost.tolist() == [0.0, 0.0] and turnover.tolist() == [0.0, 0.0]

    def test_entry_cost(self):
        weights = np.array([[0.04, 0.0], [0.04, 0.0]])
        cost, turnover = transaction_cost(np.zeros(2), weights, np.full((2, 2), 0.01))
        assert cost.tolist() == pytest.approx([4e-4, 0.0], abs=1e-18)
        assert turnover.tolist() == [0.04, 0.0]

    def test_flip_cost(self):
        weights = np.array([[-0.5], [0.5]])
        cost, turnover = transaction_cost(np.array([0.5]), weights, np.array([[0.002], [0.001]]))
        assert cost.tolist() == pytest.approx([0.002, 0.001], abs=1e-18)
        assert turnover.tolist() == [1.0, 1.0]

    def test_no_rates_cost_nothing(self):
        cost, turnover = transaction_cost(np.zeros(2), np.array([[0.5, -0.5], [-0.5, 0.5]]), None)
        assert cost.tolist() == [0.0, 0.0] and turnover.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("d", [1, 2, 7, 250, 251])
    @pytest.mark.parametrize("days", [1, 64])
    def test_each_row_is_its_own_dot_product(self, d, days):
        # one stacked call must give each day the bits of its own product;
        # BLAS kernels treat the remainder lengths differently
        rng = np.random.default_rng(4)
        prev = rng.normal(size=d)
        weights = rng.normal(size=(days, d))
        rates = rng.uniform(0.0, 0.01, size=(days, d))
        cost, turnover = transaction_cost(prev, weights, rates)
        for j, (before, row) in enumerate(zip(np.vstack([prev, weights[:-1]]), weights)):
            assert cost[j].hex() == oracle.transaction_cost(before, row, rates[j]).hex()
            assert cost[j].hex() == float(rates[j] @ np.abs(row - before)).hex()
            assert turnover[j].hex() == float(np.abs(row - before).sum()).hex()

    @pytest.mark.parametrize("prev,new,rates,message", [
        ([0.0, 0.0], [[0.0, 0.0]], [[-0.001, 0.0]], "rates must be non-negative"),
        ([0.0, 0.0], [[0.0, 0.0], [0.0, float("nan")]], [[0.001, 0.001]] * 2, "weights contain non-finite"),
        ([0.0, 0.0], [[float("inf"), 0.0]], [[0.001, 0.001]], "weights contain non-finite"),
        ([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]], [[0.001, 0.001]], "share one length"),
        ([0.0], [[0.0, 0.0]], [[0.001, 0.001]], "share one length"),
        ([0.0, 0.0], [0.0, 0.0], [0.001, 0.001], "share one length"),
    ])
    def test_rejects(self, prev, new, rates, message):
        with pytest.raises(ValueError, match=message):
            transaction_cost(np.array(prev), np.array(new), np.array(rates))


class TestMetrics:
    def test_constant_series(self):
        block = compute_metrics(np.full(252, 0.001))
        assert block.total == pytest.approx(0.252, abs=1e-12)
        assert block.win_ratio == 1.0 and block.loss_ratio == 0.0
        assert block.max_drawdown == 0.0
        assert block.cagr == pytest.approx(1.001**252 - 1.0, abs=1e-12)
        assert block.sharpe is None
        assert block.prob_positive is None
        assert block.return_over_maxdd is None

    def test_alternating_series(self):
        r = np.tile([0.01, -0.01], 126)
        block = compute_metrics(r)
        assert abs(block.total) < 1e-12
        assert block.win_ratio == 0.5
        assert block.max_drawdown == pytest.approx(0.01, abs=1e-15)
        assert block.days == 252
        assert block.sharpe == pytest.approx(0.0, abs=1e-9)
        assert block.prob_positive == pytest.approx(0.5, abs=1e-9)

    def test_prob_positive_is_normal_cdf_of_sharpe(self):
        rng = np.random.default_rng(1)
        block = compute_metrics(rng.normal(0.001, 0.01, 500))
        assert block.prob_positive == pytest.approx(
            0.5 * (1.0 + math.erf(block.sharpe / math.sqrt(2.0))), abs=1e-12
        )

    def test_drawdown_from_initial_peak(self):
        block = compute_metrics([-0.02, 0.01, -0.03])
        # equity path 0, -0.02, -0.01, -0.04; peak stays at 0
        assert block.max_drawdown == pytest.approx(0.04, abs=1e-15)

    def test_win_plus_loss_is_one(self):
        rng = np.random.default_rng(2)
        block = compute_metrics(rng.normal(0, 0.01, 100))
        assert block.win_ratio + block.loss_ratio == pytest.approx(1.0, abs=1e-15)

    def test_quartiles_ordered(self):
        rng = np.random.default_rng(3)
        block = compute_metrics(rng.normal(0, 0.01, 300))
        assert block.min <= block.q25 <= block.median <= block.q75 <= block.max

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([0.01])

    def test_total_loss_day_leaves_cagr_undefined(self):
        block = compute_metrics([0.01, -1.5, 0.02])
        assert block.cagr is None
        assert block.total == pytest.approx(-1.47, abs=1e-12)


@pytest.fixture(scope="module")
def noisy_panel():
    return simulate_jump_diffusion(
        JumpDiffusionConfig(drift=0.0003, volatility=0.012, jump_intensity=0.02,
                            jump_stdev=0.03, n_steps=260, n_assets=8, seed=33)
    )


class TestRunBacktest:
    def test_deterministic_panel_long_only(self):
        panel = constant_growth_panel(d=10, n_dates=40, rate=0.001)
        expected = math.exp(0.001) - 1.0
        for strategy in ("curds-whey", "nbar"):
            report = run_backtest(panel, BacktestConfig(strategy=strategy, cost_model="half-spread"))
            assert np.allclose(report.gross, expected, atol=1e-12)
            assert np.all(report.cost == 0.0)  # zero spread panel

    def test_deterministic_panel_long_short_nets_to_zero(self):
        panel = constant_growth_panel(d=10, n_dates=40, rate=0.001)
        report = run_backtest(panel, BacktestConfig(mode="long-short"))
        assert np.allclose(report.gross, 0.0, atol=1e-14)

    def test_stable_membership_stops_paying_costs(self):
        # strict cross-sectional ordering keeps membership fixed once learned
        panel = dominance_panel(d=10, n_dates=60, spread=0.002)
        report = run_backtest(panel, BacktestConfig())
        costs = report.cost
        assert costs[0] > 0.0
        assert np.allclose(costs[10:], 0.0, atol=1e-15)

    def test_accounting_identity(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig(mode="long-short", strategy="nbar"))
        assert np.array_equal(report.net, report.gross - report.cost)

    def test_zero_cost_model_matches_gross(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig(cost_model="zero"))
        assert np.all(report.cost == 0.0)
        assert np.array_equal(report.net, report.gross)

    def test_cost_model_changes_net_not_gross(self, noisy_panel):
        priced = run_backtest(noisy_panel, BacktestConfig(cost_model="half-spread"))
        free = run_backtest(noisy_panel, BacktestConfig(cost_model="zero"))
        assert np.array_equal(priced.gross, free.gross)
        assert np.array_equal(priced.net, free.net - priced.cost)

    def test_benchmark_is_cross_sectional_mean(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig())
        rets = noisy_panel.returns
        for i, bench in enumerate(report.benchmark.tolist()):
            assert bench == pytest.approx(rets[i + 1].mean(), abs=1e-12)

    def test_deterministic_reruns(self, noisy_panel):
        cfg = BacktestConfig(mode="long-short", strategy="nbar", nbar_input="realised")
        a = run_backtest(noisy_panel, cfg)
        b = run_backtest(noisy_panel, cfg)
        assert a.to_json_dict() == b.to_json_dict()

    def test_dominant_asset_gets_selected(self):
        base = dominance_panel(d=8, n_dates=120)
        panel = QuotePanel(
            dates=base.dates, assets=base.assets, bids=base.bids, asks=base.asks,
            sectors=("lead",) + ("rest",) * 7,
        )
        report = run_backtest(panel, BacktestConfig(strategy="nbar", nbar_input="realised"))
        # the one long slot holds the fastest-compounding asset on every day
        assert report.n_long == 1
        assert report.sector_selection["lead"]["long"] == len(report.dates)

    def test_short_leg_populated_in_long_short(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig(mode="long-short"))
        assert report.n_short >= 1

    def test_sector_tallies(self):
        base = simulate_jump_diffusion(
            JumpDiffusionConfig(volatility=0.01, n_steps=80, n_assets=6, seed=2)
        )
        panel = type(base)(
            dates=base.dates, assets=base.assets, bids=base.bids, asks=base.asks,
            sectors=("tech", "tech", "energy", "energy", "health", "health"),
        )
        report = run_backtest(panel, BacktestConfig(mode="long-short"))
        tallies = report.sector_selection
        assert set(tallies) == {"tech", "energy", "health"}
        n_days = len(report.dates)
        assert sum(s["long"] for s in tallies.values()) == n_days * report.n_long
        assert sum(s["short"] for s in tallies.values()) == n_days * report.n_short
        assert n_days > 0

    def test_panel_too_short(self):
        with pytest.raises(ValueError, match="at least 4 dates"):
            run_backtest(constant_growth_panel(d=3, n_dates=3), BacktestConfig())
        report = run_backtest(constant_growth_panel(d=3, n_dates=4), BacktestConfig())
        assert len(report.dates) == len(report.net) == 2

    def test_membership_source_changes_selection(self, noisy_panel):
        by_p = run_backtest(noisy_panel, BacktestConfig(strategy="nbar", nbar_membership="by-p"))
        by_fc = run_backtest(
            noisy_panel, BacktestConfig(strategy="nbar", nbar_membership="by-forecast")
        )
        assert not np.array_equal(by_p.gross, by_fc.gross)  # smoothed posterior and raw forecasts disagree

    def test_forecaster_runs_only_when_read(self, noisy_panel, monkeypatch):
        from seqrank import CurdsWheyState

        def refuse(self, r):
            raise AssertionError("forecaster stepped")

        step = CurdsWheyState.step
        monkeypatch.setattr(CurdsWheyState, "step", refuse)
        realised = BacktestConfig(strategy="nbar", nbar_input="realised", nbar_membership="by-p")
        report = run_backtest(noisy_panel, realised)
        assert len(report.net) == noisy_panel.returns.shape[0] - 1

        calls = []

        def counted(self, r):
            calls.append(len(r))
            return step(self, r)

        monkeypatch.setattr(CurdsWheyState, "step", counted)
        for config in (
            BacktestConfig(strategy="curds-whey"),
            BacktestConfig(strategy="nbar", nbar_input="forecasts"),
            BacktestConfig(strategy="nbar", nbar_input="realised", nbar_membership="by-forecast"),
        ):
            # a fresh panel each time: the latest forecasts are kept per panel
            calls.clear()
            run_backtest(fresh_copy(noisy_panel), config)
            # one call folds in every booked day
            assert calls == [noisy_panel.returns.shape[0] - 1]

    def test_overflowing_panel_halts_with_diagnostic(self):
        from seqrank import BacktestError

        explosive = np.ones((20, 3))
        explosive[10:] = 1e300  # absurd quote blow-up drives the recursion non-finite
        panel = panel_from_mids(explosive)
        with np.errstate(all="ignore"):
            with pytest.raises(BacktestError, match="non-finite forecast"):
                run_backtest(panel, BacktestConfig())


class TestReportRendering:
    def test_equity_csv_is_cumulative(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig())
        lines = render_equity_csv(report).strip().splitlines()
        assert lines[0] == "date,cum_net_strategy,cum_net_benchmark"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(sum(report.net.tolist()), abs=1e-12)
        assert float(last[2]) == pytest.approx(sum(report.benchmark.tolist()), abs=1e-12)

    def test_svg_contains_both_series(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig())
        svg = render_equity_svg(report)
        assert svg.startswith("<svg") or svg.startswith('<svg xmlns') or "<svg" in svg
        assert svg.count("<polyline") == 2

    def test_svg_is_800_by_400_with_points_inside(self, noisy_panel):
        svg = render_equity_svg(run_backtest(noisy_panel, BacktestConfig()))
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="800" height="400" '
                              'viewBox="0 0 800 400">')
        points = [
            tuple(float(v) for v in pair.split(","))
            for line in re.findall(r'points="([^"]*)"', svg)
            for pair in line.split()
        ]
        assert points
        assert all(0.0 <= x <= 800.0 and 0.0 <= y <= 400.0 for x, y in points)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BacktestConfig(mode="upside-down")
        with pytest.raises(ValueError):
            BacktestConfig(decile_fraction=0.9)
        with pytest.raises(ValueError):
            BacktestConfig(tau=0.0)
        with pytest.raises(ValueError):
            BacktestConfig(ridge_lambda=-1.0)

    @pytest.mark.parametrize("ridge_lambda", [math.inf, math.nan])
    def test_non_finite_ridge_lambda_rejected(self, ridge_lambda):
        with pytest.raises(ValueError, match="ridge_lambda must be positive and finite"):
            BacktestConfig(ridge_lambda=ridge_lambda)


# returns from subnormal to 1e300, signed zeros among them; 200 of the
# largest still sum to a finite value
MIXED_RETURNS = st.one_of(
    st.floats(-1e-300, 1e-300),
    st.floats(-1.0, 1.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0]),
)


@pytest.fixture(scope="module")
def short_report():
    return run_backtest(constant_growth_panel(d=3, n_dates=4), BacktestConfig())


class TestLedgerColumns:
    """The daily ledger is a set of read-only columns, one entry per day."""

    def test_columns_are_read_only(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig(mode="long-short", strategy="nbar"))
        n_days = noisy_panel.n_dates - 2
        assert report.dates == noisy_panel.dates[1:-1]
        for name in ("gross", "cost", "net", "turnover", "benchmark"):
            column = getattr(report, name)
            assert column.shape == (n_days,), name
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    @given(net=st.lists(MIXED_RETURNS, min_size=2, max_size=200), data=st.data())
    def test_equity_rows_are_python_running_sums(self, short_report, net, data):
        benchmark = data.draw(st.lists(MIXED_RETURNS, min_size=len(net), max_size=len(net)))
        dates = weekday_range(dt.date(2021, 3, 1), len(net))
        report = dataclasses.replace(
            short_report, dates=dates, net=np.array(net), benchmark=np.array(benchmark)
        )
        want = []
        cum_net = cum_benchmark = 0.0
        for date, r, b in zip(dates, net, benchmark):
            cum_net += r
            cum_benchmark += b
            want.append((date.isoformat(), cum_net.hex(), cum_benchmark.hex()))
        assert [(day, s.hex(), b.hex()) for day, s, b in equity_rows(report)] == want


def report_text(report):
    """The report as exact text: ``repr`` round-trips floats and tells -0.0 from 0.0."""
    return json.dumps(report.to_json_dict(), sort_keys=True)


def assert_same_text(got, want):
    """Fail showing the first differing place; pytest's diff of two long texts is slow."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at {at}: {got[at - 80 : at + 40]!r} != {want[at - 80 : at + 40]!r}")


PRICE_KINDS = ("walk", "ticks", "shared")


def price_paths(kind, n, d, rng):
    """``(n, d)`` mids: a random walk, coarse tick prices, or two paths shared by all assets.

    The shared kind comes out column-major (indexing picks columns), so its
    panels test the per-day sums on rows that are not contiguous.
    """
    if kind == "walk":
        return 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, size=(n, d)), axis=0))
    if kind == "ticks":
        return rng.integers(1, 5, size=(n, d)).astype(float)
    paths = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, size=(n, 2)), axis=0))
    return paths[:, rng.integers(0, 2, size=d)]


@st.composite
def panels(draw, max_assets=12, max_dates=40):
    """Small panels: random walks, coarse tick prices, and assets that share one path.

    Tick prices and shared paths give equal returns across assets, so
    scores and posteriors tie.
    """
    d = draw(st.integers(2, max_assets), label="d")
    n = draw(st.integers(4, max_dates), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    mids = price_paths(draw(st.sampled_from(PRICE_KINDS), label="kind"), n, d, rng)
    spread = draw(st.sampled_from([0.0, 0.001, 0.01]), label="spread")
    half = 0.5 * spread * rng.uniform(0.5, 1.5, size=(n, d))
    sectors = None
    if draw(st.booleans(), label="sectors"):
        sectors = tuple(("tech", "energy", "health")[j] for j in rng.integers(0, 3, size=d))
    return QuotePanel(
        dates=weekday_range(dt.date(2021, 3, 1), n),
        assets=tuple(f"A{j:02d}" for j in range(d)),
        bids=mids * (1.0 - half),
        asks=mids * (1.0 + half),
        sectors=sectors,
    )


configs = st.builds(
    BacktestConfig,
    mode=st.sampled_from(MODES),
    strategy=st.sampled_from(STRATEGIES),
    decile_fraction=st.sampled_from([0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5]),
    tau=st.sampled_from([0.9, 0.99, 0.999, 1.0]),
    ridge_lambda=st.sampled_from([0.5, 1.0, 10.0]),
    nbar_input=st.sampled_from(NBAR_INPUTS),
    nbar_membership=st.sampled_from(NBAR_MEMBERSHIPS),
    cost_model=st.sampled_from(COST_MODELS),
)


def plant_nan(monkeypatch, at_step):
    """Make the forecaster's ``at_step``-th row (from 1) come out with a NaN forecast,
    in whichever ``step`` call folds it in."""
    step = CurdsWheyState.step

    def planted(self, r):
        first = self.t
        out = step(self, r)
        if first < at_step <= self.t:
            out.reshape(-1, self.d)[at_step - first - 1, -1] = np.nan
        return out

    monkeypatch.setattr(CurdsWheyState, "step", planted)


def count_steps(monkeypatch):
    """Count ``CurdsWheyState.step`` calls; returns the list of the rows each call folds in."""
    calls = []
    step = CurdsWheyState.step

    def counted(self, r):
        calls.append(len(np.reshape(r, (-1, self.d))))
        return step(self, r)

    monkeypatch.setattr(CurdsWheyState, "step", counted)
    return calls


class TestAgainstDailyLoop:
    """The array backtest against the per-day loop of ``backtest_oracle``, bit for bit."""

    @given(panel=panels(), config=configs)
    def test_reports_bit_identical(self, panel, config):
        with np.errstate(all="ignore"):
            try:
                want = report_text(oracle_run_backtest(panel, config))
            except BacktestError as exc:
                with pytest.raises(BacktestError, match=f"^{re.escape(str(exc))}$"):
                    run_backtest(panel, config)
                return
            assert_same_text(report_text(run_backtest(panel, config)), want)

    # numpy sorts fewer than 17 items by insertion, which is stable whatever
    # the kind asked for, so only d >= 40 shows an unstable sort on tied
    # scores; d = 251 is the paper's scale with a BLAS remainder length
    @pytest.mark.parametrize("d", [2, 3, 7, 11, 40, 251])
    @pytest.mark.parametrize("kind", PRICE_KINDS)
    def test_fixed_sizes_and_single_member_legs(self, d, kind):
        panel = panel_from_mids(price_paths(kind, 90, d, np.random.default_rng(d)), spread=0.004)
        # at tau = 1 the posterior stays uniform, so every by-p selection is a tie-break
        for strategy, nbar_input, tau in (
            ("curds-whey", "forecasts", 0.999),
            ("nbar", "forecasts", 0.999),
            ("nbar", "realised", 0.999),
            ("nbar", "realised", 1.0),
        ):
            config = BacktestConfig(mode="long-short", strategy=strategy, nbar_input=nbar_input, tau=tau)
            report = run_backtest(panel, config)
            assert_same_text(report_text(report), report_text(oracle_run_backtest(panel, config)))
            assert report.n_long == max(1, math.floor(d * 0.1))

    @pytest.mark.parametrize("at_step", [1, 5, 27])
    @pytest.mark.parametrize(
        "config",
        [
            BacktestConfig(),
            BacktestConfig(strategy="nbar", mode="long-short"),
            BacktestConfig(strategy="nbar", nbar_input="realised", nbar_membership="by-forecast"),
        ],
    )
    def test_planted_nonfinite_forecast_names_the_same_date(self, monkeypatch, at_step, config):
        panel = dominance_panel(d=5, n_dates=30, spread=0.002)
        plant_nan(monkeypatch, at_step)
        with pytest.raises(BacktestError) as want:
            oracle_run_backtest(panel, config)
        with pytest.raises(BacktestError) as got:
            run_backtest(panel, config)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"non-finite forecast at {panel.dates[at_step].isoformat()}"


def decisions(panel, config):
    """What ``run_backtest`` decided on each day, by field: the scores and
    legs ``select_decile`` saw and gave, the posterior ``nbar_weights`` saw,
    and the weights either weighting gave, one row per day."""
    seen = {"scores": [], "longs": [], "shorts": [], "posterior": [], "weights": []}

    def select(scores, fraction, mode):
        longs, shorts = select_decile(scores, fraction, mode)
        seen["scores"].append(scores)
        seen["longs"].append(longs)
        seen["shorts"].append(shorts)
        return longs, shorts

    def equal(d, longs, shorts):
        weights = cw_weights(d, longs, shorts)
        seen["weights"].append(weights)
        return weights

    def by_posterior(posterior, longs, shorts):
        weights = nbar_weights(posterior, longs, shorts)
        seen["posterior"].append(posterior)
        seen["weights"].append(weights)
        return weights

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backtest, "select_decile", select)
        patch.setattr(backtest, "cw_weights", equal)
        patch.setattr(backtest, "nbar_weights", by_posterior)
        run_backtest(panel, config)
    return {name: np.concatenate(values) for name, values in seen.items() if values}


class TestNoLookahead:
    """Returns after day t change nothing decided on or before day t."""

    @given(panel=panels(max_dates=30), config=configs, data=st.data())
    def test_perturbing_later_returns_keeps_earlier_decisions(self, panel, config, data):
        n_days = panel.returns.shape[0] - 1
        t = data.draw(st.integers(0, n_days - 1), label="t")
        factors = np.ones((panel.n_dates, 1))
        factors[t + 2 :] = np.random.default_rng(t).uniform(0.5, 2.0, size=(panel.n_dates - t - 2, 1))
        shifted = QuotePanel(
            dates=panel.dates,
            assets=panel.assets,
            bids=panel.bids * factors ** np.arange(1, panel.n_assets + 1),
            asks=panel.asks * factors ** np.arange(1, panel.n_assets + 1),
            sectors=panel.sectors,
        )
        assert np.array_equal(shifted.returns[: t + 1], panel.returns[: t + 1])
        with np.errstate(all="ignore"):
            try:
                before = decisions(panel, config)
                after = decisions(shifted, config)
            except BacktestError:
                return
        assert before.keys() == after.keys()
        assert ("posterior" in before) == (config.strategy == "nbar")
        for field in before:
            assert len(before[field]) == len(after[field]) == n_days, field
            assert before[field][: t + 1].tobytes() == after[field][: t + 1].tobytes(), field

    def test_perturbation_reaches_later_days(self):
        # the property above is not vacuous: a later change does move later scores
        panel = dominance_panel(d=6, n_dates=40)
        mids = panel.bids.copy()
        mids[30:, 2] *= 3.0
        shifted = panel_from_mids(mids)
        config = BacktestConfig(strategy="nbar", nbar_input="realised")
        before = decisions(panel, config)["scores"]
        after = decisions(shifted, config)["scores"]
        assert before[:29].tobytes() == after[:29].tobytes()
        assert not np.array_equal(before[29:], after[29:])


MEMO_CONFIGS = (
    BacktestConfig(mode="long-only", strategy="curds-whey"),
    BacktestConfig(mode="long-short", strategy="curds-whey", cost_model="zero"),
    BacktestConfig(mode="long-only", strategy="nbar"),
    BacktestConfig(mode="long-short", strategy="nbar", nbar_membership="by-forecast"),
    BacktestConfig(mode="long-short", strategy="nbar", nbar_input="realised"),
    BacktestConfig(mode="long-short", strategy="curds-whey", tau=0.99),
    BacktestConfig(mode="long-short", strategy="nbar", ridge_lambda=5.0),
    BacktestConfig(mode="long-short", strategy="nbar"),
    BacktestConfig(mode="long-only", strategy="nbar", nbar_input="realised", nbar_membership="by-forecast"),
    BacktestConfig(mode="long-only", strategy="nbar", nbar_input="realised", tau=0.99),
    BacktestConfig(mode="long-only", strategy="nbar", nbar_membership="by-forecast", cost_model="zero"),
)
# the sweep benchmark's five configurations
SWEEP_CONFIGS = (
    BacktestConfig(mode="long-only", strategy="curds-whey"),
    BacktestConfig(mode="long-short", strategy="curds-whey"),
    BacktestConfig(mode="long-only", strategy="nbar"),
    BacktestConfig(mode="long-short", strategy="nbar"),
    BacktestConfig(mode="long-short", strategy="nbar", nbar_input="realised"),
)


@pytest.fixture(scope="module")
def memo_panel():
    return simulate_jump_diffusion(
        JumpDiffusionConfig(drift=0.0003, volatility=0.012, jump_intensity=0.02,
                            jump_stdev=0.03, n_steps=80, n_assets=6, seed=5, spread=0.002)
    )


@pytest.fixture(scope="module")
def fresh_reports(memo_panel):
    return [report_text(run_backtest(fresh_copy(memo_panel), config)) for config in MEMO_CONFIGS]


def count_updates(monkeypatch):
    """Count ``RankerState.update`` calls; returns the list of the rows each call folds in."""
    calls = []
    update = RankerState.update

    def counted(self, performance):
        calls.append(len(performance))
        return update(self, performance)

    monkeypatch.setattr(RankerState, "update", counted)
    return calls


class TestForecastMemo:
    """``_SIGNALS`` keeps one signal entry per panel: the latest ``(tau, ridge_lambda)``'s
    forecasts and ranker posteriors, by name."""

    @given(order=st.permutations(range(len(MEMO_CONFIGS))))
    def test_any_order_on_one_panel_matches_fresh_panels(self, memo_panel, fresh_reports, order):
        panel = fresh_copy(memo_panel)
        for index in order:
            assert_same_text(report_text(run_backtest(panel, MEMO_CONFIGS[index])), fresh_reports[index])

    def test_memoised_signals_are_read_only(self, memo_panel):
        panel = fresh_copy(memo_panel)
        run_backtest(panel, BacktestConfig())
        key, signals = _SIGNALS[panel]
        forecasts = signals["forecasts"]
        assert key == (0.999, 1.0) and list(signals) == ["forecasts"]
        assert forecasts.shape == (panel.n_dates - 2, panel.n_assets)
        assert not forecasts.flags.writeable
        with pytest.raises(ValueError):
            forecasts[0, 0] = 0.0
        assert _forecast_matrix(panel, 0.999, 1.0) is forecasts

        for nbar_input in NBAR_INPUTS:
            config = BacktestConfig(strategy="nbar", nbar_input=nbar_input)
            run_backtest(panel, config)
            posterior = signals[f"posterior of {nbar_input}"]
            assert posterior.shape == (panel.n_dates - 2, panel.n_assets)
            assert not posterior.flags.writeable
            with pytest.raises(ValueError):
                posterior[0, 0] = 0.0
            assert _posterior_matrix(panel, config) is posterior
        assert _SIGNALS[panel][1] is signals and signals["forecasts"] is forecasts

    def test_four_forecast_columns_step_once_per_day(self, monkeypatch):
        # the sweep's scale in days; d = 3 keeps each step cheap
        panel = simulate_jump_diffusion(
            JumpDiffusionConfig(volatility=0.01, n_steps=2500, n_assets=3, seed=9, spread=0.001)
        )
        calls = count_steps(monkeypatch)
        for strategy in STRATEGIES:
            for mode in MODES:
                run_backtest(panel, BacktestConfig(mode=mode, strategy=strategy))
        run_backtest(panel, BacktestConfig(mode="long-short", strategy="nbar", nbar_input="realised"))
        # one call folds in each of the 2 499 days once
        assert calls == [2499]

    def test_sweep_runs_the_ranker_twice_then_never(self, monkeypatch):
        panel = simulate_jump_diffusion(
            JumpDiffusionConfig(volatility=0.01, n_steps=2500, n_assets=3, seed=9, spread=0.001)
        )
        calls = count_updates(monkeypatch)
        for config in SWEEP_CONFIGS:
            run_backtest(panel, config)
        # one pass over the forecasts and one over the realised returns, one
        # call each for all 2 499 days
        assert calls == [2499, 2499]
        calls.clear()
        for config in SWEEP_CONFIGS:
            run_backtest(panel, config)
        assert calls == []

    def test_second_key_replaces_the_first(self, memo_panel, monkeypatch):
        panel = fresh_copy(memo_panel)
        n_days = panel.n_dates - 2
        calls = count_steps(monkeypatch)
        run_backtest(panel, BacktestConfig(tau=0.999))
        run_backtest(panel, BacktestConfig(tau=0.99))
        assert _SIGNALS[panel][0] == (0.99, 1.0)
        run_backtest(panel, BacktestConfig(tau=0.99, strategy="nbar"))
        assert calls == [n_days] * 2
        run_backtest(panel, BacktestConfig(tau=0.999))
        assert calls == [n_days] * 3
        assert _SIGNALS[panel][0] == (0.999, 1.0)

    def test_new_key_drops_all_three_signals(self, memo_panel, monkeypatch):
        panel = fresh_copy(memo_panel)
        for nbar_input in NBAR_INPUTS:
            run_backtest(panel, BacktestConfig(strategy="nbar", nbar_input=nbar_input))
        key, signals = _SIGNALS[panel]
        assert sorted(signals) == ["forecasts", "posterior of forecasts", "posterior of realised"]
        updates = count_updates(monkeypatch)
        run_backtest(panel, BacktestConfig(strategy="nbar", ridge_lambda=2.0))
        assert len(updates) == 1
        key, signals = _SIGNALS[panel]
        assert key == (0.999, 2.0) and sorted(signals) == ["forecasts", "posterior of forecasts"]
        run_backtest(panel, BacktestConfig(tau=0.99))
        key, signals = _SIGNALS[panel]
        assert key == (0.99, 1.0) and list(signals) == ["forecasts"]
        run_backtest(panel, BacktestConfig(strategy="nbar", nbar_input="realised"))
        key, signals = _SIGNALS[panel]
        assert key == (0.999, 1.0) and list(signals) == ["posterior of realised"]
        assert len(updates) == 2

    def test_failed_pass_is_not_memoised(self, memo_panel, monkeypatch):
        panel = fresh_copy(memo_panel)
        run_backtest(panel, BacktestConfig(ridge_lambda=2.0))
        plant_nan(monkeypatch, 40)
        calls = count_steps(monkeypatch)
        for _ in range(2):
            with pytest.raises(BacktestError, match=f"at {panel.dates[40].isoformat()}$"):
                run_backtest(panel, BacktestConfig())
            assert panel not in _SIGNALS
        # the failed pass runs again in full
        assert calls == [panel.n_dates - 2] * 2

    def test_failed_ranker_pass_is_not_memoised(self, memo_panel, fresh_reports, monkeypatch):
        panel = fresh_copy(memo_panel)
        run_backtest(panel, BacktestConfig())
        forecasts = _SIGNALS[panel][1]["forecasts"]
        update = RankerState.update

        def failing(self, performance):
            # the whole pass runs, then fails before its result is stored
            update(self, performance)
            raise ValueError("planted")

        monkeypatch.setattr(RankerState, "update", failing)
        with pytest.raises(ValueError, match="planted"):
            run_backtest(panel, MEMO_CONFIGS[2])
        assert _SIGNALS[panel][1] == {"forecasts": forecasts}
        monkeypatch.setattr(RankerState, "update", update)
        assert_same_text(report_text(run_backtest(panel, MEMO_CONFIGS[2])), fresh_reports[2])

    def test_entry_goes_with_its_panel(self, memo_panel, monkeypatch):
        # an empty map of the memo's own type, so no other test's panel is in it
        signals = type(_SIGNALS)()
        monkeypatch.setattr(backtest, "_SIGNALS", signals)
        panel = fresh_copy(memo_panel)
        run_backtest(panel, BacktestConfig())
        assert list(signals) == [panel]
        ref = weakref.ref(panel)
        del panel
        gc.collect()
        assert ref() is None
        assert len(signals) == 0


class TestMemoryGuard:
    """One run stays within a few forecast-sized matrices of temporary memory.

    On the paper's panel (d = 250, 2 500 dates) one such matrix is 5 MB,
    and the CLI's peak, set by reading the CSV, sits about 19 MB above the
    memory in use once the panel is loaded: three matrices stay inside
    that headroom. The count includes the signals the run leaves in
    ``_SIGNALS``: the forecasts, and for nbar the ranker's posterior.
    Measured peaks: 2.3 matrices for curds-whey and 2.7 for nbar
    long/short at this size, 1.5 and 2.1 at the paper's size.
    """

    MATRICES = 3

    @pytest.mark.parametrize(
        "config",
        [BacktestConfig(), BacktestConfig(strategy="nbar", mode="long-short")],
    )
    def test_peak_below_three_matrices(self, config):
        rng = np.random.default_rng(12)
        d, n = 64, 400
        mids = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=(n, d)), axis=0))
        panel = panel_from_mids(mids, spread=0.002)
        run_backtest(fresh_copy(panel), config)  # first-call allocations outside the count
        tracemalloc.start()
        try:
            run_backtest(panel, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.MATRICES * (n - 1) * d * 8
