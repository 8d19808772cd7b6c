"""Selection, weighting, costs, the daily loop, and the metric block."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqrank import (
    BacktestConfig,
    JumpDiffusionConfig,
    PortfolioState,
    RankerState,
    compute_metrics,
    cw_weights,
    nbar_weights,
    run_backtest,
    select_decile,
    simulate_jump_diffusion,
    transaction_cost,
)
from seqrank.backtest import render_equity_csv, render_equity_svg

from conftest import constant_growth_panel, dominance_panel, panel_from_mids


def traced_ranker():
    return RankerState(3, 0.5).update([0.3, 0.1, 0.2])


class TestSelectDecile:
    def test_sp250_scale(self):
        scores = np.linspace(1, 0, 250)
        long_set, short_set = select_decile(scores, 0.1, "long-short")
        assert len(long_set) == 25 and len(short_set) == 25

    def test_strict_ordering(self):
        scores = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        long_set, short_set = select_decile(scores, 0.1, "long-short")
        assert long_set == [0] and short_set == [9]

    def test_tie_break_is_deterministic(self):
        long_set, short_set = select_decile(np.ones(10), 0.1, "long-short")
        assert long_set == [0] and short_set == [9]

    def test_long_only_has_no_short_set(self):
        assert select_decile(np.arange(10.0), 0.2, "long-only") == ([8, 9], [])

    def test_minimum_one_per_leg(self):
        long_set, short_set = select_decile([3.0, 1.0, 2.0], 0.1, "long-short")
        assert long_set == [0] and short_set == [1]

    @given(seed=st.integers(0, 10_000), d=st.integers(2, 40),
           frac=st.floats(0.05, 0.5))
    def test_legs_disjoint_and_sized(self, seed, d, frac):
        scores = np.random.default_rng(seed).normal(size=d)
        long_set, short_set = select_decile(scores, frac, "long-short")
        k = max(1, math.floor(d * frac))
        assert len(long_set) == k
        assert len(short_set) <= k
        assert not set(long_set) & set(short_set)

    def test_domain(self):
        with pytest.raises(ValueError):
            select_decile([1.0], 0.1, "long-only")
        with pytest.raises(ValueError):
            select_decile([1.0, 2.0], 0.6, "long-only")
        with pytest.raises(ValueError):
            select_decile([1.0, 2.0], 0.1, "sideways")


class TestWeights:
    def test_equal_weight_leg(self):
        state = cw_weights(250, list(range(25)), [])
        assert np.allclose(state.weights[:25], 0.04)
        assert state.weights[25:].sum() == 0.0

    def test_single_pair(self):
        state = cw_weights(4, [0], [1])
        assert np.array_equal(state.weights, [1.0, -1.0, 0.0, 0.0])

    def test_long_only_never_negative(self):
        state = cw_weights(6, [1, 4], [])
        assert (state.weights >= 0.0).all()

    def test_nbar_uniform_reduces_to_equal_weight(self):
        ranker = RankerState(6, 0.9)
        got = nbar_weights(ranker, [0, 3], [2, 5]).weights
        want = cw_weights(6, [0, 3], [2, 5]).weights
        assert np.allclose(got, want, atol=1e-12)

    def test_nbar_hand_trace_long(self):
        weights = nbar_weights(traced_ranker(), [0, 2], []).weights
        assert np.allclose(weights, [5 / 9, 0.0, 4 / 9], atol=1e-12)

    def test_nbar_singleton_legs(self):
        weights = nbar_weights(traced_ranker(), [1], [0]).weights
        assert np.allclose(weights, [-1.0, 1.0, 0.0], atol=1e-12)

    def test_legs_sum_to_one(self):
        rng = np.random.default_rng(0)
        ranker = RankerState(10, 0.99)
        for _ in range(30):
            ranker.update(rng.normal(size=10))
        state = nbar_weights(ranker, [0, 1, 2], [7, 8, 9])
        longs = state.weights[state.weights > 0]
        shorts = state.weights[state.weights < 0]
        assert longs.sum() == pytest.approx(1.0, abs=1e-12)
        assert shorts.sum() == pytest.approx(-1.0, abs=1e-12)
        assert np.abs(state.weights).sum() <= 2.0 + 1e-12


class TestTransactionCost:
    def test_no_rebalance_no_cost(self):
        w = PortfolioState(weights=np.array([0.5, 0.5]))
        assert transaction_cost(w, w, [0.01, 0.01]) == 0.0

    def test_entry_cost(self):
        prev = PortfolioState(weights=np.zeros(2))
        new = PortfolioState(weights=np.array([0.04, 0.0]))
        assert transaction_cost(prev, new, [0.01, 0.01]) == pytest.approx(4e-4, abs=1e-18)

    def test_flip_cost(self):
        prev = PortfolioState(weights=np.array([0.5]))
        new = PortfolioState(weights=np.array([-0.5]))
        assert transaction_cost(prev, new, [0.002]) == pytest.approx(0.002, abs=1e-18)

    def test_negative_rate_rejected(self):
        w = PortfolioState(weights=np.zeros(2))
        with pytest.raises(ValueError):
            transaction_cost(w, w, [-0.001, 0.0])


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
            gross = np.array([rec.gross_return for rec in report.records])
            cost = np.array([rec.cost for rec in report.records])
            assert np.allclose(gross, expected, atol=1e-12)
            assert np.all(cost == 0.0)  # zero spread panel

    def test_deterministic_panel_long_short_nets_to_zero(self):
        panel = constant_growth_panel(d=10, n_dates=40, rate=0.001)
        report = run_backtest(panel, BacktestConfig(mode="long-short"))
        gross = np.array([rec.gross_return for rec in report.records])
        assert np.allclose(gross, 0.0, atol=1e-14)

    def test_stable_membership_stops_paying_costs(self):
        # strict cross-sectional ordering keeps membership fixed once learned
        panel = dominance_panel(d=10, n_dates=60, spread=0.002)
        report = run_backtest(panel, BacktestConfig())
        costs = [rec.cost for rec in report.records]
        assert costs[0] > 0.0
        assert np.allclose(costs[10:], 0.0, atol=1e-15)

    def test_accounting_identity(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig(mode="long-short", strategy="nbar"))
        for rec in report.records:
            assert rec.net_return == rec.gross_return - rec.cost

    def test_zero_cost_model_matches_gross(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig(cost_model="zero"))
        for rec in report.records:
            assert rec.cost == 0.0
            assert rec.net_return == rec.gross_return

    def test_cost_model_changes_net_not_gross(self, noisy_panel):
        priced = run_backtest(noisy_panel, BacktestConfig(cost_model="half-spread"))
        free = run_backtest(noisy_panel, BacktestConfig(cost_model="zero"))
        for a, b in zip(priced.records, free.records):
            assert a.gross_return == b.gross_return
            assert a.net_return == b.net_return - a.cost

    def test_benchmark_is_cross_sectional_mean(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig())
        rets = noisy_panel.returns
        for i, bench in enumerate(report.benchmark_returns):
            assert bench == pytest.approx(rets[i + 1].mean(), abs=1e-12)

    def test_deterministic_reruns(self, noisy_panel):
        cfg = BacktestConfig(mode="long-short", strategy="nbar", nbar_input="realised")
        a = run_backtest(noisy_panel, cfg)
        b = run_backtest(noisy_panel, cfg)
        assert a.to_json_dict() == b.to_json_dict()

    def test_dominant_asset_gets_selected(self):
        panel = dominance_panel(d=8, n_dates=120)
        report = run_backtest(panel, BacktestConfig(strategy="nbar", nbar_input="realised"))
        # membership settles on the fastest-compounding asset
        later = report.records[20:]
        assert all(rec.n_long == 1 for rec in later)

    def test_short_leg_populated_in_long_short(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig(mode="long-short"))
        assert all(rec.n_short >= 1 for rec in report.records)

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
        n_days = len(report.records)
        assert sum(s["long"] for s in tallies.values()) == sum(r.n_long for r in report.records)
        assert sum(s["short"] for s in tallies.values()) == sum(r.n_short for r in report.records)
        assert n_days > 0

    def test_panel_too_short(self):
        with pytest.raises(ValueError, match="at least 4 dates"):
            run_backtest(constant_growth_panel(d=3, n_dates=3), BacktestConfig())
        report = run_backtest(constant_growth_panel(d=3, n_dates=4), BacktestConfig())
        assert len(report.records) == 2

    def test_membership_source_changes_selection(self, noisy_panel):
        by_p = run_backtest(noisy_panel, BacktestConfig(strategy="nbar", nbar_membership="by-p"))
        by_fc = run_backtest(
            noisy_panel, BacktestConfig(strategy="nbar", nbar_membership="by-forecast")
        )
        gross_p = [rec.gross_return for rec in by_p.records]
        gross_fc = [rec.gross_return for rec in by_fc.records]
        assert gross_p != gross_fc  # smoothed posterior and raw forecasts disagree

    def test_forecaster_runs_only_when_read(self, noisy_panel, monkeypatch):
        from seqrank import CurdsWheyState

        def refuse(self, x_t, y_t):
            raise AssertionError("forecaster stepped")

        step = CurdsWheyState.step
        monkeypatch.setattr(CurdsWheyState, "step", refuse)
        realised = BacktestConfig(strategy="nbar", nbar_input="realised", nbar_membership="by-p")
        report = run_backtest(noisy_panel, realised)
        assert len(report.records) == noisy_panel.returns.shape[0] - 1

        calls = []

        def counted(self, x_t, y_t):
            calls.append(self.t)
            return step(self, x_t, y_t)

        monkeypatch.setattr(CurdsWheyState, "step", counted)
        for config in (
            BacktestConfig(strategy="curds-whey"),
            BacktestConfig(strategy="nbar", nbar_input="forecasts"),
            BacktestConfig(strategy="nbar", nbar_input="realised", nbar_membership="by-forecast"),
        ):
            calls.clear()
            run_backtest(noisy_panel, config)
            assert len(calls) == noisy_panel.returns.shape[0] - 1

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
        assert float(last[1]) == pytest.approx(sum(r.net_return for r in report.records), abs=1e-12)
        assert float(last[2]) == pytest.approx(sum(report.benchmark_returns), abs=1e-12)

    def test_svg_contains_both_series(self, noisy_panel):
        report = run_backtest(noisy_panel, BacktestConfig())
        svg = render_equity_svg(report)
        assert svg.startswith("<svg") or svg.startswith('<svg xmlns') or "<svg" in svg
        assert svg.count("<polyline") == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BacktestConfig(mode="upside-down")
        with pytest.raises(ValueError):
            BacktestConfig(decile_fraction=0.9)
        with pytest.raises(ValueError):
            BacktestConfig(tau=0.0)
        with pytest.raises(ValueError):
            BacktestConfig(ridge_lambda=-1.0)
