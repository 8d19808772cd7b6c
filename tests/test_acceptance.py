"""Acceptance gates: end-to-end checks at fixed tolerances.

Every test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline) and then asserts, so the suite doubles as a verification report.
"""

import time

import numpy as np
import pytest

from seqrank import (
    BacktestConfig,
    CurdsWheyState,
    JumpDiffusionConfig,
    RankerState,
    adf_test,
    batch_ridge,
    batch_shrinkage,
    levene_test,
    monthly_stationarity_report,
    run_backtest,
    simulate_jump_diffusion,
    welch_t_test,
)
from seqrank.cli import main as cli_main

from conftest import drift_switch_panel


def gate(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_ranker_hand_trace_single_update():
    RankerState(3, 0.5).update([1.0, 2.0, 3.0])  # warm numpy paths before timing
    state = RankerState(3, 0.5)
    start = time.perf_counter()
    state.update([0.3, 0.1, 0.2])
    elapsed = time.perf_counter() - start
    p_err = np.abs(state.p - np.array([5 / 12, 1 / 4, 1 / 3])).max()
    order_ok = np.array_equal(state.rank(), [0, 2, 1])
    gate(
        "ranker hand trace, one update",
        p_err < 1e-12 and order_ok and elapsed < 1e-3,
        f"posterior err {p_err:.1e}, {elapsed * 1e6:.0f} us",
    )


def test_ranker_conservation_and_bounds_bulk():
    d, tau, steps = 50, 0.999, 100_000
    state = RankerState(d, tau)
    rng = np.random.default_rng(123)
    draws = rng.standard_normal((steps, d))
    worst_sum = 0.0
    worst_identity = 0.0
    bounds_ok = True
    for t in range(steps):
        state.update(draws[t])
        worst_sum = max(worst_sum, abs(float(state.p.sum()) - 1.0))
        # each win mean lies in [(1 - tau^t)/d, 1 - tau^t]; distinct inputs
        # make the win counts a permutation of 1..d, so the means sum to
        # (1 - tau^t)(d + 1)/2
        decayed = 1.0 - tau ** (t + 1)
        if state.m.min() < decayed / d - 1e-10 or state.m.max() > decayed + 1e-10:
            bounds_ok = False
        identity_err = abs(float(state.m.sum()) - decayed * (d + 1) / 2)
        worst_identity = max(worst_identity, identity_err)
    gate(
        "ranker conservation and bounds over 1e5 updates",
        worst_sum < 1e-9 and bounds_ok and worst_identity < 1e-10,
        f"max |sum(p)-1| {worst_sum:.1e}, max win-mean sum err {worst_identity:.1e}",
    )


def test_ranker_affine_input_bit_identity():
    d, steps = 10, 1000
    rng = np.random.default_rng(77)
    draws = rng.standard_normal((steps, d))
    raw = RankerState(d, 0.999)
    mapped = RankerState(d, 0.999)
    identical = True
    for t in range(steps):
        raw.update(draws[t])
        mapped.update(3.0 * draws[t] + 7.0)
        if not np.array_equal(raw.p, mapped.p):
            identical = False
            break
        if not np.array_equal(raw.rank(), mapped.rank()):
            identical = False
            break
    gate("ranker invariance to positive affine input rescaling", identical)


def test_ranker_dominance_switch_adaptivity():
    d, tau = 5, 0.999
    ladder = np.array([0.8, 0.4, 0.2, 0.1, 0.05])
    reversed_ladder = np.array([0.05, 0.8, 0.4, 0.2, 0.1])  # leader moves to the bottom
    state = RankerState(d, tau)
    start = time.perf_counter()
    led_throughout = True
    for _ in range(2000):
        state.update(ladder)
        if state.rank()[0] != 0:
            led_throughout = False
    flip_at = None
    for step in range(1, 4001):
        state.update(reversed_ladder)
        if flip_at is None and state.rank()[0] == 1:
            flip_at = step
            break
    elapsed = time.perf_counter() - start
    gate(
        "ranker adapts to a dominance switch",
        led_throughout and flip_at is not None and flip_at <= 1500 and elapsed < 1.0,
        f"leadership flipped after {flip_at} steps, {elapsed:.2f} s",
    )


def _ar_stream(d, n, seed):
    """``n`` returns of a stable VAR(1) ``r_s = A (1, r_{s-1}) + noise``, from ``r_0 = 0``."""
    rng = np.random.default_rng(seed)
    mapping = rng.normal(scale=0.4 / np.sqrt(d + 1), size=(d, d + 1))
    rets = np.empty((n, d))
    r = np.zeros(d)
    for s in range(n):
        r = mapping @ np.concatenate([[1.0], r]) + 0.5 * rng.normal(size=d)
        rets[s] = r
    return rets


def _lagged(rets):
    """The lagged design ``(1, r_{s-1})`` the forecaster pairs with ``r_s``."""
    return np.column_stack([np.ones(len(rets)), np.vstack([np.zeros(rets.shape[1]), rets[:-1]])])


def test_regression_recursive_matches_batch_ridge():
    start = time.perf_counter()
    worst_theta = 0.0
    worst_p = 0.0
    for d in (2, 5):
        for n in (50, 200):
            rets = _ar_stream(d, n, seed=97 + d + n)
            state = CurdsWheyState(d, 1.0, 1.0)
            for r in rets:
                state.step(r)
            X = _lagged(rets)
            theta_batch = batch_ridge(X, rets, 1.0)
            worst_theta = max(
                worst_theta,
                np.linalg.norm(state.theta - theta_batch.T) / np.linalg.norm(theta_batch),
            )
            p_batch = np.linalg.inv(X.T @ X + np.eye(d + 1))
            worst_p = max(worst_p, np.linalg.norm(state.P - p_batch) / np.linalg.norm(p_batch))
    elapsed = time.perf_counter() - start
    gate(
        "recursive coefficients match batch ridge at unit forgetting",
        worst_theta < 1e-6 and worst_p < 1e-6 and elapsed < 1.0,
        f"max rel err theta {worst_theta:.1e}, P {worst_p:.1e}, {elapsed:.2f} s",
    )


def test_regression_shrinkage_oracles():
    rng = np.random.default_rng(11)
    Y = rng.normal(size=(200, 5))
    identity_err = np.abs(batch_shrinkage(Y, Y, 1e-10) - np.eye(5)).max()

    d, n = 5, 200
    rets = _ar_stream(d, n, seed=301)
    state = CurdsWheyState(d, 1.0, 1.0)
    y_hats = []
    for r in rets:
        state.step(r)
        y_hats.append(state.theta @ np.concatenate(([1.0], r)))
    y_hats = np.array(y_hats)
    phi_batch = batch_shrinkage(rets[:-1], y_hats[1:], 1.0)
    phi_err = np.linalg.norm(state.phi - phi_batch.T) / np.linalg.norm(phi_batch)
    gate(
        "shrinkage oracles: self-prediction identity and recursive match",
        identity_err < 1e-6 and phi_err < 1e-5,
        f"identity err {identity_err:.1e}, recursive rel err {phi_err:.1e}",
    )


def test_regression_long_run_numerical_stability():
    d, steps = 20, 20_000
    panel = simulate_jump_diffusion(
        JumpDiffusionConfig(volatility=0.015, jump_intensity=0.05, jump_mean=-0.01,
                            jump_stdev=0.04, n_steps=steps + 1, n_assets=d, seed=55)
    )
    rets = panel.returns
    state = CurdsWheyState(d, 1.0, 0.999)
    worst_asym = 0.0
    finite = True
    for i in range(steps):
        forecast = state.step(rets[i])
        P = state.P
        worst_asym = max(worst_asym, float(np.abs(P - P.T).max()))
        if not (np.isfinite(state.theta).all() and np.isfinite(forecast).all()):
            finite = False
            break
    gate(
        "surrogate matrix stays symmetric and forecasts finite over 2e4 steps",
        finite and worst_asym == 0.0 and state.p_resets == 0,
        f"max asymmetry {worst_asym:.1e}, resets {state.p_resets}",
    )


def test_backtest_accounting_and_cost_monotonicity():
    ok = True
    details = []
    for seed in (1, 2, 3):
        base_cfg = dict(volatility=0.012, jump_intensity=0.02, jump_stdev=0.03,
                        n_steps=200, n_assets=10, seed=seed)
        panel = simulate_jump_diffusion(JumpDiffusionConfig(spread=0.001, **base_cfg))
        zero = simulate_jump_diffusion(JumpDiffusionConfig(spread=0.0, **base_cfg))
        wide = simulate_jump_diffusion(JumpDiffusionConfig(spread=0.01, **base_cfg))
        config = BacktestConfig(mode="long-short", strategy="nbar")
        rep = run_backtest(panel, config)
        rep_zero = run_backtest(zero, config)
        rep_wide = run_backtest(wide, config)
        exact = bool(np.all(rep.net == rep.gross - rep.cost))
        zero_ok = bool(np.all(rep_zero.net == rep_zero.gross))
        mono = bool(np.all(rep_wide.net <= rep.net + 1e-15))
        # re-quoting at a wider spread reconstructs the same mids only up to
        # float rounding, so gross agreement is checked at 1e-12
        same_gross = bool(np.all(np.abs(rep_wide.gross - rep.gross) < 1e-12))
        ok = ok and exact and zero_ok and mono and same_gross
        details.append(f"seed {seed} ok={exact and zero_ok and mono}")
    gate("backtest accounting identity and cost monotonicity", ok, "; ".join(details))


def test_pipeline_byte_identical_reproduction(tmp_path):
    reports = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = cli_main([
            "synth", "--assets", "8", "--steps", "150", "--seed", "42",
            "--vol", "0.012", "--jumps", "0.05", "--jump-std", "0.02",
            "--out-dir", str(out),
        ])
        assert code == 0
        code = cli_main([
            "backtest", str(out / "panel.csv"), "--mode", "long-short",
            "--strategy", "nbar", "--out-dir", str(out),
        ])
        assert code == 0
        reports.append((out / "backtest.json").read_bytes())
    gate(
        "seeded synth-then-backtest reproduces byte-identical reports",
        reports[0] == reports[1],
        f"{len(reports[0])} bytes",
    )


def test_statistical_size_and_power():
    n_rep = 200
    alpha = 0.05
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    adf_size = np.mean(
        [adf_test(np.cumsum(rng.standard_normal(500))).reject_unit_root[alpha] for _ in range(n_rep)]
    )
    def ar1(phi, n):
        e = rng.standard_normal(n)
        y = np.empty(n)
        y[0] = e[0]
        for t in range(1, n):
            y[t] = phi * y[t - 1] + e[t]
        return y
    adf_power = np.mean([adf_test(ar1(0.5, 500)).reject_unit_root[alpha] for _ in range(n_rep)])

    levene_size = np.mean(
        [
            levene_test([rng.normal(0, 1, 50), rng.normal(0, 1, 50)], alpha=alpha).reject
            for _ in range(n_rep)
        ]
    )
    levene_power = np.mean(
        [
            levene_test([rng.normal(0, 1, 50), rng.normal(0, 5, 50)], alpha=alpha).reject
            for _ in range(n_rep)
        ]
    )

    welch_size = np.mean(
        [
            welch_t_test(rng.normal(0, 1, 30), rng.normal(0, 1, 30),
                         alpha=alpha, sidedness="two-sided").reject
            for _ in range(n_rep)
        ]
    )
    welch_power = np.mean(
        [
            welch_t_test(rng.normal(0, 1, 30), rng.normal(1, 1, 30),
                         alpha=alpha, sidedness="two-sided").reject
            for _ in range(n_rep)
        ]
    )
    elapsed = time.perf_counter() - start
    sizes_ok = all(0.02 <= s <= 0.08 for s in (adf_size, levene_size, welch_size))
    power_ok = all(p >= 0.95 for p in (adf_power, levene_power, welch_power))
    gate(
        "test calibration: size in [0.02, 0.08] and power >= 0.95",
        sizes_ok and power_ok and elapsed < 30.0,
        f"size adf={adf_size:.3f} levene={levene_size:.3f} welch={welch_size:.3f}; "
        f"power adf={adf_power:.2f} levene={levene_power:.2f} welch={welch_power:.2f}; "
        f"{elapsed:.1f} s",
    )


def test_stationarity_report_calibration_and_trend():
    calm = simulate_jump_diffusion(
        JumpDiffusionConfig(drift=0.0002, volatility=0.01, n_steps=1050, n_assets=25,
                            cross_correlation=0.0, seed=11)
    )
    calm_report = monthly_stationarity_report(calm, max_shift=4, alpha=0.05,
                                              sidedness="two-sided")
    shift1 = calm_report.rejection_by_shift[0].frequency

    switching = drift_switch_panel(d=10, n_steps=1050, mu=0.005, vol=0.01, seed=23)
    switch_report = monthly_stationarity_report(switching, max_shift=8, alpha=0.05,
                                                sidedness="two-sided")
    freq = [s.frequency for s in switch_report.rejection_by_shift]
    gate(
        "report calibration at shift 1 and rising rejections under a drift switch",
        0.02 <= shift1 <= 0.08 and freq[-1] > freq[0],
        f"calm shift-1 {shift1:.3f}; switch shift-1 {freq[0]:.3f} vs shift-8 {freq[-1]:.3f}",
    )


def test_strategy_ranks_drifted_assets_above_benchmark():
    d = 20
    drift = [0.002] * 2 + [0.0] * 16 + [-0.002] * 2
    panel = simulate_jump_diffusion(
        JumpDiffusionConfig(drift=drift, volatility=0.01, n_steps=2001, n_assets=d,
                            cross_correlation=0.0, seed=5, spread=0.001)
    )
    start = time.perf_counter()
    report = run_backtest(panel, BacktestConfig(mode="long-short", strategy="nbar"))
    elapsed = time.perf_counter() - start
    strat = report.strategy_metrics
    bench = report.benchmark_metrics
    gate(
        "long/short posterior strategy beats the equal-weight benchmark on drifted assets",
        strat.days == 2000
        and strat.sharpe is not None
        and bench.sharpe is not None
        and strat.sharpe > bench.sharpe
        and elapsed < 10.0,
        f"net sharpe {strat.sharpe:.2f} vs benchmark {bench.sharpe:.2f}, {elapsed:.1f} s",
    )
