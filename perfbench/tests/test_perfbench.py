"""Tests of the benchmark itself: its output checks and its span arithmetic.

Each check must pass on a correct program output and catch a planted
error. Small panels keep the whole file to a few seconds.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402

from seqrank import (  # noqa: E402
    BacktestConfig,
    JumpDiffusionConfig,
    monthly_stationarity_report,
    run_backtest,
    simulate_jump_diffusion,
    write_csv,
)

SPREAD = 0.002


@pytest.fixture(scope="module")
def program_panel():
    return simulate_jump_diffusion(JumpDiffusionConfig(
        volatility=0.01, jump_intensity=0.05, jump_stdev=0.02, n_steps=230, n_assets=12,
        cross_correlation=0.2, seed=5, spread=SPREAD,
    ))


@pytest.fixture(scope="module")
def panel(program_panel, tmp_path_factory):
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    write_csv(program_panel, path)
    return checks.read_panel_csv(path)


def _roundtrip(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


def test_read_panel_csv_matches_the_program(program_panel, panel):
    assert panel.assets == list(program_panel.assets)
    assert list(panel.dates) == [d.isoformat() for d in program_panel.dates]
    np.testing.assert_array_equal(panel.bids, program_panel.bids)
    np.testing.assert_array_equal(panel.returns, program_panel.returns)


@pytest.mark.parametrize("mode,strategy", [("long-short", "nbar"), ("long-only", "curds-whey")])
def test_backtest_check_passes_and_catches_a_wrong_net(program_panel, panel, mode, strategy):
    report = _roundtrip(run_backtest(program_panel, BacktestConfig(mode=mode, strategy=strategy)).to_json_dict())
    assert checks.check_backtest(report, panel, SPREAD) == []
    planted = copy.deepcopy(report)
    planted["days"][7]["net"] += 1e-9
    errors = checks.check_backtest(planted, panel, SPREAD)
    assert any("net != gross - cost" in e for e in errors)


def test_backtest_check_catches_a_wrong_metric_and_benchmark(program_panel, panel):
    report = _roundtrip(run_backtest(program_panel, BacktestConfig(strategy="nbar")).to_json_dict())
    planted = copy.deepcopy(report)
    planted["metrics"]["strategy"]["sr"] *= 1.001
    planted["days"][3]["benchmark"] += 1e-9
    errors = checks.check_backtest(planted, panel, SPREAD)
    assert any("metric sr" in e for e in errors)
    assert any("benchmark return differs" in e for e in errors)


@pytest.fixture(scope="module")
def stationarity(program_panel):
    report = monthly_stationarity_report(program_panel, max_shift=3, min_month_obs=12)
    return _roundtrip(report.to_json_dict())


def _stationarity_errors(report, panel):
    return checks.check_stationarity(report, panel, 12, np.random.Generator(np.random.PCG64(0)), scipy_pairs=20)


def test_stationarity_check_passes(stationarity, panel):
    assert sum(len(a["t_tests"]) for a in stationarity["assets"]) > 50
    assert _stationarity_errors(stationarity, panel) == []


def test_stationarity_check_catches_a_flipped_reject_flag(stationarity, panel):
    planted = copy.deepcopy(stationarity)
    test = planted["assets"][2]["t_tests"][4]
    test["reject"] = not test["reject"]
    errors = _stationarity_errors(planted, panel)
    assert any("reject flag contradicts" in e for e in errors)
    assert any("rejection_by_shift" in e for e in errors)


def test_stationarity_check_catches_a_wrong_welch_dof(stationarity, panel):
    planted = copy.deepcopy(stationarity)
    planted["assets"][1]["t_tests"][0]["dof"] += 0.5
    assert any("Welch dof" in e for e in _stationarity_errors(planted, panel))


def test_stationarity_check_catches_a_wrong_levene_and_adf(stationarity, panel):
    planted = copy.deepcopy(stationarity)
    planted["assets"][0]["levene"]["w_stat"] *= 1.01
    planted["assets"][1]["adf_return"]["t_stat"] -= 0.01
    errors = _stationarity_errors(planted, panel)
    assert any("Levene W" in e for e in errors)
    assert any("adf_return t" in e for e in errors)


def test_self_time_subtracts_the_union_of_child_intervals():
    trace = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps a: together they cover 1..5
        ["c", 8.0, 9.0, 0],
        ["a.child", 1.5, 2.5, 1],
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_layer_metrics_fold_spans_counts_and_setup():
    measured = {
        "spans": [
            ["cli.main", 0.0, 4.0, None],
            ["timeseries.load_csv", 0.5, 1.5, 0],
            ["regression.step", 2.0, 2.5, 0],
            ["regression.step", 2.5, 3.25, 0],
        ],
        "counts": {"timeseries.load_csv.rows": 40, "regression.resets": 1},
        "import_s": 0.3,
    }
    setup = {
        "spans": [["cli.main", 0.0, 2.0, None], ["timeseries.render_csv", 0.2, 1.2, 0]],
        "counts": {"cli.bytes_written": 999},
        "import_s": 9.0,
        "setup": True,
    }
    values = spans.layer_metrics([measured, setup], wall_s=4.2)
    assert [name for name, _ in spans.LAYER_METRICS] == list(values)
    assert values["cli.main.self_s"] == pytest.approx(1.75)
    assert values["regression.step.s"] == pytest.approx(1.25)
    assert values["regression.step.calls"] == 2
    assert values["timeseries.render_csv.s"] == pytest.approx(1.0)
    assert values["timeseries.load_csv.rows"] == 40
    assert values["cli.bytes_written"] == 0
    assert values["process.import_s"] == pytest.approx(0.3)
    assert values["trace.wall_s"] == 4.2
    assert values["ranker.update.calls"] == 0


def test_benchmark_json_names_what_the_benchmark_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
