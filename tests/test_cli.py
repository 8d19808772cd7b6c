"""Command-line surface: outputs, determinism, and failure behaviour."""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqrank
import seqrank._csvread as _csvread
import seqrank._fork as _fork
import seqrank._panelcache as _panelcache
import seqrank.cli as cli
from seqrank import BacktestConfig, JumpDiffusionConfig, load_csv, monthly_stationarity_report, write_csv
from seqrank.backtest import COST_MODELS, MODES, NBAR_INPUTS, NBAR_MEMBERSHIPS, STRATEGIES
from seqrank.cli import _emit, _sha256, json_chunks, main
from seqrank.stats import SIDEDNESS_VALUES

from conftest import assert_close_leaves, assert_no_child, constant_growth_panel, dominance_panel


def run_cli(*args):
    return main([str(a) for a in args])


def synth(out_dir, **overrides):
    flags = {
        "--assets": 6, "--steps": 120, "--seed": 7, "--vol": 0.01,
        "--drift": 0.0005, "--out-dir": out_dir,
    }
    flags.update(overrides)
    argv = ["synth"]
    for key, value in flags.items():
        argv += [key, value]
    assert run_cli(*argv) == 0
    return out_dir / "panel.csv"


class TestSynth:
    def test_writes_panel_and_manifest(self, tmp_path):
        path = synth(tmp_path)
        assert path.exists()
        manifest = json.loads((tmp_path / "panel.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert manifest["version"]
        # every generator setting is recorded, the seed at the top level
        fields = {f.name for f in dataclasses.fields(JumpDiffusionConfig)}
        assert set(manifest["config"]) == fields - {"seed"} | {"sectors"}
        panel = load_csv(path)
        assert panel.n_assets == 6
        assert panel.n_dates == 121

    def test_repeat_runs_byte_identical(self, tmp_path):
        a = synth(tmp_path / "one")
        b = synth(tmp_path / "two")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "one/panel.manifest.json").read_bytes() == (
            tmp_path / "two/panel.manifest.json"
        ).read_bytes()

    def test_single_asset_rejected(self, tmp_path, capsys):
        code = run_cli("synth", "--assets", 1, "--out-dir", tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "panel.csv").exists()

    def test_non_finite_volatility_named(self, tmp_path, capsys):
        assert run_cli("synth", "--vol", "nan", "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err == "error: volatility must be finite, got nan\n"
        assert list(tmp_path.iterdir()) == []

    def test_constant_return_flags(self, tmp_path):
        path = synth(tmp_path, **{"--vol": 0.0, "--jumps": 0.0, "--drift": 0.001})
        panel = load_csv(path)
        assert np.allclose(panel.returns, math.exp(0.001) - 1.0, atol=1e-12)

    def test_sector_cycling(self, tmp_path):
        path = synth(tmp_path, **{"--sectors": "tech,energy"})
        panel = load_csv(path)
        assert panel.sectors == ("tech", "energy", "tech", "energy", "tech", "energy")


class TestStationarity:
    def test_report_written(self, tmp_path):
        path = synth(tmp_path, **{"--steps": 300, "--assets": 4})
        assert run_cli("stationarity", path, "--max-shift", 3, "--out-dir", tmp_path) == 0
        payload = json.loads((tmp_path / "stationarity.json").read_text())
        assert len(payload["report"]["rejection_by_shift"]) == 3
        assert payload["manifest"]["command"] == "stationarity"
        assert list(payload["manifest"]["inputs"]) == ["panel.csv"]
        text = (tmp_path / "stationarity.txt").read_text()
        assert "reject H0" in text

    def test_random_walk_prices_vs_returns(self, tmp_path):
        path = synth(tmp_path, **{"--steps": 400, "--assets": 5, "--vol": 0.015})
        assert run_cli("stationarity", path, "--max-shift", 2, "--out-dir", tmp_path) == 0
        report = json.loads((tmp_path / "stationarity.json").read_text())["report"]
        assert report["price_nonstationary_fraction"] >= 0.6
        assert report["return_stationary_fraction"] == 1.0

    def test_shift_without_tests_writes_strict_json(self, tmp_path):
        # 30-observation months are rare enough that some shifts get no test
        path = synth(tmp_path, **{"--steps": 300, "--assets": 3})
        assert run_cli("stationarity", path, "--min-month-obs", 30, "--out-dir", tmp_path) == 0

        def reject_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "stationarity.json").read_text()
        report = json.loads(text, parse_constant=reject_constant)["report"]
        empty = [item for item in report["rejection_by_shift"] if item["tests"] == 0]
        assert empty and all(item["frequency"] is None for item in empty)
        table = (tmp_path / "stationarity.txt").read_text()
        assert f"shift {empty[0]['shift']:>2}:     n/a (0/0)" in table

    def test_one_return_minimum_rejected_by_name(self, tmp_path, capsys):
        # this panel's last month holds a single return
        path = synth(tmp_path, **{"--steps": 303, "--assets": 3, "--seed": 2})
        out = tmp_path / "out"
        assert run_cli("stationarity", path, "--min-month-obs", 1, "--out-dir", out) == 1
        assert "min_month_obs" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli("stationarity", tmp_path / "absent.csv", "--out-dir", tmp_path)
        assert code == 1
        assert f"panel file not found: {tmp_path / 'absent.csv'}" in capsys.readouterr().err

    def test_a_path_under_a_file_is_missing(self, tmp_path, capsys):
        (tmp_path / "file.csv").write_text("")
        path = tmp_path / "file.csv" / "absent.csv"
        assert run_cli("stationarity", path, "--out-dir", tmp_path / "out") == 1
        assert f"panel file not found: {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBacktest:
    def test_default_run_outputs(self, tmp_path):
        path = synth(tmp_path)
        assert run_cli("backtest", path, "--out-dir", tmp_path) == 0
        payload = json.loads((tmp_path / "backtest.json").read_text())
        assert payload["config"]["strategy"] == "curds-whey"
        assert payload["metrics"]["strategy"]["days"] == len(payload["days"])
        assert payload["metrics"]["benchmark"]["days"] == len(payload["days"])
        assert (tmp_path / "equity.csv").read_text().startswith("date,cum_net_strategy")
        assert "<svg" in (tmp_path / "equity.svg").read_text()

    def test_zero_cost_differs_by_exactly_the_cost_column(self, tmp_path):
        path = synth(tmp_path)
        assert run_cli("backtest", path, "--out-dir", tmp_path / "priced") == 0
        assert run_cli("backtest", path, "--cost", "zero", "--out-dir", tmp_path / "free") == 0
        priced = json.loads((tmp_path / "priced/backtest.json").read_text())["days"]
        free = json.loads((tmp_path / "free/backtest.json").read_text())["days"]
        for a, b in zip(priced, free):
            assert a["gross"] == b["gross"]
            assert a["net"] == b["net"] - a["cost"]

    def test_long_short_nbar_populates_short_leg(self, tmp_path):
        panel = dominance_panel(d=10, n_dates=80)
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        assert run_cli(
            "backtest", path, "--mode", "long-short", "--strategy", "nbar",
            "--nbar-input", "realised", "--out-dir", tmp_path,
        ) == 0
        payload = json.loads((tmp_path / "backtest.json").read_text())
        assert all(day["n_short"] >= 1 for day in payload["days"])

    def test_flag_validation(self, tmp_path, capsys):
        path = synth(tmp_path)
        code = run_cli("backtest", path, "--decile", 0.9, "--out-dir", tmp_path / "bad")
        assert code == 1
        assert "decile" in capsys.readouterr().err
        assert not (tmp_path / "bad/backtest.json").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_lambda_rejected(self, tmp_path, capsys, value):
        path = synth(tmp_path)
        code = run_cli("backtest", path, "--lambda", value, "--out-dir", tmp_path / "bad")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ridge_lambda must be positive and finite")
        assert not (tmp_path / "bad").exists()

    def test_hyperparameter_flags_echoed(self, tmp_path):
        path = synth(tmp_path)
        assert run_cli(
            "backtest", path, "--tau", 0.99, "--lambda", 2.5, "--decile", 0.2,
            "--out-dir", tmp_path,
        ) == 0
        config = json.loads((tmp_path / "backtest.json").read_text())["config"]
        assert config["tau"] == 0.99
        assert config["ridge_lambda"] == 2.5
        assert config["decile_fraction"] == 0.2


class TestRank:
    def test_dominant_asset_leads(self, tmp_path):
        panel = dominance_panel(d=6, n_dates=30)
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        assert run_cli("rank", path, "--out-dir", tmp_path) == 0
        lines = (tmp_path / "rank.jsonl").read_text().strip().splitlines()
        assert len(lines) == 29
        for line in lines[1:]:
            day = json.loads(line)
            assert day["order_index"][0] == 0
            assert day["order"][0] == "A000"

    def test_uniform_panel_identity_order(self, tmp_path):
        panel = constant_growth_panel(d=5, n_dates=20)
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        assert run_cli("rank", path, "--out-dir", tmp_path) == 0
        for line in (tmp_path / "rank.jsonl").read_text().strip().splitlines():
            assert json.loads(line)["order_index"] == [0, 1, 2, 3, 4]

    def test_tau_one_keeps_uniform_posterior(self, tmp_path):
        panel = dominance_panel(d=5, n_dates=20)
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        assert run_cli("rank", path, "--tau", 1.0, "--out-dir", tmp_path) == 0
        for line in (tmp_path / "rank.jsonl").read_text().strip().splitlines():
            assert np.allclose(json.loads(line)["posterior"], 0.2, atol=1e-12)

    def test_a_cell_past_the_csv_field_limit_names_its_row(self, tmp_path, capsys):
        # the quoted cell in row 2 sends the rows from there on to the csv module
        path = synth(tmp_path)
        lines = path.read_text().split("\n")
        lines[1] = lines[1].replace(",A000,", ',"A000",')
        lines[3] = lines[3].replace(",A002,", f",{'A' * 200_000},")
        path.write_text("\n".join(lines))
        out = tmp_path / "out"
        assert run_cli("rank", path, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {path}:4: field larger than field limit (131072)\n"
        assert not out.exists()

    def test_lines_are_streamed_not_joined(self, tmp_path, monkeypatch):
        path = synth(tmp_path / "panel")
        bodies = {}
        emit = cli._emit

        def recording(out_dir, files):
            bodies.update(files)
            return emit(out_dir, files)

        monkeypatch.setattr(cli, "_emit", recording)
        assert run_cli("rank", path, "--out-dir", tmp_path / "out") == 0
        assert not isinstance(bodies["rank.jsonl"], str)
        text = (tmp_path / "out" / "rank.jsonl").read_text()
        assert text.endswith("}\n") and len(text.splitlines()) == 120


class TestTinyQuote:
    """A quote of 1e-98 on one day makes that asset's next return about
    1e100, whose squares pass the largest float: every subcommand ends in a
    result or a named error, never a traceback."""

    @staticmethod
    def quote_tiny(path, asset, *dates):
        lines = path.read_text().splitlines(keepends=True)
        for date in dates:
            tiny = [i for i, line in enumerate(lines) if line.startswith(f"{date},{asset},")]
            assert len(tiny) == 1
            lines[tiny[0]] = f"{date},{asset},1e-98,1e-98\n"
        path.write_text("".join(lines))

    @pytest.fixture
    def panel_path(self, tmp_path):
        assert run_cli("synth", "--assets", 3, "--steps", 300, "--seed", 1, "--out-dir", tmp_path) == 0
        path = tmp_path / "panel.csv"
        self.quote_tiny(path, "A000", "2018-06-01")
        return path

    def test_stationarity_skips_the_overflowing_pairs(self, panel_path, capsys):
        out = panel_path.parent / "stationarity"
        assert run_cli("stationarity", panel_path, "--out-dir", out) == 0
        assert "error" not in capsys.readouterr().err
        report = json.loads((out / "stationarity.json").read_text())["report"]
        # the month of the 1e100 return pairs with none of its neighbours
        assert report["skipped"]["t_test"] > 0
        months = [test["month"] for test in report["assets"][0]["t_tests"]]
        months += [test["prior_month"] for test in report["assets"][0]["t_tests"]]
        assert "2018-06" not in months and "2018-05" in months

    def test_stationarity_table_keeps_its_width_and_warns_nothing(self, panel_path):
        out = panel_path.parent / "stationarity"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("stationarity", panel_path, "--out-dir", out) == 0
        table = (out / "stationarity.txt").read_text().splitlines()[1:10]
        assert {len(line) for line in table} == {len(table[0])}
        cells = [cell for line in table[1:] for cell in line.split()[1:]]
        assert all(math.isfinite(float(cell)) for cell in cells)
        assert "e+" in table[2] and "e+" in table[3]  # the mean and std rows

    def test_backtest_names_the_first_non_finite_forecast(self, panel_path, capsys):
        assert run_cli("backtest", panel_path, "--out-dir", panel_path.parent / "backtest") == 1
        assert capsys.readouterr().err.endswith("error: non-finite forecast at 2018-06-04\n")
        assert not (panel_path.parent / "backtest").exists()

    def test_rank(self, panel_path):
        out = panel_path.parent / "rank"
        assert run_cli("rank", panel_path, "--out-dir", out) == 0
        assert len((out / "rank.jsonl").read_text().splitlines()) == 300

    def test_backtest_reports_a_growth_past_the_largest_float_as_null(self, panel_path):
        # four returns of about 1e100 compound past 1.8e308 in the benchmark
        self.quote_tiny(panel_path, "A001", "2018-03-01", "2018-09-03", "2018-11-01")
        out = panel_path.parent / "backtest"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("backtest", panel_path, "--strategy", "nbar", "--nbar-input", "realised",
                           "--out-dir", out) == 0
        metrics = json.loads((out / "backtest.json").read_text())["metrics"]
        assert metrics["benchmark"]["cagr"] is None
        assert metrics["benchmark"]["sum"] > 1e100

    def test_backtest_summary_prints_huge_sums_in_exponent_form(self, panel_path, capsys):
        self.quote_tiny(panel_path, "A001", "2018-03-01", "2018-09-03", "2018-11-01")
        out = panel_path.parent / "backtest"
        assert run_cli("backtest", panel_path, "--strategy", "nbar", "--nbar-input", "realised",
                       "--out-dir", out) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        numbers = dict(re.findall(r"(\w+)=(\S+)", summary.replace("benchmark sum", "benchmark_sum")))
        assert set(numbers) == {"days", "sum", "sr", "max_dd", "benchmark_sum"}
        assert all(len(text) <= 10 for text in numbers.values()), summary
        assert re.fullmatch(r"\d\.\d\de\+\d+", numbers["benchmark_sum"])
        metrics = json.loads((out / "backtest.json").read_text())["metrics"]
        assert float(numbers["benchmark_sum"]) == pytest.approx(metrics["benchmark"]["sum"], rel=5e-3)


def reference_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(write, payload):
    """The text ``write`` makes of ``payload``, or the type of its error."""
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc)


# strings that would fool a writer splicing the record boundary or the
# indent into the C encoder's output
TRICKY_TEXT = st.sampled_from(
    ['},\n    {"', '},\n      {', "}\n]", "\n", "a\nb", "\r\t\x00\x1f\x7f", "é€😀", "\u2028", '"\\', ""]
)
TEXT = TRICKY_TEXT | st.text(max_size=8)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**70)
    | st.integers(min_value=-(2**70), max_value=-(2**63) - 1)
    | FINITE
    | st.just(-0.0)
    | FINITE.map(np.float64)
    | TEXT
)
NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, np.float64("nan")])


def payloads(leaves):
    records = st.lists(st.dictionaries(TEXT, leaves, min_size=1, max_size=6), max_size=5)
    return st.recursive(
        leaves | records | st.just({}) | st.just([]),
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(st.integers() | FINITE | st.booleans(), children, max_size=3)
            | st.lists(st.dictionaries(TEXT, leaves, min_size=1, max_size=4), max_size=4)
        ),
        max_leaves=30,
    )


class TestJsonChunks:
    @settings(max_examples=400)
    @given(payloads(SCALARS))
    def test_same_text_as_json_dumps_with_indent(self, payload):
        assert outcome(lambda p: "".join(json_chunks(p)), payload) == outcome(reference_text, payload)

    @settings(max_examples=200)
    @given(payloads(SCALARS | NON_FINITE))
    def test_same_errors_as_json_dumps(self, payload):
        assert outcome(lambda p: "".join(json_chunks(p)), payload) == outcome(reference_text, payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    @pytest.mark.parametrize(
        "place",
        [
            lambda bad: bad,
            lambda bad: {"a": bad},
            lambda bad: [1, bad],
            lambda bad: {"rows": [{"x": 1.0}, {"x": bad}]},
            lambda bad: {"a": {"b": [{"c": {"d": bad}}]}},
            lambda bad: {bad: 1},
        ],
        ids=["scalar", "flat-dict", "flat-list", "records", "nested", "key"],
    )
    def test_non_finite_floats_raise(self, bad, place):
        with pytest.raises(ValueError):
            reference_text(place(bad))
        with pytest.raises(ValueError):
            "".join(json_chunks(place(bad)))

    def test_keys_of_every_json_kind(self):
        for payload in (
            {2: "a", 1.5: ["b"], True: {}},
            {"m": {None: [{"n": None}]}},
            {"k": {-1: 0, 10**20: 1, -0.0: 2}},
        ):
            assert "".join(json_chunks(payload)) == reference_text(payload)
        with pytest.raises(TypeError) as dumped:
            reference_text({(1, 2): 0})
        for payload in ({(1, 2): 0}, {"a": {(1, 2): [0]}}):
            with pytest.raises(TypeError) as caught:
                "".join(json_chunks(payload))
            assert str(caught.value) == str(dumped.value)

    def test_stationarity_report_matches(self, tmp_path):
        path = synth(tmp_path, **{"--steps": 300, "--assets": 4})
        assert run_cli("stationarity", path, "--max-shift", 3, "--out-dir", tmp_path) == 0
        text = (tmp_path / "stationarity.json").read_text()
        assert text == reference_text(json.loads(text))


class TestEmit:
    def test_failed_write_leaves_no_temporaries_and_no_new_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("old a")
        with pytest.raises(TypeError):
            _emit(tmp_path, {"a.txt": "new a", "b.txt": None, "c.txt": "new c"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "old a"

    def test_interrupt_before_the_renames_cleans_up(self, tmp_path, monkeypatch):
        (tmp_path / "b.txt").write_text("old b")

        def interrupted(self, target):
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _emit(tmp_path, {"a.txt": "new a", "b.txt": "new b"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt"]
        assert (tmp_path / "b.txt").read_text() == "old b"

    def test_failing_chunk_producer_leaves_old_outputs(self, tmp_path):
        (tmp_path / "a.json").write_text("old a")
        payload = {"rows": [{"x": 1.0}] * 1000 + [{"x": math.nan}], "z": 0}
        with pytest.raises(ValueError):
            _emit(tmp_path, {"b.txt": "new b", "a.json": json_chunks(payload)})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]
        assert (tmp_path / "a.json").read_text() == "old a"

    def test_stationarity_with_a_non_finite_value_keeps_old_outputs(
        self, tmp_path, monkeypatch, capsys, forks
    ):
        path = synth(tmp_path / "panel", **{"--steps": 300, "--assets": 4})
        out = tmp_path / "out"
        assert run_cli("stationarity", path, "--max-shift", 3, "--out-dir", out) == 0
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        report_of = cli.monthly_stationarity_report
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        # each asset's text is one block: asset 0 is this process's, asset 1 the forked child's
        for asset in (0, 1):
            def nan_in_last_test(*args, asset=asset, **kwargs):
                report = report_of(*args, **kwargs)
                t_stat = report.t_stat.copy()
                t_stat[asset, np.flatnonzero(report.tested[asset])[-1]] = math.nan
                return dataclasses.replace(report, t_stat=t_stat)

            monkeypatch.setattr(cli, "monthly_stationarity_report", nan_in_last_test)
            capsys.readouterr()
            forks.clear()
            assert run_cli("stationarity", path, "--max-shift", 3, "--out-dir", out) == 1
            assert f"error: A00{asset}: nan is not valid JSON" in capsys.readouterr().err
            assert len(forks) == 1
            assert_no_child()
            assert {p.name: p.read_bytes() for p in out.iterdir()} == old

    def test_runs_leave_exactly_their_outputs(self, tmp_path):
        path = synth(tmp_path / "panel")
        assert sorted(p.name for p in path.parent.iterdir()) == ["panel.csv", "panel.manifest.json"]
        out = tmp_path / "out"
        (out / "stale").mkdir(parents=True)
        (out / "equity.csv").write_text("old")
        assert run_cli("backtest", path, "--out-dir", out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "backtest.json", "equity.csv", "equity.svg", "stale",
        ]
        assert (out / "equity.csv").read_text().startswith("date,cum_net_strategy")


class TestInputDigest:
    def test_multi_block_file_matches_whole_hash(self, tmp_path):
        data = np.random.default_rng(3).bytes(5 * (1 << 19) + 17)
        path = tmp_path / "panel.csv"
        path.write_bytes(data)
        assert _sha256(path) == "sha256:" + hashlib.sha256(data).hexdigest()


    @pytest.mark.parametrize("command", ["stationarity", "backtest", "rank"])
    def test_a_panel_replaced_during_the_load_fails_the_run(
        self, tmp_path, monkeypatch, capsys, panel_cache, command
    ):
        path = synth(tmp_path / "a")
        other = synth(tmp_path / "b", **{"--seed": 8})
        load = cli.load_csv

        def replacing(panel_path):
            panel = load(panel_path)
            os.replace(other, path)
            return panel

        monkeypatch.setattr(cli, "load_csv", replacing)
        out = tmp_path / "out"
        assert run_cli(command, path, "--out-dir", out) == 1
        assert capsys.readouterr().err.endswith(f"error: {path}: changed while it was read\n")
        assert not out.exists()
        assert not panel_cache.exists()  # nothing is cached under the first file's digest

    def test_a_panel_replaced_after_the_load_keeps_the_loaded_digest(self, tmp_path, monkeypatch):
        path = synth(tmp_path / "a")
        loaded = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        other = synth(tmp_path / "b", **{"--seed": 8})
        backtest = cli.run_backtest

        def replacing(panel, config):
            os.replace(other, path)
            return backtest(panel, config)

        monkeypatch.setattr(cli, "run_backtest", replacing)
        out = tmp_path / "out"
        assert run_cli("backtest", path, "--out-dir", out) == 0
        assert json.loads((out / "backtest.json").read_text())["manifest"]["inputs"] == {"panel.csv": loaded}
        assert _sha256(path) != loaded

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("command", ["stationarity", "backtest", "rank"])
    def test_a_pipe_is_refused_before_it_is_read(self, tmp_path, capsys, command):
        # a pipe's bytes are gone once loaded, so its digest would be that of no bytes;
        # stat does not open the pipe, so no writer is needed
        path = tmp_path / "panel.csv"
        os.mkfifo(path)
        out = tmp_path / "out"
        assert run_cli(command, path, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not a regular file; ")
        assert not out.exists()


def rewrite_entry(entry, **changes):
    """Write ``entry`` again with each named member replaced by
    ``change(old members)``, or left out where ``change`` is None."""
    with np.load(entry) as members:
        old = {name: members[name] for name in members.files}
    new = {name: old[name] for name in old if name not in changes}
    new.update((name, change(old)) for name, change in changes.items() if change is not None)
    np.savez(entry, **new)


def flip_a_quote_byte(entry):
    """Change one byte of the bids member's data, which its zip CRC covers."""
    with np.load(entry) as members:
        bids = members["bids"]
    data = bytearray(entry.read_bytes())
    data[data.index(bids.tobytes()[:64]) + 100] ^= 0xFF
    entry.write_bytes(bytes(data))
    with np.load(entry) as members, pytest.raises(zipfile.BadZipFile, match="CRC"):
        members["bids"]


class TestPanelCache:
    """A run on a panel that a run of this code has loaded before builds
    it from that run's cache entry (``seqrank._panelcache``): the same
    bytes out, with no parse and no forked reader. An entry that cannot be
    read, or a cache that cannot be written, only costs the parse."""

    RUNS = (
        ("backtest", "--strategy", "nbar", "--mode", "long-short"),
        ("backtest", "--strategy", "curds-whey", "--mode", "long-only"),
        ("stationarity", "--max-shift", "3", "--min-month-obs", "10"),
        ("rank",),
    )

    BAD_ENTRIES = {
        "empty": lambda entry: entry.write_bytes(b""),
        "not a zip": lambda entry: entry.write_bytes(b"date,asset,bid,ask\n"),
        "truncated": lambda entry: entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2]),
        "crc error": flip_a_quote_byte,
        "missing member": lambda entry: rewrite_entry(entry, asks=None),
        "other digest": lambda entry: rewrite_entry(entry, digest=lambda a: np.array("sha256:" + "0" * 64)),
        "float32 quotes": lambda entry: rewrite_entry(entry, bids=lambda a: a["bids"].astype(np.float32)),
        "a row short": lambda entry: rewrite_entry(entry, asks=lambda a: a["asks"][1:]),
        "day counts": lambda entry: rewrite_entry(entry, days=lambda a: a["days"].astype(np.int64)),
        "bytes labels": lambda entry: rewrite_entry(entry, assets=lambda a: a["assets"].astype(bytes)),
        "sectors short": lambda entry: rewrite_entry(entry, sectors=lambda a: a["sectors"][1:]),
        "asks below bids": lambda entry: rewrite_entry(entry, bids=lambda a: a["asks"], asks=lambda a: a["bids"]),
        "days out of order": lambda entry: rewrite_entry(entry, days=lambda a: a["days"][::-1]),
    }

    @pytest.fixture
    def panel_path(self, tmp_path):
        return synth(tmp_path / "panel", **{"--assets": 12, "--steps": 300, "--sectors": "x,y,z"})

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths ``cli.load_csv`` parsed during the test."""
        calls = []
        load = cli.load_csv

        def counted(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(cli, "load_csv", counted)
        return calls

    @staticmethod
    def outputs(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    @staticmethod
    def assert_same_panel(panel, expected):
        assert panel.dates == expected.dates
        assert panel.assets == expected.assets
        assert panel.sectors == expected.sectors
        for name in ("bids", "asks", "returns", "half_spread_rates"):
            assert getattr(panel, name).tobytes() == getattr(expected, name).tobytes(), name

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("run", RUNS, ids=" ".join)
    def test_a_warm_run_writes_the_cold_runs_bytes_without_a_parse(
        self, tmp_path, monkeypatch, panel_path, panel_cache, parses, forks, cpus, run
    ):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        # blocks small enough that the cold run's reader forks on two CPUs
        monkeypatch.setattr(_csvread, "_BLOCK_BYTES", 1 << 12)
        outputs, fork_counts = [], []
        for attempt in ("cold", "warm"):
            forks.clear()
            out = tmp_path / attempt
            assert run_cli(run[0], panel_path, *run[1:], "--out-dir", out) == 0
            outputs.append(self.outputs(out))
            fork_counts.append(len(forks))
        assert outputs[0] == outputs[1]
        assert parses == [panel_path]
        assert fork_counts[0] - fork_counts[1] == cpus - 1
        assert_no_child()
        assert len(list(panel_cache.iterdir())) == 1
        assert panel_cache.stat().st_mode & 0o777 == 0o700

    @pytest.mark.parametrize("damage", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
    def test_a_bad_entry_is_a_miss_and_is_replaced(self, panel_path, panel_cache, parses, damage):
        expected, inputs = cli._load(panel_path)
        (entry,) = panel_cache.iterdir()
        damage(entry)
        panel, again = cli._load(panel_path)
        assert again == inputs
        assert len(parses) == 2
        self.assert_same_panel(panel, expected)
        assert list(panel_cache.iterdir()) == [entry]
        self.assert_same_panel(cli._load(panel_path)[0], expected)
        assert len(parses) == 2

    @pytest.mark.parametrize("shared", ["directory others may write", "entry others may write", "directory of another user"])
    def test_an_entry_another_user_could_have_put_there_is_not_read(self, panel_path, panel_cache, parses, shared):
        """An entry's name can be worked out from the CSV, so the cache is
        read, and written, only where no one else could have put a valid
        entry: here a planted one of the right digest."""
        if shared == "directory of another user" and os.geteuid() != 0:
            pytest.skip("only root gives a directory away")
        expected, _ = cli._load(panel_path)
        (entry,) = panel_cache.iterdir()
        planted = entry.stat()
        if shared == "directory others may write":
            panel_cache.chmod(0o777)
        elif shared == "entry others may write":
            entry.chmod(0o666)
        else:
            os.chown(panel_cache, os.geteuid() + 1, -1)
        self.assert_same_panel(cli._load(panel_path)[0], expected)
        assert len(parses) == 2
        assert list(panel_cache.iterdir()) == [entry]
        if shared == "entry others may write":  # the directory is private: the entry is written again
            assert entry.stat().st_ino != planted.st_ino
            assert entry.stat().st_mode & 0o777 == 0o600
            cli._load(panel_path)
            assert len(parses) == 2
        else:
            assert (entry.stat().st_ino, entry.stat().st_mtime_ns) == (planted.st_ino, planted.st_mtime_ns)

    def test_one_edited_price_misses(self, panel_path, panel_cache, parses):
        first, _ = cli._load(panel_path)
        lines = panel_path.read_text().splitlines(keepends=True)
        date, asset, bid, ask, sector = lines[100].rstrip("\n").split(",")
        lines[100] = f"{date},{asset},{float(bid) * 0.999!r},{ask},{sector}\n"
        panel_path.write_text("".join(lines))
        edited, _ = cli._load(panel_path)
        assert parses == [panel_path, panel_path]
        assert edited.bids.tobytes() != first.bids.tobytes()
        assert len(list(panel_cache.iterdir())) == 2

    @pytest.mark.parametrize("module, name", [(sys, "version"), (np, "__version__")], ids=["python", "numpy"])
    def test_an_entry_of_another_version_misses(self, monkeypatch, panel_path, panel_cache, parses, module, name):
        cli._load(panel_path)
        monkeypatch.setattr(module, name, getattr(module, name) + "+other")
        cli._load(panel_path)
        assert parses == [panel_path, panel_path]
        assert len(list(panel_cache.iterdir())) == 2

    @pytest.mark.parametrize("broken", ["cache home is a file", "the write fails", "read-only directory"])
    def test_a_cache_that_cannot_be_written_costs_only_the_parse(
        self, tmp_path, monkeypatch, capsys, panel_path, panel_cache, parses, broken
    ):
        if broken == "read-only directory" and os.geteuid() == 0:
            pytest.skip("root writes into a read-only directory")
        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        out = tmp_path / "out"
        capsys.readouterr()
        runs = []
        for cache_works in (False, True):
            with monkeypatch.context() as patch:
                if cache_works:
                    panel_cache.mkdir(mode=0o700, parents=True, exist_ok=True)
                elif broken == "cache home is a file":
                    home = tmp_path / "home"
                    home.write_text("")
                    patch.setenv("XDG_CACHE_HOME", str(home))
                elif broken == "the write fails":
                    patch.setattr(_panelcache.np, "savez", disk_full)
                else:
                    panel_cache.mkdir(parents=True)
                    panel_cache.chmod(0o500)
                assert run_cli("backtest", panel_path, "--out-dir", out) == 0
            runs.append((capsys.readouterr(), self.outputs(out)))
            if not cache_works:
                assert not panel_cache.exists() or list(panel_cache.iterdir()) == []
        assert runs[0] == runs[1]
        assert len(parses) == 2
        assert len(list(panel_cache.iterdir())) == 1

    def test_a_ninth_panel_evicts_the_least_recently_used_entry(self, tmp_path, panel_cache, parses):
        paths = [synth(tmp_path / str(seed), **{"--assets": 2, "--steps": 10, "--seed": seed}) for seed in range(9)]
        entries = [_panelcache._entry(panel_cache, _sha256(path)) for path in paths]
        now = time.time()
        for age, (path, entry) in enumerate(zip(paths[: _panelcache.KEEP], entries)):
            cli._load(path)
            os.utime(entry, (now - 100 + age, now - 100 + age))
        (panel_cache / ".left-over.tmp").write_bytes(b"")
        cli._load(paths[0])  # a hit: the oldest entry becomes the most recently used
        assert len(parses) == _panelcache.KEEP
        cli._load(paths[-1])
        assert len(parses) == _panelcache.KEEP + 1
        assert sorted(panel_cache.iterdir()) == sorted(entries[:1] + entries[2:])

    def test_a_panel_that_fails_to_load_leaves_no_entry(self, tmp_path, capsys, panel_path, panel_cache):
        lines = panel_path.read_text().splitlines(keepends=True)
        date, asset, _, ask, sector = lines[100].rstrip("\n").split(",")
        lines[100] = f"{date},{asset},n/a,{ask},{sector}\n"
        panel_path.write_text("".join(lines))
        assert run_cli("backtest", panel_path, "--out-dir", tmp_path / "out") == 1
        assert str(panel_path) in capsys.readouterr().err
        assert not panel_cache.exists()

    @pytest.mark.parametrize("command", ["stationarity", "backtest", "rank"])
    def test_a_panel_replaced_during_the_digest_fails_the_run_on_a_warm_cache(
        self, tmp_path, monkeypatch, capsys, panel_path, panel_cache, parses, command
    ):
        other = synth(tmp_path / "other", **{"--seed": 8})
        cli._load(panel_path)
        digest = cli._sha256

        def replacing(path):
            result = digest(path)
            os.replace(other, path)
            return result

        monkeypatch.setattr(cli, "_sha256", replacing)
        out = tmp_path / "out"
        assert run_cli(command, panel_path, "--out-dir", out) == 1
        assert capsys.readouterr().err.endswith(f"error: {panel_path}: changed while it was read\n")
        assert not out.exists()
        assert parses == [panel_path]  # the second run read the entry
        assert len(list(panel_cache.iterdir())) == 1


class TestRowOrder:
    """A panel's rows may come in any order across assets on a date: the
    outputs keep every byte but the manifest's input digest."""

    RUNS = (
        ("backtest", "--strategy", "nbar", "--mode", "long-short"),
        ("rank", "--tau", "0.99"),
        ("stationarity", "--max-shift", "3", "--min-month-obs", "10"),
    )

    def test_each_dates_rows_in_another_asset_order(self, tmp_path):
        path = synth(tmp_path / "panel", **{"--assets": 12, "--steps": 300, "--sectors": "énergie,łódź,日本"})
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rng = np.random.default_rng(11)
        moved = tmp_path / "moved" / "panel.csv"
        moved.parent.mkdir()
        with moved.open("w", encoding="utf-8", newline="") as handle:
            handle.write(header)
            for start in range(0, len(rows), 12):  # one date's rows, in asset order
                handle.writelines(rows[start + i] for i in rng.permutation(12))
        assert moved.read_bytes() != path.read_bytes()
        digests = [_sha256(p) for p in (path, moved)]
        for run in self.RUNS:
            outs = [tmp_path / f"{run[0]}-{i}" for i in range(2)]
            for panel, out in zip((path, moved), outs):
                assert run_cli(run[0], panel, *run[1:], "--out-dir", out) == 0
            names = sorted(p.name for p in outs[0].iterdir())
            assert names == sorted(p.name for p in outs[1].iterdir())
            texts = [(outs[0] / name).read_text(encoding="utf-8") for name in names]
            assert any(digests[0] in text for text in texts), run  # a manifest names the input
            for name, before in zip(names, texts):
                assert before.replace(*digests) == (outs[1] / name).read_text(encoding="utf-8"), (run, name)


class TestSplit:
    """A whole-history split by a power of two scales mids exactly, so the
    returns and spread rates keep their bits: every output keeps its bytes
    but the manifests' input digest and the split assets' ADF price blocks.
    There the intercept scales by the factor, to rounding, and the slope and
    t statistic move by at most a few ulps, since the regression's sums
    round in another order."""

    RUNS = (
        ("backtest", "--strategy", "nbar", "--mode", "long-short"),
        ("backtest", "--strategy", "curds-whey", "--mode", "long-only"),
        ("rank",),
        ("stationarity", "--max-shift", "3", "--min-month-obs", "10"),
    )
    SPLIT = ("A003", "A010")

    def split_panels(self, tmp_path, factor):
        """The synth panel and a copy with the ``SPLIT`` assets' quotes times
        ``factor``, and the two files' digests."""
        path = synth(tmp_path / "panel", **{"--assets": 12, "--steps": 300, "--sectors": "x,y,z"})
        header, *rows = path.read_text().splitlines(keepends=True)
        split = tmp_path / "split" / "panel.csv"
        split.parent.mkdir()
        with split.open("w", newline="") as handle:
            handle.write(header)
            for row in rows:
                date, asset, bid, ask, sector = row.rstrip("\n").split(",")
                if asset in self.SPLIT:
                    bid, ask = repr(factor * float(bid)), repr(factor * float(ask))
                handle.write(f"{date},{asset},{bid},{ask},{sector}\n")
        return (path, split), [_sha256(p) for p in (path, split)]

    def run_both(self, tmp_path, panels, run):
        """The text of each file ``run`` writes, for each panel."""
        outs = [tmp_path / f"{'-'.join(run)}-{i}" for i in range(2)]
        for panel, out in zip(panels, outs):
            assert run_cli(*run[:1], panel, *run[1:], "--out-dir", out) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        return {name: [(out / name).read_text() for out in outs] for name in names}

    def test_two_assets_quoted_four_times_higher(self, tmp_path):
        panels, digests = self.split_panels(tmp_path, 4)
        for run in self.RUNS:
            for name, (before, after) in self.run_both(tmp_path, panels, run).items():
                before = before.replace(*digests)
                if name == "stationarity.json":
                    after = self.undo_split(json.loads(before), json.loads(after))
                assert before == after, (run, name)

    # a factor that is not a power of two rounds the split assets' mids, so
    # their returns move by an ulp or so; on this panel no selection changes
    BACKTESTS = (
        ("--strategy", "nbar", "--mode", "long-short"),
        ("--strategy", "nbar", "--mode", "long-short", "--nbar-input", "realised"),
        ("--strategy", "nbar", "--mode", "long-only", "--nbar-membership", "by-forecast"),
        ("--strategy", "curds-whey", "--mode", "long-only"),
        ("--strategy", "curds-whey", "--mode", "long-short"),
    )

    def test_two_assets_quoted_three_times_higher(self, tmp_path):
        """The legs, their sizes, the sector counts and the turnover stay;
        each day's returns and cost move by at most a few ulps of 1 and the
        metrics by a relative 1e-9 at most; the ranking keeps its bytes."""
        panels, digests = self.split_panels(tmp_path, 3)
        for run in self.BACKTESTS:
            before, after = (json.loads(text) for text in self.run_both(tmp_path, panels, ("backtest", *run))["backtest.json"])
            assert after["manifest"]["inputs"] == {"panel.csv": digests[1]}
            after["manifest"]["inputs"] = before["manifest"]["inputs"]
            assert after["manifest"] == before["manifest"]
            assert after["sector_selection"] == before["sector_selection"]
            assert len(after["days"]) == len(before["days"])
            for old, new in zip(before["days"], after["days"]):
                for key in ("date", "n_long", "n_short", "turnover"):
                    assert new[key] == old[key], (run, key)
                for key in ("gross", "cost", "net", "benchmark"):
                    assert new[key] == pytest.approx(old[key], rel=0.0, abs=1e-15), (run, old["date"], key)
            for side in ("strategy", "benchmark"):
                assert after["metrics"][side] == pytest.approx(before["metrics"][side], rel=1e-9), (run, side)
        files = self.run_both(tmp_path, panels, ("rank",))
        assert files["rank.jsonl"][0] == files["rank.jsonl"][1]

    def undo_split(self, before, after):
        """``after``'s text with the split assets' ADF price blocks put back
        as in ``before``, once they are checked against it."""
        moved = 0
        for old, new in zip(before["report"]["assets"], after["report"]["assets"]):
            if old["asset"] not in self.SPLIT:
                continue
            old, new = old["adf_price"], new["adf_price"]
            assert abs(new["theta0"] - 4 * old["theta0"]) <= 4 * math.ulp(4 * old["theta0"])
            for key in ("theta1", "t_stat"):
                assert new[key] == pytest.approx(old[key], rel=1e-14, abs=0.0), key
            moved += new != old
            new.update(theta0=old["theta0"], theta1=old["theta1"], t_stat=old["t_stat"])
            assert new == old  # the critical values, the rejections and nobs
        assert moved == len(self.SPLIT)
        return "".join(json_chunks(after))


class TestBlasThreads:
    """The OpenBLAS thread count, read when numpy loads, splits the
    forecaster's products another way and moves its floats: on this d = 128,
    400-step panel 1 270 of its 51 072 forecasts move, by up to 1.9e-13
    relative. The reports keep their decisions: every key, count, string
    and curds-whey's turnover (its weights depend on the legs alone)
    exactly, and every other float within 1e-12 relative, or 1e-15 for a
    float that rounds to a few ulps of 1 near 0."""

    RUNS = {
        "nbar-long-short": ("--strategy", "nbar", "--mode", "long-short"),
        "curds-whey-long-only": ("--strategy", "curds-whey", "--mode", "long-only"),
        "nbar-by-forecast": ("--strategy", "nbar", "--mode", "long-short", "--nbar-membership", "by-forecast"),
    }
    CHILD = (
        "import json, sys\n"
        "from seqrank.cli import main\n"
        "panel, out, runs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])\n"
        "for name, flags in runs.items():\n"
        "    assert main(['backtest', panel, *flags, '--out-dir', f'{out}/{name}']) == 0\n"
    )

    def reports(self, panel, out, threads):
        """Each run's ``backtest.json``, from a child process with ``threads`` OpenBLAS threads."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(seqrank.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(panel), str(out), json.dumps(self.RUNS)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        return {name: json.loads((out / name / "backtest.json").read_text()) for name in self.RUNS}

    def test_one_thread_or_two(self, tmp_path):
        panel = synth(tmp_path / "panel", **{"--assets": 128, "--steps": 400, "--seed": 7,
                                             "--jumps": 0.03, "--jump-std": 0.03, "--corr": 0.2})
        one, two = (self.reports(panel, tmp_path / f"threads-{k}", k) for k in (1, 2))
        for name in self.RUNS:
            assert_close_leaves(one[name], two[name], turnover_exact=name.startswith("curds-whey"), where=(name,))


class TestSurface:
    """The subcommands' flags, and the defaults an omitted flag takes: the
    library's own, from its configs and the report's signature."""

    ARGUMENTS = {
        "synth": [
            "--help", "--assets", "--steps", "--seed", "--drift", "--vol", "--jumps", "--jump-mean",
            "--jump-std", "--corr", "--spread", "--start-price", "--start-date", "--sectors", "--out-dir",
        ],
        "stationarity": [
            "--help", "panel", "--max-shift", "--alpha", "--sidedness", "--min-month-obs", "--out-dir",
        ],
        "backtest": [
            "--help", "panel", "--mode", "--strategy", "--tau", "--lambda", "--decile", "--nbar-input",
            "--nbar-membership", "--cost", "--out-dir",
        ],
        "rank": ["--help", "panel", "--tau", "--out-dir"],
    }
    CHOICES = {
        "--sidedness": SIDEDNESS_VALUES,
        "--mode": MODES,
        "--strategy": STRATEGIES,
        "--nbar-input": NBAR_INPUTS,
        "--nbar-membership": NBAR_MEMBERSHIPS,
        "--cost": COST_MODELS,
    }

    def test_flags_and_choices(self):
        parser = cli.build_parser()
        (commands,) = [action for action in parser._actions if action.choices and action.dest == "command"]
        assert list(commands.choices) == list(self.ARGUMENTS)
        choices = {}
        for name, command in commands.choices.items():
            arguments = [action.option_strings[-1] if action.option_strings else action.dest
                         for action in command._actions]
            assert arguments == self.ARGUMENTS[name], name
            choices.update(
                (action.option_strings[-1], action.choices) for action in command._actions if action.choices
            )
        assert choices == self.CHOICES

    def test_omitted_flags_take_the_library_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for command in ("synth", "stationarity", "backtest", "rank"):
            assert run_cli(command, *(["panel.csv"] if command != "synth" else [])) == 0, command

        def manifest(name):
            payload = json.loads((tmp_path / name).read_text())
            return payload.get("manifest", payload)

        synth_config = dataclasses.asdict(JumpDiffusionConfig(n_assets=10))
        seed = synth_config.pop("seed")
        synth_config.update(start_date=synth_config["start_date"].isoformat(), sectors=None)
        assert manifest("panel.manifest.json")["config"] == synth_config
        assert manifest("panel.manifest.json")["seed"] == seed
        report_defaults = {
            name: parameter.default
            for name, parameter in inspect.signature(monthly_stationarity_report).parameters.items()
            if parameter.default is not parameter.empty
        }
        assert manifest("stationarity.json")["config"] == {"panel": "panel.csv", **report_defaults}
        assert manifest("backtest.json")["config"] == {"panel": "panel.csv", **dataclasses.asdict(BacktestConfig())}
        assert manifest("rank.manifest.json")["config"] == {"panel": "panel.csv", "tau": BacktestConfig.tau}


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "seqrank", "synth", "--assets", "4", "--steps", "30",
             "--seed", "1", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "panel.csv").exists()

    def test_import_leaves_scipy_unloaded(self):
        src = Path(seqrank.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, seqrank, seqrank.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_backtest_leaves_scipy_unloaded(self, tmp_path):
        # the forecaster and the ranker are numpy only; scipy.linalg alone
        # takes about a quarter second to import
        path = synth(tmp_path, **{"--steps": 200, "--assets": 5})
        src = Path(seqrank.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from seqrank.cli import main; "
             f"code = main(['backtest', {str(path)!r}, '--strategy', 'nbar', '--mode', 'long-short', "
             f"'--out-dir', {str(tmp_path / 'out')!r}]); "
             "print(code, 'scipy' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "out" / "backtest.json").exists()

    def test_stationarity_leaves_scipy_unloaded(self, tmp_path):
        # the t and F quantiles are numpy only; scipy.special alone took
        # 0.14-0.27 s to import
        path = synth(tmp_path, **{"--steps": 200, "--assets": 3})
        src = Path(seqrank.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from seqrank.cli import main; "
             f"code = main(['stationarity', {str(path)!r}, '--max-shift', '2', "
             f"'--out-dir', {str(tmp_path)!r}]); "
             "print(code, any(name.split('.')[0] == 'scipy' for name in sys.modules))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_stationarity_and_backtest_leave_numpy_ma_unloaded(self, tmp_path):
        # np.percentile and a plain np.unique import numpy.ma, 15-18 ms
        path = synth(tmp_path, **{"--steps": 200, "--assets": 3})
        src = Path(seqrank.__file__).resolve().parents[1]
        runs = [["stationarity", str(path), "--max-shift", "2", "--out-dir", str(tmp_path / "s")],
                ["backtest", str(path), "--out-dir", str(tmp_path / "b")]]
        for argv in runs:
            result = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from seqrank.cli import main; "
                 f"code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)"],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines()[-1] == "0 False", argv[0]

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        # an import of scipy raises ImportError in the child; each subcommand
        # writes the bytes it writes in this process, where scipy imports
        src = Path(seqrank.__file__).resolve().parents[1]
        runs = [
            ["synth", "--assets", "4", "--steps", "260", "--seed", "2"],
            ["stationarity", "{panel}", "--max-shift", "3", "--alpha", "0.1", "--sidedness", "two-sided"],
            ["backtest", "{panel}", "--strategy", "nbar", "--mode", "long-short"],
            ["rank", "{panel}"],
        ]
        panel = tmp_path / "here" / "synth" / "panel.csv"
        for where in ("here", "blocked"):
            argvs = [[arg.replace("{panel}", str(panel)) for arg in argv]
                     + ["--out-dir", str(tmp_path / where / argv[0])] for argv in runs]
            if where == "here":
                assert all(main(argv) == 0 for argv in argvs)
                continue
            result = subprocess.run(
                [sys.executable, "-c",
                 "import sys; sys.modules['scipy'] = None; from seqrank.cli import main; "
                 f"print([main(argv) for argv in {argvs!r}])"],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0]"
        for argv in runs:
            files = sorted(path.name for path in (tmp_path / "here" / argv[0]).iterdir())
            assert files == sorted(path.name for path in (tmp_path / "blocked" / argv[0]).iterdir())
            for name in files:
                assert (tmp_path / "here" / argv[0] / name).read_bytes() == (
                    tmp_path / "blocked" / argv[0] / name).read_bytes(), (argv[0], name)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "seqrank" in capsys.readouterr().out
