"""Command-line surface: outputs, determinism, and failure behaviour."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqrank
import seqrank.cli as cli
from seqrank import JumpDiffusionConfig, load_csv, write_csv
from seqrank.cli import _emit, _sha256, json_chunks, main

from conftest import constant_growth_panel, dominance_panel


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
        assert "absent.csv" in capsys.readouterr().err


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

    @pytest.fixture
    def panel_path(self, tmp_path):
        assert run_cli("synth", "--assets", 3, "--steps", 300, "--seed", 1, "--out-dir", tmp_path) == 0
        path = tmp_path / "panel.csv"
        lines = path.read_text().splitlines(keepends=True)
        tiny = [i for i, line in enumerate(lines) if line.startswith("2018-06-01,A000,")]
        assert len(tiny) == 1
        lines[tiny[0]] = "2018-06-01,A000,1e-98,1e-98\n"
        path.write_text("".join(lines))
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
        with pytest.raises(TypeError):
            "".join(json_chunks({"a": {(1, 2): [0]}}))

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
        self, tmp_path, monkeypatch, capsys
    ):
        path = synth(tmp_path / "panel", **{"--steps": 300, "--assets": 4})
        out = tmp_path / "out"
        assert run_cli("stationarity", path, "--max-shift", 3, "--out-dir", out) == 0
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        report_of = cli.monthly_stationarity_report

        def nan_in_last_test(*args, **kwargs):
            report = report_of(*args, **kwargs)
            t_stat = report.t_stat.copy()
            t_stat[tuple(np.argwhere(report.tested)[-1])] = math.nan
            return dataclasses.replace(report, t_stat=t_stat)

        monkeypatch.setattr(cli, "monthly_stationarity_report", nan_in_last_test)
        capsys.readouterr()
        assert run_cli("stationarity", path, "--max-shift", 3, "--out-dir", out) == 1
        assert "error:" in capsys.readouterr().err
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
    def test_a_panel_replaced_during_the_load_fails_the_run(self, tmp_path, monkeypatch, capsys, command):
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

    def test_stationarity_leaves_scipy_stats_unloaded(self, tmp_path):
        # scipy.stats takes about three times as long to import as scipy.special
        path = synth(tmp_path, **{"--steps": 200, "--assets": 3})
        src = Path(seqrank.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from seqrank.cli import main; "
             f"code = main(['stationarity', {str(path)!r}, '--max-shift', '2', "
             f"'--out-dir', {str(tmp_path)!r}]); "
             "print(code, 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 True False"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "seqrank" in capsys.readouterr().out
