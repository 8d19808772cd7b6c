"""The example scripts under ``scripts/`` run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    """The standard output of ``scripts/<name>`` run with ``args`` in a new
    interpreter that imports seqrank from this checkout's ``src``."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_run_experiment_writes_both_report_types(tmp_path):
    out = tmp_path / "out"
    stdout = run_script("run_experiment.py", "--assets", "12", "--steps", "300", "--out-dir", str(out))
    runs = ("cw_long", "cw_ls", "nbar_long", "nbar_ls")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"backtest_{run}.json" for run in runs]
        + ["equity.csv", "equity.svg", "panel.csv", "stationarity.json"]
    )
    stationarity = json.loads((out / "stationarity.json").read_text())
    assert len(stationarity["assets"]) == 12
    assert [item["shift"] for item in stationarity["rejection_by_shift"]] == [1, 2, 3, 4, 5, 6]
    for run in runs:
        report = json.loads((out / f"backtest_{run}.json").read_text())
        assert len(report["days"]) == 299
        assert report["metrics"]["strategy"]["days"] == 299
    # a header and one line per day
    assert len((out / "equity.csv").read_text().splitlines()) == 300
    assert "monthly return diagnostics" in stdout
    assert "long/short selections by sector (nbar):" in stdout
    assert "net-of-cost performance:" in stdout


def test_ranker_switch_demo_finds_every_flip():
    stdout = run_script("ranker_switch_demo.py", "--pre-steps", "200")
    assert stdout.startswith("dominance for 200 steps, then a full reversal\n")
    flips = {
        fields[0]: fields[1]
        for fields in map(str.split, stdout.splitlines())
        if len(fields) == 2 and fields[0].startswith("0.")
    }
    assert list(flips) == ["0.99", "0.995", "0.999", "0.9995"]
    assert all(steps.isdigit() for steps in flips.values())
    assert "posterior trajectory at tau=0.999" in stdout
