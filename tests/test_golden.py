"""Golden SHA-256 digests of every CLI output on small seeded panels.

The digests in ``golden_digests.json`` pin the bytes of ``panel.csv``,
``backtest.json``, ``equity.csv``, ``rank.jsonl``, ``stationarity.json``
and their companions. A refactor that claims byte identity must leave
them unchanged. A change that moves a digest on purpose updates the file
by hand and reports, per field, the largest numeric difference and why it
moved; the digests are never regenerated silently.

To print the current digests (for that deliberate update only)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from seqrank.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

SYNTH_FLAGS = [
    "--assets", "12", "--steps", "300", "--drift", "0.0003", "--vol", "0.012",
    "--jumps", "0.03", "--jump-mean", "-0.01", "--jump-std", "0.03", "--corr", "0.2",
    "--spread", "0.002",
]
PANELS = {
    "plain": ["--seed", "3"],
    "sectors": ["--seed", "5", "--sectors", "tech,energy,life sciences"],
}
# case name -> (panel, subcommand and flags)
RUNS = {
    "backtest-cw-long-only-half-spread": (
        "plain", ["backtest", "--strategy", "curds-whey", "--mode", "long-only"]),
    "backtest-cw-long-short-zero": (
        "sectors", ["backtest", "--strategy", "curds-whey", "--mode", "long-short", "--cost", "zero"]),
    "backtest-nbar-long-short-forecasts": (
        "plain", ["backtest", "--strategy", "nbar", "--mode", "long-short"]),
    "backtest-nbar-long-only-realised-zero": (
        "sectors", ["backtest", "--strategy", "nbar", "--mode", "long-only",
                    "--nbar-input", "realised", "--cost", "zero"]),
    "backtest-nbar-long-short-by-forecast": (
        "sectors", ["backtest", "--strategy", "nbar", "--mode", "long-short",
                    "--nbar-membership", "by-forecast", "--tau", "0.99"]),
    "rank": ("plain", ["rank", "--tau", "0.99"]),
    "stationarity": ("sectors", ["stationarity", "--max-shift", "3", "--min-month-obs", "10"]),
}


def _digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def compute_digests(root: Path) -> dict[str, dict[str, str]]:
    """Run every panel and case under ``root``; digests per case and file."""
    result = {}
    for name, flags in PANELS.items():
        out = root / f"panel-{name}"
        assert main(["synth", *SYNTH_FLAGS, *flags, "--out-dir", str(out)]) == 0
        result[f"synth-{name}"] = _digests(out)
    for case, (panel, argv) in RUNS.items():
        out = root / case
        command, *flags = argv
        panel_path = root / f"panel-{panel}" / "panel.csv"
        assert main([command, str(panel_path), *flags, "--out-dir", str(out)]) == 0
        result[case] = _digests(out)
    return result


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


def test_every_case_is_pinned(current):
    expected = json.loads(DIGESTS.read_text())
    assert sorted(current) == sorted(expected)
    for case in expected:
        assert sorted(current[case]) == sorted(expected[case]), case


@pytest.mark.parametrize("case", [f"synth-{name}" for name in PANELS] + list(RUNS))
def test_outputs_match_golden_digests(current, case):
    expected = json.loads(DIGESTS.read_text())[case]
    moved = [name for name in expected if current[case].get(name) != expected[name]]
    assert not moved, f"{case}: outputs changed bytes: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = compute_digests(Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
