"""Golden SHA-256 digests of every CLI output on small seeded panels.

The digests in ``golden_digests.json`` pin the bytes of ``panel.csv``,
``backtest.json``, ``equity.csv``, ``rank.jsonl``, ``stationarity.json``
and their companions. A refactor that claims byte identity must leave
them unchanged. A change that moves a digest on purpose updates the file
by hand and reports, per field, the largest numeric difference and why it
moved; the digests are never regenerated silently.

numpy's OpenBLAS picks its kernels from the CPU when it loads, and kernels
for different CPUs sum products in different orders, so the digests hold
for one kernel. The cases run in a child process that pins ``KERNEL``
through ``OPENBLAS_CORETYPE``, which is read only when numpy loads; the
digests then do not depend on the kernel of the process that runs the
tests.

To print the current digests (for that deliberate update only)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import seqrank
from seqrank.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
# the OpenBLAS kernel the digests are pinned to: AVX2, which every x86-64
# runner in use today has
KERNEL = "Haswell"

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


def pinned_digests(root: Path) -> dict[str, dict[str, str]]:
    """``compute_digests(root)`` in a child process whose OpenBLAS runs ``KERNEL``.

    The child imports the seqrank that this process imported.
    """
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(seqrank.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, __file__, "--child", str(root)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, f"golden cases under OPENBLAS_CORETYPE={KERNEL} failed:\n{child.stderr}"
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return pinned_digests(tmp_path_factory.mktemp("golden"))


def test_every_case_is_pinned(current):
    expected = json.loads(DIGESTS.read_text())
    assert sorted(current) == sorted(expected)
    for case in expected:
        assert sorted(current[case]) == sorted(expected[case]), case


@pytest.mark.parametrize("case", [f"synth-{name}" for name in PANELS] + list(RUNS))
def test_outputs_match_golden_digests(current, case):
    expected = json.loads(DIGESTS.read_text())[case]
    moved = [name for name in expected if current[case].get(name) != expected[name]]
    assert not moved, f"{case}: outputs changed bytes under OPENBLAS_CORETYPE={KERNEL}: {moved}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        with contextlib.redirect_stdout(io.StringIO()):
            digests = compute_digests(Path(sys.argv[2]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            digests = pinned_digests(Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
