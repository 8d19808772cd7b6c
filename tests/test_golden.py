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
tests. On x86-64 the cases run again on the same panels under other
kernels, whose outputs keep every decision and move floats by ulps only.

To print the current digests (for that deliberate update only)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import seqrank
from seqrank.cli import main

from conftest import assert_close_leaves

DIGESTS = Path(__file__).with_name("golden_digests.json")
# the OpenBLAS kernel the digests are pinned to: AVX2, which every x86-64
# runner in use today has
KERNEL = "Haswell"


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as info:
            return next((set(line.split(":", 1)[1].split()) for line in info if line.startswith("flags")), set())
    except OSError:
        return set()


# kernels that sum products in other orders: AVX, SSE3 and, where the CPU
# has AVX-512, SkylakeX (a kernel the CPU cannot run may die by SIGILL)
OTHER_KERNELS = ["Sandybridge", "Prescott"] + (["SkylakeX"] if "avx512f" in _cpu_flags() else [])

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


def run_cases(root: Path, out: Path) -> None:
    """Run every case on the panels under ``root``, each into ``out / case``."""
    for case, (panel, argv) in RUNS.items():
        command, *flags = argv
        panel_path = root / f"panel-{panel}" / "panel.csv"
        assert main([command, str(panel_path), *flags, "--out-dir", str(out / case)]) == 0


def compute_digests(root: Path) -> dict[str, dict[str, str]]:
    """Run every panel and case under ``root``; digests per case and file."""
    result = {}
    for name, flags in PANELS.items():
        out = root / f"panel-{name}"
        assert main(["synth", *SYNTH_FLAGS, *flags, "--out-dir", str(out)]) == 0
        result[f"synth-{name}"] = _digests(out)
    run_cases(root, root)
    return {**result, **{case: _digests(root / case) for case in RUNS}}


def in_child(kernel: str, *args: str) -> str:
    """The output of this file run with ``args`` in a child process whose
    OpenBLAS runs ``kernel``. The child imports the seqrank that this
    process imported."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(seqrank.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, __file__, *args], env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, f"golden cases under OPENBLAS_CORETYPE={kernel} failed:\n{child.stderr}"
    return child.stdout


def pinned_digests(root: Path) -> dict[str, dict[str, str]]:
    """``compute_digests(root)`` in a child process whose OpenBLAS runs ``KERNEL``."""
    return json.loads(in_child(KERNEL, "--child", str(root)))


@pytest.fixture(scope="module")
def golden_root(tmp_path_factory):
    """The golden panels, and the cases run on them under ``KERNEL``, once ``current`` has run."""
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def current(golden_root):
    return pinned_digests(golden_root)


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


def _leaves(path: Path):
    """A JSON, JSON-lines or CSV output parsed, each CSV cell that reads as a
    float as one; None for the SVG chart and the text table, which draw and
    round the JSON's values."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()]
    if path.suffix == ".csv":
        return [[_float_or_text(cell) for cell in row] for row in csv.reader(path.read_text().splitlines())]
    return None


def _float_or_text(cell: str) -> float | str:
    try:
        return float(cell)
    except ValueError:
        return cell


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 OpenBLAS kernels")
@pytest.mark.parametrize("kernel", OTHER_KERNELS)
def test_another_kernel_moves_floats_not_decisions(current, golden_root, tmp_path, kernel):
    # every key, count, string, flag and curds-whey's turnover (its weights
    # depend on the legs alone) exact; other floats within 1e-12 relative
    in_child(kernel, "--cases", str(golden_root), str(tmp_path))
    for case in RUNS:
        names = sorted(path.name for path in (golden_root / case).iterdir())
        assert names == sorted(path.name for path in (tmp_path / case).iterdir()), case
        for name in names:
            assert_close_leaves(_leaves(golden_root / case / name), _leaves(tmp_path / case / name),
                                turnover_exact="-cw-" in case, where=(kernel, case, name))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cases"]:  # the cases alone, on the panels under argv[2]
        with contextlib.redirect_stdout(io.StringIO()):
            run_cases(Path(sys.argv[2]), Path(sys.argv[3]))
        sys.exit()
    if sys.argv[1:2] == ["--child"]:
        with contextlib.redirect_stdout(io.StringIO()):
            digests = compute_digests(Path(sys.argv[2]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            digests = pinned_digests(Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
