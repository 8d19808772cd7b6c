#!/usr/bin/env python3
"""seqrank benchmark: paper-scale workloads over the CLI and the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program under test is the checkout's
own ``src/``. Each run sets up the workload's input from ``--seed``, then
runs measured rounds of the workload, one process at a time (a closed
loop), while another round fits in ``--seconds``; at least one round runs.
Every output is checked (see ``checks.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones, from a
traced round, with ``--trace 1``. See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import spans
import sweep

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = HERE / "_runs"
SETUP_REPEATS = 3
# measured rounds of a CLI workload that run even past --seconds: one round
# alone varied by 30% to 50% between neighbouring runs on the reference host
MIN_CLI_ROUNDS = 2
# the sweep's in-memory set-up takes ~0.1 s, but its first calls in a process
# can take four times that, so it repeats more often before the median
SWEEP_SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 170.0
MB = float(1 << 20)

SPREAD = 0.001
# synth flags shared by the CLI workloads' panels: one common drift (synth
# takes no per-asset drift), jumps, cross-correlation and a constant spread
SYNTH_FLAGS = [
    "--drift", "0.0002", "--vol", "0.012", "--jumps", "0.03", "--jump-mean", "-0.01",
    "--jump-std", "0.03", "--corr", "0.2", "--spread", str(SPREAD),
]
SECTOR_LABELS = "manufacturing,energy,trade,life sciences,finance"
MIN_MONTH_OBS = 12


@dataclass(frozen=True)
class CliWorkload:
    assets: int
    steps: int
    sectors: bool
    command: tuple[str, ...]
    # check(out_dir, panel, panel_path, panel_sha, seed) -> errors
    check: Callable[[Path, checks.Panel, Path, str, int], list[str]]


CLI_WORKLOADS = {
    "backtest-sp250": CliWorkload(
        250, 2500, True,
        ("backtest", "{panel}", "--strategy", "nbar", "--mode", "long-short", "--cost", "half-spread"),
        lambda out, panel, path, sha, seed: checks.check_backtest_dir(out, panel, path, sha, SPREAD),
    ),
    "stationarity-d50": CliWorkload(
        50, 2500, False, ("stationarity", "{panel}"),
        lambda out, panel, path, sha, seed: checks.check_stationarity_dir(out, panel, path, sha, MIN_MONTH_OBS, seed),
    ),
}
WORKLOADS = ("backtest-sp250", "stationarity-d50", "sweep-sp250")
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"), ("output_mb", "MB"))


@dataclass(frozen=True)
class Proc:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    returncode: int


def run_process(argv: list[str], log_path: Path) -> Proc:
    """Run one process to its end; peak RSS and CPU come from its own wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss * 1024 / MB, usage.ru_utime + usage.ru_stime, proc.returncode)


def cli_argv(args: list[str], spans_path: Path | None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "seqrank", *args]
    return [sys.executable, str(HERE / "spans.py"), str(spans_path), repr(time.time()), "--", *args]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


class Outcome:
    """Operation tallies and timings of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.cpu: list[float] = []
        self.output_bytes: list[int] = []
        self.setup_s = 0.0
        self.traces: list[dict] = []

    def op(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors[:10]:
                print(f"FAILED {label}: {error}", file=sys.stderr)


def _checked(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception:  # an unreadable output fails its operation, not the run
        return [traceback.format_exc(limit=3)]


def run_cli(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> Outcome:
    workload = CLI_WORKLOADS[name]
    result = Outcome()
    panel_dir, out_dir = run_dir / "panel", run_dir / "out"
    log = run_dir / "process.log"
    synth = ["synth", "--assets", str(workload.assets), "--steps", str(workload.steps),
             "--seed", str(seed), *SYNTH_FLAGS, "--out-dir", str(panel_dir)]
    if workload.sectors:
        synth += ["--sectors", SECTOR_LABELS]
    setup_walls, digests, setup_traces = [], set(), []
    for rep in range(1 if trace else SETUP_REPEATS):
        spans_path = run_dir / f"setup{rep}.spans.json" if trace else None
        proc = run_process(cli_argv(synth, spans_path), log)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up synth exited with {proc.returncode}; see {log}")
        setup_walls.append(proc.wall_s)
        digests.add(tuple(checks.sha256_file(f) for f in sorted(panel_dir.iterdir())))
        if spans_path is not None:
            setup_traces.append({**json.loads(spans_path.read_text()), "setup": True})
    if len(digests) != 1:
        print("set-up: repeated synth runs wrote different files", file=sys.stderr)
        result.correct = False
    result.setup_s = statistics.median(setup_walls)

    panel_path = panel_dir / "panel.csv"
    panel = checks.read_panel_csv(panel_path)
    panel_sha = checks.sha256_file(panel_path)
    command = [arg.replace("{panel}", str(panel_path)) for arg in workload.command] + ["--out-dir", str(out_dir)]
    first_digests = first_errors = None
    measured = 0.0
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path = run_dir / f"round{result.attempted}.spans.json" if trace else None
        proc = run_process(cli_argv(command, spans_path), log)
        errors = [f"exit code {proc.returncode}"] if proc.returncode != 0 else []
        if not errors:
            digests = {f.name: checks.sha256_file(f) for f in sorted(out_dir.iterdir())}
            if first_digests is None:
                first_digests = digests
                first_errors = _checked(workload.check, out_dir, panel, panel_path, panel_sha, seed)
            # byte-identical to the checked first round, so its verdict holds
            errors = list(first_errors) if digests == first_digests else ["outputs differ from the first round's"]
            result.output_bytes.append(dir_bytes(out_dir))
        if spans_path is not None and spans_path.exists():
            result.traces.append(json.loads(spans_path.read_text()))
        result.op(f"{name} round {result.attempted}", errors)
        result.walls.append(proc.wall_s)
        result.rss.append(proc.peak_rss_mb)
        result.cpu.append(proc.cpu_s)
        measured += proc.wall_s
        if trace or (result.attempted >= MIN_CLI_ROUNDS and measured + proc.wall_s > seconds):
            break
    result.traces += setup_traces
    return result


def run_sweep(seed: int, seconds: float, trace: bool, run_dir: Path) -> Outcome:
    result = Outcome()
    (run_dir / "out").mkdir()
    spans_path = run_dir / "sweep.spans.json"
    argv = [sys.executable, str(HERE / "sweep.py"), str(run_dir), str(seed),
            str(1 if trace else SWEEP_SETUP_REPEATS), repr(seconds), repr(time.time())]
    proc = run_process(argv + ([str(spans_path)] if trace else []), run_dir / "process.log")
    if proc.returncode != 0:
        raise RuntimeError(f"sweep worker exited with {proc.returncode}; see {run_dir / 'process.log'}")
    summary = json.loads((run_dir / "sweep.json").read_text())
    for error in summary["errors"]:
        print(error, file=sys.stderr)
        result.correct = False
    with np.load(run_dir / "panel.npz") as quotes:
        panel = checks.Panel(quotes["dates"], [], quotes["bids"], quotes["asks"])
    out_dir = run_dir / "out"

    def check_config(config_name: str) -> list[str]:
        report = json.loads((out_dir / f"backtest_{config_name}.json").read_text())
        equity = (out_dir / "equity.csv").read_text() if config_name == sweep.EQUITY_CONFIG else None
        return checks.check_backtest(report, panel, summary["spread"], equity_csv=equity)

    check_errors = {config: _checked(check_config, config) for config in sweep.CONFIGS}
    for index, ops in enumerate(summary["rounds"]):
        for config, op in ops.items():
            errors = [op["error"]] if op["error"] else check_errors[config]
            result.op(f"sweep-sp250 round {index} {config}", errors)
        result.walls.append(sum(op["s"] for op in ops.values()))
    result.rss.append(proc.peak_rss_mb)
    result.cpu.append(proc.cpu_s)
    result.output_bytes.append(dir_bytes(out_dir))
    result.setup_s = summary["setup_s"]
    if trace:
        result.traces.append(json.loads(spans_path.read_text()))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "seqrank" / "cli.py").is_file():
        print(f"no seqrank sources under {ROOT / 'src'}; run from the root of a seqrank checkout", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.workload in CLI_WORKLOADS:
            result = run_cli(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        else:
            result = run_sweep(args.seed, args.seconds, bool(args.trace), run_dir)
        wall_s = statistics.median(result.walls)
        if args.trace:
            values = spans.layer_metrics(result.traces, wall_s)
            units = dict(spans.LAYER_METRICS)
            (WORK / f"{args.workload}.spans.json").write_text(json.dumps(result.traces))
        else:
            values = {
                "wall_s": wall_s,
                "peak_rss_mb": statistics.median(result.rss),
                "setup_s": result.setup_s,
                "output_mb": statistics.median(result.output_bytes) / MB if result.output_bytes else 0.0,
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: rounds={len(result.walls)} "
        f"wall_s={[round(w, 3) for w in result.walls]} cpu_s={[round(c, 3) for c in result.cpu]} "
        f"setup_s={result.setup_s:.3f}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
