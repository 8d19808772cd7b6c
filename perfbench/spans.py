"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of seqrank's layers where their
callers look them up (module globals such as ``seqrank.cli.load_csv`` or
``seqrank.backtest.select_decile``, and the methods of the model classes),
records one span per call (name, start, end, parent) in memory, and writes
them out when the process ends. The program itself is not changed.

Run as a script it executes one CLI invocation under the tracer:

    python3 perfbench/spans.py SPANS.json LAUNCH_EPOCH_S -- backtest panel.csv ...

``LAUNCH_EPOCH_S`` is the wall-clock time at which the parent launched the
process; the time from it until ``seqrank.cli`` is imported is recorded as
the process's import time.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(tracer, args, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def dump(self, path: Path, **extra) -> None:
        payload = {"spans": self.spans, "counts": self.counts, **extra}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]):
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        result.append(end - start - covered)
    return result


def install(tracer: Tracer):
    """Wrap every traced seqrank function where its callers look it up.

    Returns a function to call when the process is done; it adds the
    forecasters' covariance resets to the counts.
    """
    import seqrank.backtest as backtest
    import seqrank.cli as cli
    import seqrank.ranker as ranker
    import seqrank.regression as regression
    import seqrank.stats as stats
    import seqrank.timeseries as timeseries

    def count_rows(t, args, panel):
        t.add("timeseries.load_csv.rows", panel.n_dates * panel.n_assets)

    def count_skipped(t, args, report):
        t.add("stats.skipped", sum(report.skipped.values()))

    forecasters = {}

    def keep_forecaster(t, args, result):
        forecasters[id(args[0])] = args[0]

    tracer.patch(cli, "load_csv", "timeseries.load_csv", count_rows)
    tracer.patch(timeseries, "build_panel", "timeseries.build_panel")
    for owner in (cli, timeseries):
        tracer.patch(owner, "render_csv", "timeseries.render_csv")
        tracer.patch(owner, "simulate_jump_diffusion", "timeseries.simulate_jump_diffusion")
    tracer.patch(regression.CurdsWheyState, "step", "regression.step", keep_forecaster)
    tracer.patch(ranker.RankerState, "update", "ranker.update")
    tracer.patch(ranker.RankerState, "rank", "ranker.rank")
    for owner in (cli, backtest):
        tracer.patch(owner, "run_backtest", "backtest.run_backtest")
    tracer.patch(backtest, "select_decile", "backtest.select_decile")
    tracer.patch(backtest, "cw_weights", "backtest.weights")
    tracer.patch(backtest, "nbar_weights", "backtest.weights")
    tracer.patch(backtest, "transaction_cost", "backtest.transaction_cost")
    tracer.patch(backtest, "compute_metrics", "backtest.compute_metrics")
    tracer.patch(cli, "monthly_stationarity_report", "stats.monthly_stationarity_report", count_skipped)
    tracer.patch(cli, "render_report_table", "stats.render_report_table")
    tracer.patch(stats, "welch_t_test", "stats.welch_t_test")
    tracer.patch(stats, "levene_test", "stats.levene_test")
    tracer.patch(stats, "adf_test", "stats.adf_test")
    # counts only: _emit is the CLI's writer, its span stays part of cli.main
    emit = cli._emit

    def counted_emit(out_dir, files):
        written = emit(out_dir, files)
        tracer.add("cli.bytes_written", sum(path.stat().st_size for path in written))
        return written

    cli._emit = counted_emit

    def finish():
        tracer.add("regression.resets", sum(f.p_resets + f.q_resets for f in forecasters.values()))

    return finish


# Per-layer metrics as (name, unit). A name ending in .s sums span durations,
# .self_s sums self times, .calls counts spans; other names are counts.
SECONDS = "s"
LAYER_METRICS = (
    ("timeseries.load_csv.s", SECONDS),
    ("timeseries.load_csv.rows", "count"),
    ("timeseries.build_panel.s", SECONDS),
    ("timeseries.render_csv.s", SECONDS),
    ("timeseries.simulate_jump_diffusion.s", SECONDS),
    ("process.import_s", SECONDS),
    ("regression.step.s", SECONDS),
    ("regression.step.calls", "count"),
    ("regression.resets", "count"),
    ("ranker.update.s", SECONDS),
    ("ranker.update.calls", "count"),
    ("ranker.rank.s", SECONDS),
    ("backtest.run_backtest.self_s", SECONDS),
    ("backtest.select_decile.s", SECONDS),
    ("backtest.weights.s", SECONDS),
    ("backtest.transaction_cost.s", SECONDS),
    ("backtest.compute_metrics.s", SECONDS),
    ("stats.monthly_stationarity_report.self_s", SECONDS),
    ("stats.welch_t_test.s", SECONDS),
    ("stats.welch_t_test.calls", "count"),
    ("stats.levene_test.s", SECONDS),
    ("stats.adf_test.s", SECONDS),
    ("stats.render_report_table.s", SECONDS),
    ("stats.skipped", "count"),
    ("cli.main.self_s", SECONDS),
    ("cli.bytes_written", "B"),
    ("trace.wall_s", SECONDS),
)


def layer_metrics(traces: list[dict], wall_s: float) -> dict[str, float]:
    """Fold the span files of one traced run into the per-layer metrics.

    ``traces`` are the dumped payloads of every traced process; set-up
    processes carry ``"setup": true`` and contribute only their timeseries
    spans (the synthesis and CSV rendering that set-up consists of).
    ``process.import_s`` is the mean over the measured processes.
    """
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    imports = []
    for trace in traces:
        spans = trace["spans"]
        for span, self_s in zip(spans, self_times(spans)):
            name = span[0]
            if trace.get("setup") and not name.startswith("timeseries."):
                continue
            busy[name] = busy.get(name, 0.0) + span[2] - span[1]
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        if not trace.get("setup"):
            imports.append(trace["import_s"])
            for key, value in trace["counts"].items():
                counts[key] = counts.get(key, 0) + value
    fixed = {"process.import_s": sum(imports) / len(imports) if imports else 0.0, "trace.wall_s": wall_s}
    values = {}
    for name, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if name in fixed:
            values[name] = fixed[name]
        elif kind == "s":
            values[name] = busy.get(base, 0.0)
        elif kind == "self_s":
            values[name] = own.get(base, 0.0)
        elif kind == "calls":
            values[name] = calls.get(base, 0)
        else:
            values[name] = counts.get(name, 0)
    return values


def _main(argv: list[str]) -> int:
    spans_path, launch = Path(argv[0]), float(argv[1])
    import seqrank.cli as cli

    import_s = time.time() - launch
    tracer = Tracer()
    finish = install(tracer)
    main = tracer.wrap("cli.main", cli.main)
    try:
        return main(argv[argv.index("--") + 1 :])
    finally:
        finish()
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    import sys

    sys.exit(_main(sys.argv[1:]))
