"""The benchmark's span map must name attributes the program still has.

``perfbench/spans.py`` wraps seqrank functions and methods by name for the
traced benchmark runs. This test installs that map, runs a tiny ``synth``
and ``backtest`` through the CLI under it, and then puts every patched
attribute back, so that renaming or deleting a traced name fails here
rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import seqrank.backtest
import seqrank.cli
import seqrank.ranker
import seqrank.regression
import seqrank.stats
import seqrank.timeseries

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# everything the span map may patch: the layer modules and the model classes
OWNERS = (
    seqrank.backtest,
    seqrank.cli,
    seqrank.ranker,
    seqrank.regression,
    seqrank.stats,
    seqrank.timeseries,
    seqrank.ranker.RankerState,
    seqrank.regression.CurdsWheyState,
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def restore(saved):
    """Put back every attribute ``saved`` recorded and drop any added since."""
    for owner, attrs in saved.items():
        for name, value in list(vars(owner).items()):
            if name not in attrs:
                delattr(owner, name)
            elif value is not attrs[name]:
                setattr(owner, name, attrs[name])


def test_span_map_installs_traces_a_backtest_and_restores(tmp_path):
    spans = load_spans()
    saved = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = spans.Tracer()
    try:
        finish = spans.install(tracer)
        patched = {
            (owner.__name__, name)
            for owner, attrs in saved.items()
            for name, value in vars(owner).items()
            if value is not attrs.get(name)
        }
        panel_dir, out_dir = tmp_path / "panel", tmp_path / "out"
        synth = ["synth", "--assets", "4", "--steps", "60", "--seed", "3", "--out-dir", str(panel_dir)]
        assert seqrank.cli.main(synth) == 0
        backtest = ["backtest", str(panel_dir / "panel.csv"), "--strategy", "nbar", "--out-dir", str(out_dir)]
        assert seqrank.cli.main(backtest) == 0
        finish()
    finally:
        restore(saved)

    assert ("seqrank.backtest", "run_backtest") in patched
    assert ("CurdsWheyState", "step") in patched
    assert ("seqrank.cli", "_emit") in patched
    for owner, attrs in saved.items():
        assert dict(vars(owner)) == attrs, owner.__name__

    values = spans.layer_metrics([{"spans": tracer.spans, "counts": tracer.counts, "import_s": 0.0}], 1.0)
    # 61 dates give 59 booked days: one forecaster step each, and one ranker
    # update for all of them, since 59 days fit in one 64-day block
    assert values["regression.step.calls"] == 59
    assert values["ranker.update.calls"] == 1
    assert values["ranker.update.s"] > 0.0
    assert values["timeseries.load_csv.rows"] == 61 * 4
    assert values["cli.bytes_written"] > 0
    assert values["backtest.run_backtest.self_s"] > 0.0
    # the portfolio rules the span map wraps are the ones the run calls
    for name in ("backtest.select_decile.s", "backtest.weights.s", "backtest.transaction_cost.s"):
        assert values[name] > 0.0, name
