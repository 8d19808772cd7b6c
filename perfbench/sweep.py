"""Library workload: five backtest configurations on one in-memory panel.

Run as a child process of ``perfbench/run.py``:

    python3 perfbench/sweep.py RUN_DIR SEED SETUP_REPEATS SECONDS LAUNCH_EPOCH_S [SPANS.json]

Set-up simulates the panel ``SETUP_REPEATS`` times (each must be bit
identical). A round then runs ``run_backtest`` for each configuration and
serialises the report the way ``scripts/run_experiment.py`` does. Rounds
repeat while another one fits in ``SECONDS``. Reports go to
``RUN_DIR/out``; timings and errors go to ``RUN_DIR/sweep.json`` and the
panel's quotes to ``RUN_DIR/panel.npz``, for the output checks.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

# seqrank backtest configurations: the paper's four columns plus nbar on
# realised returns
CONFIGS = {
    "cw_long": dict(mode="long-only", strategy="curds-whey"),
    "cw_ls": dict(mode="long-short", strategy="curds-whey"),
    "nbar_long": dict(mode="long-only", strategy="nbar"),
    "nbar_ls": dict(mode="long-short", strategy="nbar"),
    "nbar_realised_ls": dict(mode="long-short", strategy="nbar", nbar_input="realised"),
}
EQUITY_CONFIG = "nbar_ls"
SECTORS = ("manufacturing", "energy", "trade", "life sciences", "finance")
N_ASSETS = 250
N_STEPS = 2500
SPREAD = 0.001


def panel_config(seed: int) -> dict:
    """Panel make-up: one name in ten trends up, one in ten down, as in run_experiment."""
    k = N_ASSETS // 10
    return dict(
        drift=[0.0015] * k + [0.0002] * (N_ASSETS - 2 * k) + [-0.0012] * k,
        volatility=0.012,
        jump_intensity=0.03,
        jump_mean=-0.01,
        jump_stdev=0.03,
        n_steps=N_STEPS,
        n_assets=N_ASSETS,
        cross_correlation=0.25,
        seed=seed,
        spread=SPREAD,
    )


def main(argv: list[str]) -> int:
    run_dir, seed, repeats, seconds, launch = Path(argv[0]), int(argv[1]), int(argv[2]), float(argv[3]), float(argv[4])
    out_dir = run_dir / "out"
    spans_path = Path(argv[5]) if len(argv) > 5 else None
    import numpy as np

    import seqrank
    import seqrank.backtest as backtest
    import seqrank.timeseries as timeseries

    import_s = time.time() - launch
    tracer = finish = None
    if spans_path is not None:
        from spans import Tracer, install

        tracer = Tracer()
        finish = install(tracer)

    config = seqrank.JumpDiffusionConfig(**panel_config(seed))
    setup_s, panel, errors = [], None, []
    for _ in range(repeats):
        start = time.perf_counter()
        sim = timeseries.simulate_jump_diffusion(config)
        sectors = tuple(SECTORS[i % len(SECTORS)] for i in range(sim.n_assets))
        fresh = seqrank.QuotePanel(dates=sim.dates, assets=sim.assets, bids=sim.bids, asks=sim.asks, sectors=sectors)
        setup_s.append(time.perf_counter() - start)
        if panel is not None and not (np.array_equal(panel.bids, fresh.bids) and np.array_equal(panel.asks, fresh.asks)):
            errors.append("set-up: repeated simulation gave a different panel")
        panel = fresh
        del sim, fresh

    rounds, digests = [], {}
    measured = 0.0
    while True:
        ops = {}
        for name, kwargs in CONFIGS.items():
            error = None
            start = time.perf_counter()
            try:
                result = backtest.run_backtest(panel, seqrank.BacktestConfig(**kwargs))
                files = {f"backtest_{name}.json": json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n"}
                if name == EQUITY_CONFIG:
                    files["equity.csv"] = backtest.render_equity_csv(result)
                    files["equity.svg"] = backtest.render_equity_svg(result)
                for file_name, text in files.items():
                    (out_dir / file_name).write_text(text)
            except Exception as exc:  # one failed configuration must not stop the round
                error = f"{type(exc).__name__}: {exc}"
                files = {}
            elapsed = time.perf_counter() - start
            for file_name, text in files.items():
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digests.setdefault(file_name, digest) != digest:
                    error = f"{file_name} differs between rounds"
            ops[name] = {"s": elapsed, "error": error}
        rounds.append(ops)
        round_s = sum(op["s"] for op in ops.values())
        measured += round_s
        if spans_path is not None or measured + round_s > seconds:
            break

    np.savez(run_dir / "panel.npz", bids=panel.bids, asks=panel.asks, dates=np.array([d.isoformat() for d in panel.dates]))
    summary = {
        "setup_s": statistics.median(setup_s),
        "import_s": import_s,
        "rounds": rounds,
        "errors": errors,
        "spread": SPREAD,
    }
    (run_dir / "sweep.json").write_text(json.dumps(summary, indent=1))
    if tracer is not None:
        finish()
        tracer.dump(spans_path, import_s=import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
