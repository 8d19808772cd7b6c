#!/usr/bin/env python3
"""End-to-end experiment on a synthetic universe.

Generates a sector-labelled jump-diffusion panel with a few persistently
drifting names, prints the monthly stationarity diagnostics, then runs
both strategies in long-only and long/short form against the equal-weight
benchmark and prints a combined metric table. Reports, equity curves and
the SVG chart land in --out-dir.
"""

import argparse
from pathlib import Path

from seqrank import (
    BacktestConfig,
    JumpDiffusionConfig,
    QuotePanel,
    monthly_stationarity_report,
    run_backtest,
    simulate_jump_diffusion,
    write_csv,
)
from seqrank.backtest import render_equity_csv, render_equity_svg
from seqrank.cli import json_chunks
from seqrank.stats import render_report_table

SECTORS = ("manufacturing", "energy", "trade", "life sciences", "finance")

METRIC_ROWS = (
    "days", "mean", "std", "min", "25%", "50%", "75%", "max",
    "sum", "cagr", "sr", "pr(pnl>0)", "max_dd", "pnl_over_max_dd",
    "win_ratio", "loss_ratio",
)


def make_panel(n_assets: int, n_steps: int, seed: int) -> QuotePanel:
    # one in ten names trends up, one in ten trends down, the rest drift mildly
    k = max(1, n_assets // 10)
    drift = [0.0015] * k + [0.0002] * (n_assets - 2 * k) + [-0.0012] * k
    config = JumpDiffusionConfig(
        drift=drift,
        volatility=0.012,
        jump_intensity=0.03,
        jump_mean=-0.01,
        jump_stdev=0.03,
        n_steps=n_steps,
        n_assets=n_assets,
        cross_correlation=0.25,
        seed=seed,
        spread=0.001,
    )
    panel = simulate_jump_diffusion(config)
    sectors = tuple(SECTORS[i % len(SECTORS)] for i in range(n_assets))
    return QuotePanel(
        dates=panel.dates, assets=panel.assets, bids=panel.bids, asks=panel.asks, sectors=sectors
    )


def metric_table(columns: dict[str, dict]) -> str:
    names = list(columns)
    width = max(len(n) for n in names) + 2
    lines = [" " * 16 + "".join(f"{n:>{width}}" for n in names)]
    for row in METRIC_ROWS:
        cells = []
        for name in names:
            value = columns[name][row]
            if value is None:
                cells.append(f"{'n/a':>{width}}")
            elif row == "days":
                cells.append(f"{value:>{width}d}")
            else:
                cells.append(f"{value:>{width}.3f}")
        lines.append(f"{row:<16}" + "".join(cells))
    return "\n".join(lines)


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as the CLI writes its reports: strict JSON, so a
    NaN or an infinity raises before the file is opened."""
    path.write_text("".join(json_chunks(payload)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--assets", type=int, default=40)
    parser.add_argument("--steps", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    panel = make_panel(args.assets, args.steps, args.seed)
    write_csv(panel, out / "panel.csv")
    print(f"panel: {panel.n_dates} dates x {panel.n_assets} assets "
          f"({panel.dates[0]} to {panel.dates[-1]})\n")

    report = monthly_stationarity_report(panel, max_shift=6, alpha=0.05)
    print(render_report_table(report))
    write_json(out / "stationarity.json", report.json_pieces)

    runs = {
        "cw long": BacktestConfig(mode="long-only", strategy="curds-whey"),
        "cw l/s": BacktestConfig(mode="long-short", strategy="curds-whey"),
        "nbar long": BacktestConfig(mode="long-only", strategy="nbar"),
        "nbar l/s": BacktestConfig(mode="long-short", strategy="nbar"),
    }
    columns = {}
    for name, config in runs.items():
        result = run_backtest(panel, config)
        columns[name] = result.strategy_metrics.to_json_dict()
        if name == "nbar l/s":
            columns["benchmark"] = result.benchmark_metrics.to_json_dict()
            (out / "equity.csv").write_text(render_equity_csv(result))
            (out / "equity.svg").write_text(render_equity_svg(result))
            if result.sector_selection:
                print("long/short selections by sector (nbar):")
                for sector, counts in sorted(result.sector_selection.items()):
                    print(f"  {sector:<16} long {counts['long']:>6}  short {counts['short']:>6}")
                print()
        write_json(
            out / f"backtest_{name.replace(' ', '_').replace('/', '')}.json", result.to_json_dict()
        )

    print("net-of-cost performance:")
    print(metric_table(columns))
    print(f"\noutputs in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
