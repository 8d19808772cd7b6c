"""Command-line surface: synthetic panels, diagnostics, backtests, rankings.

Four subcommands (``synth``, ``stationarity``, ``backtest``, ``rank``)
write their outputs under ``--out-dir``. Every JSON report embeds a run
manifest (command, resolved config, input digests, seed, tool version) so
identical manifests imply identical outputs. The input digest is taken
before the panel is loaded and keys a cache of parsed panels
(``seqrank._panelcache``), so a repeated run on one panel reads its CSV
once, for the digest, and parses nothing. A panel file that changes
between the digest and the load fails the run, as does one that is not a
regular file; no output depends on whether the cache was hit. Nothing
volatile such as a wall-clock timestamp goes into the files, which keeps
repeated runs byte identical. Exit code 0 means every output was fully
written. Outputs are written to temporary files and renamed into place
only once all of them are complete, so a failed or killed run leaves no
partial output under an output's name.

The CLI keeps no defaults of its own. Each flag's destination is the name
of the config field or report parameter it sets, and an omitted flag takes
the library's default: ``JumpDiffusionConfig`` for ``synth``,
``monthly_stationarity_report``'s signature for ``stationarity``, and
``BacktestConfig`` for ``backtest`` and for ``rank``'s ``--tau``. The one
exception is ``synth --assets``, which defaults to 10.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import inspect
import json
import logging
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, _panelcache
from ._atomic import write_files
from ._csvread import file_identity, panel_stat
from ._fork import split_map
from ._json import json_chunks
from .backtest import (
    COST_MODELS,
    MODES,
    NBAR_INPUTS,
    NBAR_MEMBERSHIPS,
    STRATEGIES,
    BacktestConfig,
    BacktestError,
    render_equity_csv,
    render_equity_svg,
    run_backtest,
)
from .ranker import RankerState, rank_order
from .stats import (
    SIDEDNESS_VALUES,
    monthly_stationarity_report,
    render_report_table,
    short_number,
)
from .timeseries import (
    JumpDiffusionConfig,
    QuotePanel,
    load_csv,
    render_csv,
    simulate_jump_diffusion,
)

__all__ = ["json_chunks", "main"]

# the rank stream's block: about as many posterior entries as a panel CSV block has rows
_BLOCK_CELLS = 1 << 14

# the stationarity flags' defaults: the report's own
_REPORT_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(monthly_stationarity_report).parameters.items()
    if parameter.default is not parameter.empty
}


def _manifest(command: str, config: dict, inputs: dict[str, str], seed: int | None = None) -> dict:
    """Provenance block embedded in every emitted report."""
    return {
        "command": command,
        "config": config,
        "inputs": inputs,
        "seed": seed,
        "version": __version__,
    }


def _sha256(path: Path) -> str:
    """Digest of a file, read in 1 MiB blocks so a large panel is never
    held in memory whole."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while block := handle.read(1 << 20):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _load(path: Path) -> tuple[QuotePanel, dict[str, str]]:
    """The panel at ``path`` and the manifest's inputs, the digest of its bytes.

    The digest is taken first and keys the parsed-panel cache
    (``seqrank._panelcache``): on a hit the panel is built from the cache
    entry and the CSV is read only for the digest; on a miss
    ``load_csv(path)`` parses it and the entry is written. Raises if the
    file changed between the digest's start and the load's end, so a panel
    replaced meanwhile is neither reported nor cached under the other's
    digest, or if it is not a regular file, which could not be read twice.
    """
    info = panel_stat(path)
    digest = _sha256(path)
    panel = _panelcache.read(digest)
    parsed = panel is None
    if parsed:
        panel = load_csv(path)
    if file_identity(path.stat()) != file_identity(info):
        raise ValueError(f"{path}: changed while it was read")
    if parsed:
        _panelcache.write(digest, panel)
    return panel, {path.name: digest}


def _emit(out_dir: Path, files: dict[str, str | Iterable[str]]) -> list[Path]:
    """``write_files`` into ``out_dir``, made first if missing: every output
    appears whole, or none is touched."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return write_files(out_dir, files)


def _config(cls, args: argparse.Namespace, **given):
    """A ``cls`` whose fields are ``args``' attributes of the same names, or ``given``."""
    return cls(**{**{field.name: getattr(args, field.name) for field in fields(cls)}, **given})


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _config(JumpDiffusionConfig, args, start_date=dt.date.fromisoformat(args.start_date))
    panel = simulate_jump_diffusion(config)
    if args.sectors:
        labels = [s.strip() for s in args.sectors.split(",") if s.strip()]
        if not labels:
            raise ValueError("--sectors must name at least one sector")
        sectors = tuple(labels[i % len(labels)] for i in range(panel.n_assets))
        panel = replace(panel, sectors=sectors)
    settings = asdict(config)
    seed = settings.pop("seed")
    settings.update(start_date=config.start_date.isoformat(), sectors=args.sectors or None)
    written = _emit(
        Path(args.out_dir),
        {
            "panel.csv": render_csv(panel),
            "panel.manifest.json": json_chunks(_manifest("synth", settings, {}, seed)),
        },
    )
    print(f"wrote {written[0]} ({panel.n_dates} dates x {panel.n_assets} assets)")
    return 0


def _cmd_stationarity(args: argparse.Namespace) -> int:
    panel_path = Path(args.panel)
    panel, inputs = _load(panel_path)
    settings = {name: getattr(args, name) for name in _REPORT_DEFAULTS}
    report = monthly_stationarity_report(panel, **settings)
    manifest = _manifest("stationarity", {"panel": panel_path.name, **settings}, inputs)
    table = render_report_table(report)
    payload = {"manifest": manifest, "report": report.json_pieces}
    written = _emit(
        Path(args.out_dir),
        {"stationarity.json": json_chunks(payload), "stationarity.txt": table},
    )
    print(table, end="")
    print(f"wrote {written[0]} and {written[1]}")
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    panel_path = Path(args.panel)
    panel, inputs = _load(panel_path)
    config = _config(BacktestConfig, args)
    report = run_backtest(panel, config)
    manifest = _manifest("backtest", {"panel": panel_path.name, **asdict(config)}, inputs)
    payload = {"manifest": manifest, **report.to_json_dict()}
    written = _emit(
        Path(args.out_dir),
        {
            "backtest.json": json_chunks(payload),
            "equity.csv": render_equity_csv(report),
            "equity.svg": render_equity_svg(report),
        },
    )
    strat = report.strategy_metrics
    bench = report.benchmark_metrics
    print(
        f"{config.strategy} {config.mode}: days={strat.days} sum={short_number(strat.total, 4)} "
        f"sr={_fmt(strat.sharpe)} max_dd={short_number(strat.max_drawdown, 4)} | "
        f"benchmark sum={short_number(bench.total, 4)} sr={_fmt(bench.sharpe)}"
    )
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    panel_path = Path(args.panel)
    panel, inputs = _load(panel_path)
    manifest = _manifest("rank", {"panel": panel_path.name, "tau": args.tau}, inputs)
    written = _emit(
        Path(args.out_dir),
        {
            "rank.jsonl": _rank_lines(panel, args.tau),
            "rank.manifest.json": json_chunks(manifest),
        },
    )
    print(f"wrote {written[0]} ({panel.returns.shape[0]} days)")
    return 0


def _rank_lines(panel: QuotePanel, tau: float) -> Iterator[str]:
    """One JSON line per day, ranked as the day's returns arrive.

    The ranker folds in every day in one call, and each day's row of the
    posterior is ordered as ``RankerState.rank`` orders it. The lines are
    written in blocks of days, every other block by a forked child (see
    ``seqrank._fork``).
    """
    posterior = RankerState(panel.n_assets, tau).update(panel.returns)
    orders = rank_order(posterior)
    dates = panel.dates[1:]
    step = max(1, _BLOCK_CELLS // panel.n_assets)

    def block(start: int) -> str:
        rows = slice(start, start + step)
        return "".join(
            json.dumps(
                {
                    "date": date.isoformat(),
                    "order": [panel.assets[j] for j in order],
                    "order_index": order,
                    "posterior": p,
                },
                sort_keys=True,
            ) + "\n"
            for date, order, p in zip(dates[rows], orders[rows].tolist(), posterior[rows].tolist())
        )

    yield from split_map(block, range(0, len(posterior), step))


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else short_number(value, 3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqrank",
        description="sequential asset ranking, forecasting diagnostics and backtests",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic quote panel CSV")
    synth.add_argument("--assets", dest="n_assets", type=int)
    synth.add_argument("--steps", dest="n_steps", type=int, help="number of return steps")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--drift", type=float, help="per-step log drift")
    synth.add_argument("--vol", dest="volatility", type=float, help="per-step volatility")
    synth.add_argument("--jumps", dest="jump_intensity", type=float, help="expected jumps per step")
    synth.add_argument("--jump-mean", type=float)
    synth.add_argument("--jump-std", dest="jump_stdev", type=float)
    synth.add_argument("--corr", dest="cross_correlation", type=float, help="pairwise shock correlation")
    synth.add_argument("--spread", type=float, help="proportional bid/ask spread")
    synth.add_argument("--start-price", type=float)
    synth.add_argument("--start-date")
    synth.add_argument("--sectors", default="", help="comma-separated sector labels, cycled")
    synth.add_argument("--out-dir", default=".")
    synth_defaults = asdict(JumpDiffusionConfig(n_assets=10))
    synth_defaults["start_date"] = synth_defaults["start_date"].isoformat()
    synth.set_defaults(func=_cmd_synth, **synth_defaults)

    stat = sub.add_parser("stationarity", help="monthly stationarity diagnostics for a panel")
    stat.add_argument("panel", help="panel CSV path")
    stat.add_argument("--max-shift", type=int)
    stat.add_argument("--alpha", type=float)
    stat.add_argument("--sidedness", choices=SIDEDNESS_VALUES)
    stat.add_argument("--min-month-obs", type=int)
    stat.add_argument("--out-dir", default=".")
    stat.set_defaults(func=_cmd_stationarity, **_REPORT_DEFAULTS)

    back = sub.add_parser("backtest", help="run a strategy and the benchmark over a panel")
    back.add_argument("panel", help="panel CSV path")
    back.add_argument("--mode", choices=MODES)
    back.add_argument("--strategy", choices=STRATEGIES)
    back.add_argument("--tau", type=float)
    back.add_argument("--lambda", dest="ridge_lambda", type=float)
    back.add_argument("--decile", dest="decile_fraction", type=float)
    back.add_argument("--nbar-input", choices=NBAR_INPUTS)
    back.add_argument("--nbar-membership", choices=NBAR_MEMBERSHIPS)
    back.add_argument("--cost", dest="cost_model", choices=COST_MODELS)
    back.add_argument("--out-dir", default=".")
    back.set_defaults(func=_cmd_backtest, **asdict(BacktestConfig()))

    rank = sub.add_parser("rank", help="per-day posterior ranking from realised returns")
    rank.add_argument("panel", help="panel CSV path")
    rank.add_argument("--tau", type=float)
    rank.add_argument("--out-dir", default=".")
    rank.set_defaults(func=_cmd_rank, tau=BacktestConfig.tau)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, BacktestError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
