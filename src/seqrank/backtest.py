"""Daily-rebalanced cross-sectional backtest with half-spread costs.

Each day the engine feeds the latest return vector into the two-stage
recursive forecaster, scores every asset, buys the top slice of the
cross-section (and sells the bottom slice in long/short mode), charges a
transaction cost of half-spread rate times absolute weight change per
asset, and accrues the next day's return on the chosen weights. Each day
of the ledger is stamped with its rebalance date; the gross return booked
on it spans that close to the next.

Two strategies share the engine: ``curds-whey`` scores assets by the shrunk
forecasts and equal-weights each leg, while ``nbar`` feeds the forecasts
(or realised returns) into the sequential ranker and weights legs by its
posterior. An equal-weight, zero-cost benchmark is always computed
alongside. The engine is deterministic: identical panel and config give an
identical report.

A run makes two passes. The signal pass steps the forecaster over the
whole panel once and keeps the forecast matrix in ``_FORECASTS``, keyed
weakly by panel, with its ``(tau, ridge_lambda)``, so the strategies,
modes, slice sizes and cost models that read the same forecasts share one
pass. The accounting pass steps the ranker and books the days in blocks
of whole-array operations. Every portfolio rule is in this module; the
ranker supplies only its posterior. ``select_decile``, ``cw_weights``,
``nbar_weights`` and ``transaction_cost`` are the per-day reference for
that arithmetic, on plain weight vectors (longs positive, shorts
negative); the tests compare the two bit for bit. Two threads that run
one panel at once may both compute the forecasts; either result is the
same matrix.
"""

from __future__ import annotations

import datetime as dt
import math
import weakref
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .ranker import RankerState
from .regression import CurdsWheyState
from .timeseries import QuotePanel

__all__ = [
    "BacktestError",
    "BacktestConfig",
    "MetricsBlock",
    "BacktestReport",
    "select_decile",
    "cw_weights",
    "nbar_weights",
    "transaction_cost",
    "compute_metrics",
    "run_backtest",
    "equity_rows",
    "render_equity_csv",
    "render_equity_svg",
]

MODES = ("long-only", "long-short")
STRATEGIES = ("curds-whey", "nbar")
NBAR_INPUTS = ("forecasts", "realised")
NBAR_MEMBERSHIPS = ("by-p", "by-forecast")
COST_MODELS = ("half-spread", "zero")

TRADING_DAYS_PER_YEAR = 252
SVG_WIDTH, SVG_HEIGHT = 800, 400
# days per accounting block: a block's temporaries are a few (64, d) arrays,
# small beside the (n - 2, d) forecast matrix kept in _FORECASTS
_BLOCK_DAYS = 64

# panel -> ((tau, ridge_lambda), read-only forecast matrix) of the latest
# curds-whey pass over that panel; an entry goes when its panel is freed
_FORECASTS: weakref.WeakKeyDictionary[QuotePanel, tuple] = weakref.WeakKeyDictionary()


class BacktestError(RuntimeError):
    """Raised when a run cannot continue (for example a non-finite forecast)."""


@dataclass(frozen=True)
class BacktestConfig:
    """Strategy, portfolio and cost settings for one run."""

    mode: str = "long-only"
    strategy: str = "curds-whey"
    decile_fraction: float = 0.1
    tau: float = 0.999
    ridge_lambda: float = 1.0
    nbar_input: str = "forecasts"
    nbar_membership: str = "by-p"
    cost_model: str = "half-spread"

    def __post_init__(self) -> None:
        checks = (
            ("mode", self.mode, MODES),
            ("strategy", self.strategy, STRATEGIES),
            ("nbar_input", self.nbar_input, NBAR_INPUTS),
            ("nbar_membership", self.nbar_membership, NBAR_MEMBERSHIPS),
            ("cost_model", self.cost_model, COST_MODELS),
        )
        for name, value, allowed in checks:
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if not (0.0 < self.decile_fraction <= 0.5):
            raise ValueError(f"decile_fraction must lie in (0, 0.5], got {self.decile_fraction}")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if not (self.ridge_lambda > 0.0):
            raise ValueError(f"ridge_lambda must be positive, got {self.ridge_lambda}")

    def to_json_dict(self) -> dict:
        return asdict(self)


def select_decile(
    scores: Sequence[float] | np.ndarray,
    fraction: float = 0.1,
    mode: str = "long-only",
) -> tuple[list[int], list[int]]:
    """Top and bottom slices of the cross-section, ``k = max(1, floor(d * fraction))``.

    Per-day reference for the selection ``run_backtest`` makes on whole
    arrays.

    Assets are ordered by descending score with ties broken by ascending
    index; the long set is the head of that order and the short set the
    tail (empty in long-only mode). ``fraction <= 0.5`` keeps ``k <= d / 2``,
    so the two never overlap. Both come back as sorted lists of ``int``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not (0.0 < fraction <= 0.5):
        raise ValueError(f"fraction must lie in (0, 0.5], got {fraction}")
    s = np.asarray(scores, dtype=float)
    d = len(s)
    if d < 2:
        raise ValueError(f"need at least 2 scores, got {d}")
    if not np.isfinite(s).all():
        raise ValueError("scores contain non-finite values")
    k = max(1, int(math.floor(d * fraction)))
    order = np.argsort(-s, kind="stable")
    long_set = np.sort(order[:k]).tolist()
    if mode == "long-only":
        return long_set, []
    return long_set, np.sort(order[d - k :]).tolist()


def _leg(d: int, members: Sequence[int]) -> list[int]:
    """A leg's asset indices as a list; repeated or out-of-range ones raise."""
    idx = list(members)
    if len(set(idx)) != len(idx):
        raise ValueError("member set contains duplicates")
    if idx and (min(idx) < 0 or max(idx) >= d):
        raise ValueError(f"member indices must lie in [0, {d - 1}]")
    return idx


def cw_weights(d: int, long_set: Sequence[int], short_set: Sequence[int]) -> np.ndarray:
    """Equal weights of 1/k on each leg: +1/len(long) long, -1/len(short) short.

    Per-day reference for ``run_backtest``'s curds-whey weights.
    """
    weights = np.zeros(d)
    if long_set:
        weights[_leg(d, long_set)] = 1.0 / len(long_set)
    if short_set:
        weights[_leg(d, short_set)] -= 1.0 / len(short_set)
    return weights


def nbar_weights(
    state: RankerState, long_set: Sequence[int], short_set: Sequence[int]
) -> np.ndarray:
    """Posterior-proportional long leg and complement-proportional short leg.

    Each long weighs ``p`` over its leg's sum of ``p``, each short
    ``1 - p`` over its leg's sum, so an asset with posterior 1 gets no
    short weight. Per-day reference for ``run_backtest``'s nbar weights.
    """
    weights = np.zeros(state.d)
    if long_set:
        idx = _leg(state.d, long_set)
        picked = state.p[idx]
        total = float(picked.sum())
        if total <= 0.0:
            raise ValueError("selected posteriors sum to zero")
        weights[idx] += picked / total
    if short_set:
        idx = _leg(state.d, short_set)
        complement = 1.0 - state.p[idx]
        total = float(complement.sum())
        if total <= 0.0:
            raise ValueError("every selected posterior is 1; short weights undefined")
        weights[idx] -= complement / total
    return weights


def transaction_cost(
    prev: Sequence[float] | np.ndarray,
    new: Sequence[float] | np.ndarray,
    half_spread_rates: Sequence[float] | np.ndarray,
) -> float:
    """Cost rate of a rebalance from weights ``prev`` to ``new``: sum of
    half-spread rate times |weight change|.

    Per-day reference for ``run_backtest``'s costs and turnover.
    """
    prev = np.asarray(prev, dtype=float)
    new = np.asarray(new, dtype=float)
    rates = np.asarray(half_spread_rates, dtype=float)
    if new.ndim != 1:
        raise ValueError("weights must be a vector")
    if rates.shape != prev.shape or rates.shape != new.shape:
        raise ValueError("weights and spread rates must share one length")
    if not (np.isfinite(prev).all() and np.isfinite(new).all()):
        raise ValueError("weights contain non-finite values")
    if (rates < 0.0).any():
        raise ValueError("half-spread rates must be non-negative")
    return float(rates @ np.abs(new - prev))


@dataclass(frozen=True)
class MetricsBlock:
    """Summary statistics of a daily net-return series.

    ``cagr`` compounds geometrically and annualises over 252 trading
    days; ``sharpe`` is mean over sample stdev times sqrt(252);
    ``prob_positive`` is the standard normal CDF at the Sharpe ratio;
    ``max_drawdown`` is the largest peak-to-trough drop of the cumulative
    sum (starting from zero). Ratios that would divide by zero are None.
    """

    days: int
    mean: float
    std: float
    min: float
    q25: float
    median: float
    q75: float
    max: float
    total: float
    cagr: float | None
    sharpe: float | None
    prob_positive: float | None
    max_drawdown: float
    return_over_maxdd: float | None
    win_ratio: float
    loss_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "days": self.days,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "25%": self.q25,
            "50%": self.median,
            "75%": self.q75,
            "max": self.max,
            "sum": self.total,
            "cagr": self.cagr,
            "sr": self.sharpe,
            "pr(pnl>0)": self.prob_positive,
            "max_dd": self.max_drawdown,
            "pnl_over_max_dd": self.return_over_maxdd,
            "win_ratio": self.win_ratio,
            "loss_ratio": self.loss_ratio,
        }


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def compute_metrics(daily_net: Sequence[float] | np.ndarray) -> MetricsBlock:
    """Summarise a daily return series; needs at least two observations."""
    r = np.asarray(daily_net, dtype=float)
    if r.ndim != 1 or len(r) < 2:
        raise ValueError("need a one-dimensional series of at least 2 returns")
    if not np.isfinite(r).all():
        raise ValueError("returns contain non-finite values")
    n = len(r)
    # a truly constant series has zero stdev; computing deviations from a
    # rounded mean would report a spurious ~1e-19 instead
    std = 0.0 if np.ptp(r) == 0.0 else float(r.std(ddof=1))
    total = float(r.sum())

    growth = 1.0 + r
    cagr: float | None = None
    if (growth > 0.0).all():
        cagr = float(np.prod(growth) ** (TRADING_DAYS_PER_YEAR / n) - 1.0)

    sharpe: float | None = None
    prob_positive: float | None = None
    if std > 0.0:
        sharpe = float(r.mean()) / std * math.sqrt(TRADING_DAYS_PER_YEAR)
        prob_positive = _normal_cdf(sharpe)

    equity = np.concatenate([[0.0], np.cumsum(r)])
    max_drawdown = float((np.maximum.accumulate(equity) - equity).max())
    return_over_maxdd = total / max_drawdown if max_drawdown > 0.0 else None

    win_ratio = float((r > 0.0).mean())
    return MetricsBlock(
        days=n,
        mean=float(r.mean()),
        std=std,
        min=float(r.min()),
        q25=float(np.percentile(r, 25)),
        median=float(np.percentile(r, 50)),
        q75=float(np.percentile(r, 75)),
        max=float(r.max()),
        total=total,
        cagr=cagr,
        sharpe=sharpe,
        prob_positive=prob_positive,
        max_drawdown=max_drawdown,
        return_over_maxdd=return_over_maxdd,
        win_ratio=win_ratio,
        loss_ratio=1.0 - win_ratio,
    )


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """Everything one run produced: the daily ledger as columns, and metric blocks.

    Entry ``i`` of the read-only float arrays ``gross``, ``cost``, ``net``,
    ``turnover`` and ``benchmark`` books the rebalance on ``dates[i]``. The
    long leg holds ``n_long`` assets and the short leg ``n_short`` on every
    day.
    """

    config: BacktestConfig
    dates: tuple[dt.date, ...]
    gross: np.ndarray
    cost: np.ndarray
    net: np.ndarray
    turnover: np.ndarray
    benchmark: np.ndarray
    n_long: int
    n_short: int
    strategy_metrics: MetricsBlock
    benchmark_metrics: MetricsBlock
    sector_selection: dict[str, dict[str, int]] | None = None

    def to_json_dict(self) -> dict:
        legs = {"n_long": self.n_long, "n_short": self.n_short}
        columns = (self.gross, self.cost, self.net, self.turnover, self.benchmark)
        return {
            "config": self.config.to_json_dict(),
            "days": [
                {"date": date.isoformat(), "gross": g, "cost": c, "net": r, "turnover": t,
                 "benchmark": b, **legs}
                for date, g, c, r, t, b in zip(self.dates, *(col.tolist() for col in columns))
            ],
            "metrics": {
                "strategy": self.strategy_metrics.to_json_dict(),
                "benchmark": self.benchmark_metrics.to_json_dict(),
            },
            "sector_selection": self.sector_selection,
        }


def _forecast_matrix(panel: QuotePanel, tau: float, ridge_lambda: float) -> np.ndarray:
    """Curds-whey forecasts for every booked day, as one read-only ``(n - 2, d)`` array.

    Row ``i`` is ``y_tilde`` after the forecaster has folded in return row
    ``i``: the scores for ``panel.dates[i + 1]``. ``_FORECASTS`` keeps the
    panel's latest matrix with its ``(tau, ridge_lambda)``, so runs that
    share the pair share one pass. A pass that meets a non-finite forecast
    raises and stores nothing.
    """
    key = (tau, ridge_lambda)
    memo = _FORECASTS.get(panel)
    if memo is not None and memo[0] == key:
        return memo[1]
    # drop the old matrix before the new one is built, so at most one is held
    _FORECASTS.pop(panel, None)
    rets = panel.returns
    d = panel.n_assets
    model = CurdsWheyState(d, ridge_lambda, tau)
    forecasts = np.empty((rets.shape[0] - 1, d))
    for i, (row, r_today) in enumerate(zip(forecasts, rets)):
        row[:] = model.step(r_today).y_tilde
        if not np.isfinite(row).all():
            raise BacktestError(f"non-finite forecast at {panel.dates[i + 1].isoformat()}")
    forecasts.setflags(write=False)
    _FORECASTS[panel] = (key, forecasts)
    return forecasts


class _Block(NamedTuple):
    """Target portfolios of consecutive days; array rows are days from ``start``."""

    start: int
    scores: np.ndarray
    posterior: np.ndarray | None
    longs: np.ndarray
    shorts: np.ndarray
    weights: np.ndarray


def _target_blocks(panel: QuotePanel, config: BacktestConfig) -> Iterator[_Block]:
    """The day's scores, legs and target weights, ``_BLOCK_DAYS`` days at a time.

    The ranker steps one day at a time inside each block; selection and
    weighting are row-wise array operations with the per-day helpers'
    arithmetic and checks. Each block holds only a few ``(block, d)``
    arrays besides the panel's forecast matrix.
    """
    d = panel.n_assets
    rets = panel.returns
    n_days = rets.shape[0] - 1
    nbar = config.strategy == "nbar"
    realised = config.nbar_input == "realised"
    by_p = config.nbar_membership == "by-p"
    forecasts = None
    if not (nbar and realised and by_p):
        forecasts = _forecast_matrix(panel, config.tau, config.ridge_lambda)
    ranker = RankerState(d, config.tau) if nbar else None
    k = max(1, int(math.floor(d * config.decile_fraction)))
    long_short = config.mode == "long-short"

    for start in range(0, n_days, _BLOCK_DAYS):
        stop = min(start + _BLOCK_DAYS, n_days)
        posterior = None
        if ranker is None:
            scores = forecasts[start:stop]
        else:
            posterior = np.empty((stop - start, d))
            performance = rets[start:stop] if realised else forecasts[start:stop]
            for row, r in zip(posterior, performance):
                row[:] = ranker.update(r).p
            scores = posterior if by_p else forecasts[start:stop]
        if not np.isfinite(scores).all():
            raise ValueError("scores contain non-finite values")
        order = np.argsort(-scores, axis=1, kind="stable")
        longs = np.sort(order[:, :k], axis=1)
        shorts = np.sort(order[:, d - k :], axis=1) if long_short else order[:, :0]
        rows = np.arange(stop - start)[:, None]
        weights = np.zeros((stop - start, d))
        if ranker is None:
            weights[rows, longs] = 1.0 / k
            weights[rows, shorts] -= 1.0 / k
        else:
            picked = np.take_along_axis(posterior, longs, axis=1)
            total = picked.sum(axis=1, keepdims=True)
            if (total <= 0.0).any():
                raise ValueError("selected posteriors sum to zero")
            weights[rows, longs] += picked / total
            if long_short:
                complement = 1.0 - np.take_along_axis(posterior, shorts, axis=1)
                total = complement.sum(axis=1, keepdims=True)
                if (total <= 0.0).any():
                    raise ValueError("every selected posterior is 1; short weights undefined")
                weights[rows, shorts] -= complement / total
        if not np.isfinite(weights).all():
            raise ValueError("weights contain non-finite values")
        yield _Block(start, scores, posterior, longs, shorts, weights)


def run_backtest(panel: QuotePanel, config: BacktestConfig) -> BacktestReport:
    """Run one strategy over a panel, benchmarked against equal weighting.

    Day ``t`` folds today's return vector into the forecaster, scores the
    assets, rebalances to the target weights (paying half-spread cost on
    the weight change at today's quotes), and earns tomorrow's returns on
    those weights. Positions start flat, so the first rebalance pays the
    full entry cost. Any non-finite forecast aborts the run. The
    forecaster is not run when nothing reads it: nbar on realised returns
    with members chosen by posterior.

    The forecasts are computed once per panel and ``(tau, ridge_lambda)``
    and kept in ``_FORECASTS`` (see ``_forecast_matrix``); the ranker and the
    accounting run on every call. The report is bit-identical to booking
    each day through ``select_decile``, ``cw_weights`` or ``nbar_weights``
    and ``transaction_cost``.
    """
    d = panel.n_assets
    rets = panel.returns
    if rets.shape[0] < 3:
        raise ValueError(
            "panel must provide at least 4 dates: each record needs a next-day "
            "return and the metric block needs 2 records"
        )
    n_days = rets.shape[0] - 1
    rates = None
    if config.cost_model == "half-spread":
        rates = panel.half_spread_rates[1 : n_days + 1]
        if (rates < 0.0).any():
            raise ValueError("half-spread rates must be non-negative")
    sector_of = None
    if panel.sectors is not None:
        sector_names = sorted(set(panel.sectors))
        code = {name: c for c, name in enumerate(sector_names)}
        sector_of = np.array([code[s] for s in panel.sectors])
        long_tally = np.zeros(len(sector_names), dtype=np.int64)
        short_tally = np.zeros(len(sector_names), dtype=np.int64)

    gross = np.empty(n_days)
    benchmark = rets[1:].mean(axis=1)
    cost = np.zeros(n_days)
    turnover = np.empty(n_days)
    prev = np.zeros(d)
    for block in _target_blocks(panel, config):
        weights = block.weights
        change = np.empty_like(weights)
        np.subtract(weights[0], prev, out=change[0])
        np.subtract(weights[1:], weights[:-1], out=change[1:])
        np.abs(change, out=change)
        turnover[block.start : block.start + len(weights)] = change.sum(axis=1)
        # one product per day: a batched product may sum in another order
        for j, i in enumerate(range(block.start, block.start + len(weights))):
            gross[i] = weights[j] @ rets[i + 1]
            if rates is not None:
                cost[i] = rates[i] @ change[j]
        if sector_of is not None:
            long_tally += np.bincount(sector_of[block.longs].ravel(), minlength=len(long_tally))
            short_tally += np.bincount(sector_of[block.shorts].ravel(), minlength=len(short_tally))
        prev = weights[-1].copy()

    net = gross - cost
    for column in (gross, cost, net, turnover, benchmark):
        column.setflags(write=False)
    tallies = None
    if sector_of is not None:
        tallies = {
            name: {"long": int(lo), "short": int(sh)}
            for name, lo, sh in zip(sector_names, long_tally, short_tally)
        }
    return BacktestReport(
        config=config,
        dates=panel.dates[1 : n_days + 1],
        gross=gross,
        cost=cost,
        net=net,
        turnover=turnover,
        benchmark=benchmark,
        n_long=block.longs.shape[1],
        n_short=block.shorts.shape[1],
        strategy_metrics=compute_metrics(net),
        benchmark_metrics=compute_metrics(benchmark),
        sector_selection=tallies,
    )


def equity_rows(report: BacktestReport) -> list[tuple[str, float, float]]:
    """Per-day cumulative net sums for the strategy and the benchmark."""
    # np.cumsum adds a 1-D array in order, as a running sum does (a test pins
    # it); starting from 0.0 turns a leading -0.0 into 0.0 as that sum does
    strategy, benchmark = (
        np.cumsum(np.concatenate(([0.0], column)))[1:].tolist()
        for column in (report.net, report.benchmark)
    )
    return list(zip((date.isoformat() for date in report.dates), strategy, benchmark))


def render_equity_csv(report: BacktestReport) -> str:
    lines = ["date,cum_net_strategy,cum_net_benchmark"]
    for day, strat, bench in equity_rows(report):
        lines.append(f"{day},{strat!r},{bench!r}")
    return "\n".join(lines) + "\n"


def render_equity_svg(report: BacktestReport) -> str:
    """Static two-line SVG chart, ``SVG_WIDTH`` by ``SVG_HEIGHT``, of the cumulative net curves."""
    rows = equity_rows(report)
    series = {
        "strategy": [row[1] for row in rows],
        "benchmark": [row[2] for row in rows],
    }
    pad = 50
    lo = min(0.0, min(min(v) for v in series.values()))
    hi = max(0.0, max(max(v) for v in series.values()))
    span = (hi - lo) or 1.0
    n = len(rows)

    def to_xy(i: int, value: float) -> tuple[float, float]:
        x = pad + (SVG_WIDTH - 2 * pad) * (i / max(n - 1, 1))
        y = SVG_HEIGHT - pad - (SVG_HEIGHT - 2 * pad) * ((value - lo) / span)
        return x, y

    colors = {"strategy": "#1f77b4", "benchmark": "#888888"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{SVG_WIDTH - 2 * pad}" height="{SVG_HEIGHT - 2 * pad}" '
        f'fill="none" stroke="#cccccc"/>',
    ]
    for name, values in series.items():
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_xy(i, v) for i, v in enumerate(values)))
        parts.append(
            f'<polyline fill="none" stroke="{colors[name]}" stroke-width="1.5" points="{points}"/>'
        )
    parts.append(
        f'<text x="{pad}" y="{pad - 10}" font-family="monospace" font-size="12">'
        f"cumulative net return, {rows[0][0]} to {rows[-1][0]} "
        f"(blue strategy, grey benchmark; range {lo:.3f} to {hi:.3f})</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
