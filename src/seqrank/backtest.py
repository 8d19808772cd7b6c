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

A run makes two passes. The signal pass folds the whole panel into the
forecaster in one call, and for nbar the ranker over the forecasts or the
realised returns in one call. ``_signal`` keeps each of these matrices,
keyed weakly by panel, with their ``(tau, ridge_lambda)``, so the
strategies, modes, slice sizes and cost models that read the same signal
share one pass. The accounting pass, ``run_backtest``'s one loop, books
the days in ``_BLOCK_DAYS``-day blocks of whole-array operations on slices
of those matrices. Every portfolio rule is in this module, once:
``select_decile``, ``cw_weights``, ``nbar_weights`` and
``transaction_cost`` each take a block of days as ``(days, d)`` arrays,
one day per row, with weights signed (longs positive, shorts negative). A
block's daily costs and gross returns are one stacked product each, in
which every day keeps the bits of its own dot product. The ranker supplies
only its posterior. Two threads that run one panel at once may both
compute a signal; either result is the same array.
"""

from __future__ import annotations

import datetime as dt
import math
import weakref
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .ranker import RankerState
from .regression import CurdsWheyState
from .stats import quartiles, sample_std
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
# days per accounting block: a block's temporaries are a few (64, d)
# arrays, small beside the (n - 2, d) signals kept in _SIGNALS
_BLOCK_DAYS = 64

# panel -> ((tau, ridge_lambda), {signal name: read-only (n - 2, d) matrix})
# for the latest pair a run read; an entry goes when its panel is freed
_SIGNALS: weakref.WeakKeyDictionary[
    QuotePanel, tuple[tuple[float, float], dict[str, np.ndarray]]
] = weakref.WeakKeyDictionary()


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
        if not (0.0 < self.ridge_lambda < math.inf):
            raise ValueError(f"ridge_lambda must be positive and finite, got {self.ridge_lambda}")


def select_decile(scores: np.ndarray, fraction: float, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Each day's top and bottom slices of the cross-section, ``k = max(1, floor(d * fraction))``.

    ``scores`` holds one day per row, ``(days, d)``. Each row is ordered by
    descending score with ties broken by ascending index; the long leg is
    the head of that order and the short leg the tail (no columns in
    long-only mode). Both legs come back as ``(days, k)`` asset indices,
    each row sorted ascending. ``fraction <= 0.5`` keeps ``k <= d / 2``, so
    the legs never overlap; long-short mode needs ``d >= 2``.

    One row sort gives each leg's edge: the k-th largest score for the long
    leg, the k-th smallest for the short leg. A leg holds the scores beyond
    its edge and as many scores at its edge as it has room for, the
    lowest-index ones for the long leg and the highest-index ones for the
    short leg: the stable descending order's head and tail.
    """
    if mode not in MODES or not (0.0 < fraction <= 0.5):
        raise ValueError(f"mode must be one of {MODES} and fraction in (0, 0.5], got {mode!r}, {fraction}")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    days, d = scores.shape
    if mode == "long-short" and d < 2:
        raise ValueError(f"long-short selection needs at least 2 assets, got {d}")
    k = max(1, int(math.floor(d * fraction)))
    ranked = np.sort(scores, axis=1)
    # a leg's room at its edge: how many of its k sorted slots hold the edge score
    top = ranked[:, d - k, None]
    room = (ranked[:, d - k :] == top).sum(axis=1)
    longs = _leg(scores > top, scores == top, room, lowest_first=True).reshape(days, k)
    if mode == "long-only":
        return longs, longs[:, :0]
    bottom = ranked[:, k - 1, None]
    room = (ranked[:, :k] == bottom).sum(axis=1)
    return longs, _leg(scores < bottom, scores == bottom, room, lowest_first=False).reshape(days, k)


def _leg(beyond: np.ndarray, at_edge: np.ndarray, room: np.ndarray, lowest_first: bool) -> np.ndarray:
    """One leg per row: the scores ``beyond`` the row's edge and ``room`` of those ``at_edge``.

    ``beyond`` and ``at_edge`` are ``(days, d)`` masks; the tied scores fill
    each row's room from the lowest index when ``lowest_first``, else from
    the highest. Returns the members' column indices, row after row, each
    row ascending. Fills ``beyond`` in place.
    """
    days, d = beyond.shape
    tied = np.flatnonzero(at_edge)
    rows = tied // d
    counts = np.bincount(rows, minlength=days)
    # each tied score's place among its row's ties, from the side the leg fills first
    place = np.arange(len(tied)) - (np.cumsum(counts) - counts)[rows]
    if not lowest_first:
        place = counts[rows] - 1 - place
    np.put(beyond, tied[place < room[rows]], True)
    return np.flatnonzero(beyond) % d


def cw_weights(d: int, longs: np.ndarray, shorts: np.ndarray) -> np.ndarray:
    """Equal weights on each day's legs: ``+1/k`` per long, ``-1/k`` per short.

    ``longs`` and ``shorts`` are ``select_decile``'s ``(days, k)`` legs; the
    result is ``(days, d)``.
    """
    weights = np.zeros((len(longs), d))
    rows = np.arange(len(longs))[:, None]
    weights[rows, longs] = 1.0 / longs.shape[1]
    if shorts.shape[1]:
        weights[rows, shorts] -= 1.0 / shorts.shape[1]
    return weights


def nbar_weights(posterior: np.ndarray, longs: np.ndarray, shorts: np.ndarray) -> np.ndarray:
    """Posterior-proportional long leg and complement-proportional short leg, day by day.

    On row ``j`` of the ``(days, d)`` posterior each long weighs ``p`` over
    its leg's sum of ``p``, and each short ``1 - p`` over its leg's sum of
    ``1 - p``, so an asset with posterior 1 gets no short weight. The legs
    are ``select_decile``'s; the result is ``(days, d)``.
    """
    weights = np.zeros(posterior.shape)
    rows = np.arange(len(posterior))[:, None]
    picked = np.take_along_axis(posterior, longs, axis=1)
    total = picked.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("selected posteriors sum to zero")
    weights[rows, longs] += picked / total
    if shorts.shape[1]:
        complement = 1.0 - np.take_along_axis(posterior, shorts, axis=1)
        total = complement.sum(axis=1, keepdims=True)
        if (total <= 0.0).any():
            raise ValueError("every selected posterior is 1; short weights undefined")
        weights[rows, shorts] -= complement / total
    return weights


def transaction_cost(
    prev: np.ndarray, weights: np.ndarray, rates: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Each day's cost rate and turnover over a block of rebalances.

    Row ``j`` of the ``(days, d)`` ``weights`` rebalances from row ``j - 1``,
    and row 0 from ``prev``. A day's turnover is its sum of |weight change|
    and its cost is the half-spread ``rates`` row times that change;
    ``rates=None`` costs nothing. Returns ``(cost, turnover)``, one entry
    per day.
    """
    if prev.shape != weights.shape[1:] or (rates is not None and rates.shape != weights.shape):
        raise ValueError("prev, weights and spread rates must share one length")
    if not np.isfinite(weights).all():
        raise ValueError("weights contain non-finite values")
    change = np.empty_like(weights)
    np.subtract(weights[0], prev, out=change[0])
    np.subtract(weights[1:], weights[:-1], out=change[1:])
    np.abs(change, out=change)
    if rates is None:
        return np.zeros(len(weights)), change.sum(axis=1)
    if (rates < 0.0).any():
        raise ValueError("half-spread rates must be non-negative")
    return _row_dots(rates, change), change.sum(axis=1)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[j] @ b[j]`` for every row ``j`` of two ``(days, d)`` arrays, in one call.

    numpy computes each stacked vector-by-vector product with the kernel
    that ``a[j] @ b[j]`` uses, so every entry has that product's bits.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class MetricsBlock:
    """Summary statistics of a daily net-return series.

    ``cagr`` compounds geometrically and annualises over 252 trading
    days; ``sharpe`` is mean over sample stdev times sqrt(252);
    ``prob_positive`` is the standard normal CDF at the Sharpe ratio;
    ``max_drawdown`` is the largest peak-to-trough drop of the cumulative
    sum (starting from zero). Ratios that would divide by zero are None,
    and so are ``cagr`` and ``return_over_maxdd`` when they pass the
    largest float; ``std`` is taken of rescaled values when the squares of
    the returns would.
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


def _finite(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


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
    std = 0.0 if np.ptp(r) == 0.0 else sample_std(r)
    total = float(r.sum())

    growth = 1.0 + r
    cagr: float | None = None
    if (growth > 0.0).all():
        with np.errstate(over="ignore"):  # a yearly rate past the largest float reads None
            product = np.prod(growth)
            if np.finfo(float).tiny <= product < math.inf:
                cagr = float(product ** (TRADING_DAYS_PER_YEAR / n) - 1.0)
            else:  # the product overflows or underflows; its logarithm does neither
                cagr = float(np.exp(np.log1p(r).sum() * (TRADING_DAYS_PER_YEAR / n)) - 1.0)

    sharpe: float | None = None
    prob_positive: float | None = None
    if std > 0.0:
        sharpe = float(r.mean()) / std * math.sqrt(TRADING_DAYS_PER_YEAR)
        prob_positive = _normal_cdf(sharpe)

    equity = np.concatenate([[0.0], np.cumsum(r)])
    max_drawdown = float((np.maximum.accumulate(equity) - equity).max())
    return_over_maxdd = total / max_drawdown if max_drawdown > 0.0 else None

    win_ratio = float((r > 0.0).mean())
    q25, median, q75 = quartiles(r)
    return MetricsBlock(
        days=n,
        mean=float(r.mean()),
        std=std,
        min=float(r.min()),
        q25=q25,
        median=median,
        q75=q75,
        max=float(r.max()),
        total=total,
        cagr=_finite(cagr),
        sharpe=sharpe,
        prob_positive=prob_positive,
        max_drawdown=max_drawdown,
        return_over_maxdd=_finite(return_over_maxdd),
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
            "config": asdict(self.config),
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


def _signal(
    panel: QuotePanel, tau: float, ridge_lambda: float, name: str, compute: Callable[[], np.ndarray]
) -> np.ndarray:
    """The panel's signal ``name`` under ``(tau, ridge_lambda)``, from ``compute()`` on first use.

    ``_SIGNALS`` holds one pair's signals per panel: a new pair drops the
    old pair's before ``compute`` runs, so one pair's are held at a time.
    The result is stored read-only once ``compute`` returns; a pass that
    raises stores nothing and runs again on the next call.
    """
    key = (tau, ridge_lambda)
    held = _SIGNALS.get(panel)
    if held is None or held[0] != key:
        _SIGNALS.pop(panel, None)
    elif name in held[1]:
        return held[1][name]
    value = compute()
    value.setflags(write=False)
    _SIGNALS.setdefault(panel, (key, {}))[1][name] = value
    return value


def _forecast_matrix(panel: QuotePanel, tau: float, ridge_lambda: float) -> np.ndarray:
    """Curds-whey forecasts for every booked day, as one read-only ``(n - 2, d)`` array.

    Row ``i`` is ``y_tilde`` after the forecaster has folded in return row
    ``i``: the scores for ``panel.dates[i + 1]``. The forecaster folds the
    returns in one ``CurdsWheyState.step`` call. A pass that yields a
    non-finite forecast, as one that overflows does, raises, naming the
    first date that has one.
    """

    def compute() -> np.ndarray:
        model = CurdsWheyState(panel.n_assets, ridge_lambda, tau)
        with np.errstate(over="ignore", invalid="ignore"):
            forecasts = model.step(panel.returns[:-1])
        finite = np.isfinite(forecasts).all(axis=1)
        if not finite.all():
            first = int(finite.argmin())
            raise BacktestError(f"non-finite forecast at {panel.dates[first + 1].isoformat()}")
        return forecasts

    return _signal(panel, tau, ridge_lambda, "forecasts", compute)


def _posterior_matrix(panel: QuotePanel, config: BacktestConfig) -> np.ndarray:
    """The ranker's posterior after each booked day, as one read-only ``(n - 2, d)`` array.

    The ranker reads ``config.nbar_input``, the forecasts or the day's
    realised returns, in one ``RankerState.update`` call.
    """
    tau, ridge_lambda = config.tau, config.ridge_lambda

    def compute() -> np.ndarray:
        if config.nbar_input == "realised":
            performance = panel.returns[:-1]
        else:
            performance = _forecast_matrix(panel, tau, ridge_lambda)
        return RankerState(panel.n_assets, tau).update(performance)

    return _signal(panel, tau, ridge_lambda, f"posterior of {config.nbar_input}", compute)


def run_backtest(panel: QuotePanel, config: BacktestConfig) -> BacktestReport:
    """Run one strategy over a panel, benchmarked against equal weighting.

    Day ``t`` folds today's return vector into the forecaster, scores the
    assets, rebalances to the target weights (paying half-spread cost on
    the weight change at today's quotes), and earns tomorrow's returns on
    those weights. Positions start flat, so the first rebalance pays the
    full entry cost. Any non-finite forecast aborts the run. The
    forecaster is not run when nothing reads it: nbar on realised returns
    with members chosen by posterior.

    The forecasts and each input's ranker posterior are computed once per
    panel and ``(tau, ridge_lambda)`` and kept by ``_signal`` (see
    ``_forecast_matrix`` and ``_posterior_matrix``); the scores are the
    posterior for nbar by-p and the forecasts otherwise. The accounting
    runs on every call, ``_BLOCK_DAYS`` days at a time: ``select_decile``
    picks each block's legs, ``cw_weights`` or ``nbar_weights`` sets its
    targets and ``transaction_cost`` its costs and turnover. Sector tallies
    sum each asset's days in each leg.
    """
    d = panel.n_assets
    rets = panel.returns
    if rets.shape[0] < 3:
        raise ValueError(
            "panel must provide at least 4 dates: each record needs a next-day "
            "return and the metric block needs 2 records"
        )
    n_days = rets.shape[0] - 1
    nbar = config.strategy == "nbar"
    by_p = nbar and config.nbar_membership == "by-p"
    posterior = _posterior_matrix(panel, config) if nbar else None
    scores = posterior if by_p else _forecast_matrix(panel, config.tau, config.ridge_lambda)
    rates = panel.half_spread_rates[1 : n_days + 1] if config.cost_model == "half-spread" else None

    gross = np.empty(n_days)
    benchmark = rets[1:].mean(axis=1)
    cost = np.empty(n_days)
    turnover = np.empty(n_days)
    picks = np.zeros((2, d), dtype=np.int64)  # each asset's days in the long and short legs
    prev = np.zeros(d)
    for start in range(0, n_days, _BLOCK_DAYS):
        days = slice(start, start + _BLOCK_DAYS)
        longs, shorts = select_decile(scores[days], config.decile_fraction, config.mode)
        if posterior is None:
            weights = cw_weights(d, longs, shorts)
        else:
            weights = nbar_weights(posterior[days], longs, shorts)
        cost[days], turnover[days] = transaction_cost(prev, weights, None if rates is None else rates[days])
        gross[days] = _row_dots(weights, rets[start + 1 : start + 1 + len(weights)])
        picks[0] += np.bincount(longs.ravel(), minlength=d)
        picks[1] += np.bincount(shorts.ravel(), minlength=d)
        prev = weights[-1].copy()

    net = gross - cost
    for column in (gross, cost, net, turnover, benchmark):
        column.setflags(write=False)
    tallies = None
    if panel.sectors is not None:
        sectors = np.array(panel.sectors, dtype=object)
        tallies = {
            name: dict(zip(("long", "short"), picks[:, sectors == name].sum(axis=1).tolist()))
            for name in sorted(set(panel.sectors))
        }
    return BacktestReport(
        config=config,
        dates=panel.dates[1 : n_days + 1],
        gross=gross,
        cost=cost,
        net=net,
        turnover=turnover,
        benchmark=benchmark,
        n_long=longs.shape[1],
        n_short=shorts.shape[1],
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
