"""Day-by-day backtest loop and portfolio rules, kept as the oracle for ``seqrank.backtest``.

``seqrank.backtest`` books the days in blocks, with ``select_decile``,
``cw_weights``, ``nbar_weights`` and ``transaction_cost`` taking
``(days, d)`` arrays. This module keeps the same rules one day at a time,
on plain weight vectors (longs positive, shorts negative) and Python
``int`` lists for the legs, and the loop ``run_backtest`` replaced: each
day it steps a fresh forecaster, updates the ranker, and books the day
through those per-day rules. The tests compare the block functions and
the array backtest's reports against them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from seqrank.backtest import BacktestError, BacktestReport, compute_metrics
from seqrank.ranker import RankerState
from seqrank.regression import CurdsWheyState


def select_decile(scores, fraction: float, mode: str) -> tuple[list[int], list[int]]:
    """Top and bottom slices of one day's scores, ``k = max(1, floor(d * fraction))``.

    Assets are ordered by descending score with ties broken by ascending
    index; the long set is the head of that order and the short set the
    tail (empty in long-only mode), each a sorted list of ``int``.
    """
    s = np.asarray(scores, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("scores contain non-finite values")
    d = len(s)
    k = max(1, int(math.floor(d * fraction)))
    order = np.argsort(-s, kind="stable")
    long_set = np.sort(order[:k]).tolist()
    if mode == "long-only":
        return long_set, []
    return long_set, np.sort(order[d - k :]).tolist()


def cw_weights(d: int, long_set: list[int], short_set: list[int]) -> np.ndarray:
    """Equal weights of 1/k on each leg: +1/len(long) long, -1/len(short) short."""
    weights = np.zeros(d)
    if long_set:
        weights[long_set] = 1.0 / len(long_set)
    if short_set:
        weights[short_set] -= 1.0 / len(short_set)
    return weights


def nbar_weights(p: np.ndarray, long_set: list[int], short_set: list[int]) -> np.ndarray:
    """Each long weighs ``p`` over its leg's sum of ``p``, each short ``1 - p`` over its leg's sum."""
    weights = np.zeros(len(p))
    if long_set:
        picked = p[long_set]
        total = float(picked.sum())
        if total <= 0.0:
            raise ValueError("selected posteriors sum to zero")
        weights[long_set] += picked / total
    if short_set:
        complement = 1.0 - p[short_set]
        total = float(complement.sum())
        if total <= 0.0:
            raise ValueError("every selected posterior is 1; short weights undefined")
        weights[short_set] -= complement / total
    return weights


def transaction_cost(prev: np.ndarray, new: np.ndarray, half_spread_rates: np.ndarray) -> float:
    """Cost rate of one rebalance: sum of half-spread rate times |weight change|."""
    if not (np.isfinite(prev).all() and np.isfinite(new).all()):
        raise ValueError("weights contain non-finite values")
    if (half_spread_rates < 0.0).any():
        raise ValueError("half-spread rates must be non-negative")
    return float(half_spread_rates @ np.abs(new - prev))


def oracle_run_backtest(panel, config) -> BacktestReport:
    """``run_backtest`` as one Python loop over the days."""
    d = panel.n_assets
    rets = panel.returns
    if rets.shape[0] < 3:
        raise ValueError(
            "panel must provide at least 4 dates: each record needs a next-day "
            "return and the metric block needs 2 records"
        )
    ranker = RankerState(d, config.tau) if config.strategy == "nbar" else None
    realised = config.nbar_input == "realised"
    by_p = config.nbar_membership == "by-p"
    needs_forecast = ranker is None or not (realised and by_p)
    model = CurdsWheyState(d, config.ridge_lambda, config.tau) if needs_forecast else None
    zero_cost = config.cost_model == "zero"
    zero_rates = np.zeros(d)

    weights_prev = np.zeros(d)
    columns: dict[str, list[float]] = {
        name: [] for name in ("gross", "cost", "net", "turnover", "benchmark")
    }
    dates = []
    n_long: set[int] = set()
    n_short: set[int] = set()
    tallies: dict[str, dict[str, int]] | None = None
    if panel.sectors is not None:
        tallies = {sector: {"long": 0, "short": 0} for sector in sorted(set(panel.sectors))}

    for i in range(rets.shape[0] - 1):
        today = panel.dates[i + 1]
        r_today = rets[i]
        if model is not None:
            scores = model.step(r_today).y_tilde
            if not np.isfinite(scores).all():
                raise BacktestError(f"non-finite forecast at {today.isoformat()}")
        if ranker is not None:
            ranker.update(r_today if realised else scores)
            member_scores = ranker.p if by_p else scores
        else:
            member_scores = scores
        long_set, short_set = select_decile(member_scores, config.decile_fraction, config.mode)
        if ranker is not None:
            target = nbar_weights(ranker.p, long_set, short_set)
        else:
            target = cw_weights(d, long_set, short_set)
        rates = zero_rates if zero_cost else panel.half_spread_rates[i + 1]
        cost = transaction_cost(weights_prev, target, rates)
        r_next = rets[i + 1]
        gross = float(target @ r_next)
        dates.append(today)
        columns["gross"].append(gross)
        columns["cost"].append(cost)
        columns["net"].append(gross - cost)
        columns["turnover"].append(float(np.abs(target - weights_prev).sum()))
        columns["benchmark"].append(float(r_next.mean()))
        n_long.add(len(long_set))
        n_short.add(len(short_set))
        if tallies is not None:
            for idx in long_set:
                tallies[panel.sectors[idx]]["long"] += 1
            for idx in short_set:
                tallies[panel.sectors[idx]]["short"] += 1
        weights_prev = target

    # the report holds one leg size per run, so every day's legs must agree
    (n_long,), (n_short,) = n_long, n_short
    return BacktestReport(
        config=config,
        dates=tuple(dates),
        **{name: np.array(values) for name, values in columns.items()},
        n_long=n_long,
        n_short=n_short,
        strategy_metrics=compute_metrics(columns["net"]),
        benchmark_metrics=compute_metrics(columns["benchmark"]),
        sector_selection=tallies,
    )
