"""Day-by-day backtest loop, kept as the oracle for ``run_backtest``.

This is the loop ``seqrank.backtest.run_backtest`` replaced: each day it
steps a fresh forecaster, updates the ranker, and books the day through
the per-day helpers (``select_decile``, ``cw_weights`` or
``nbar_weights``, ``transaction_cost``) with one weight vector per day
and Python ``int`` lists for the legs. The tests compare the array
backtest's reports against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from seqrank.backtest import (
    BacktestError,
    BacktestReport,
    DailyRecord,
    compute_metrics,
    cw_weights,
    nbar_weights,
    select_decile,
    transaction_cost,
)
from seqrank.ranker import RankerState
from seqrank.regression import CurdsWheyState


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
    records: list[DailyRecord] = []
    benchmark: list[float] = []
    tallies: dict[str, dict[str, int]] | None = None
    if panel.sectors is not None:
        tallies = {sector: {"long": 0, "short": 0} for sector in sorted(set(panel.sectors))}

    x = np.empty(d + 1)
    x[0] = 1.0
    for i in range(rets.shape[0] - 1):
        today = panel.dates[i + 1]
        r_today = rets[i]
        if model is not None:
            x[1:] = r_today
            scores = model.step(x, r_today).y_tilde
            if not np.isfinite(scores).all():
                raise BacktestError(f"non-finite forecast at {today.isoformat()}")
        if ranker is not None:
            ranker.update(r_today if realised else scores)
            member_scores = ranker.p if by_p else scores
        else:
            member_scores = scores
        long_set, short_set = select_decile(member_scores, config.decile_fraction, config.mode)
        if ranker is not None:
            target = nbar_weights(ranker, long_set, short_set)
        else:
            target = cw_weights(d, long_set, short_set)
        rates = zero_rates if zero_cost else panel.half_spread_rates[i + 1]
        cost = transaction_cost(weights_prev, target, rates)
        r_next = rets[i + 1]
        gross = float(target @ r_next)
        records.append(
            DailyRecord(
                date=today,
                gross_return=gross,
                cost=cost,
                net_return=gross - cost,
                turnover=float(np.abs(target - weights_prev).sum()),
                n_long=len(long_set),
                n_short=len(short_set),
            )
        )
        benchmark.append(float(r_next.mean()))
        if tallies is not None:
            for idx in long_set:
                tallies[panel.sectors[idx]]["long"] += 1
            for idx in short_set:
                tallies[panel.sectors[idx]]["short"] += 1
        weights_prev = target

    return BacktestReport(
        config=config,
        records=tuple(records),
        benchmark_returns=tuple(benchmark),
        strategy_metrics=compute_metrics([rec.net_return for rec in records]),
        benchmark_metrics=compute_metrics(benchmark),
        sector_selection=tallies,
    )
