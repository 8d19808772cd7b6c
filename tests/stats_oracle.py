"""Levene's W and Welch's t one group at a time, and the stationarity
report as JSON values, kept as the oracles for ``seqrank.stats``.

``levene_test``, ``welch_t_test`` and ``monthly_stationarity_report``
share array helpers that compute every series' groups at once. This
module keeps the textbook form of the same statistics: one numpy array
per group, its moments from ``mean`` and ``var(ddof=1)``, and the rest
in Python floats. The tests hold the helpers to it bit for bit.

``report_json_dict`` builds the report's JSON values one dict per record,
as the report did before it wrote its own text; ``json.dumps`` of them is
the text the report's writer must give.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from itertools import compress

import numpy as np


def levene_w(groups) -> float:
    """Levene's W on absolute deviations from the group means; ``inf``
    when the deviations carry no within-group variance."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    sizes = np.array([len(g) for g in arrays])
    k = len(arrays)
    devs = [np.abs(g - g.mean()) for g in arrays]
    dev_means = np.array([z.mean() for z in devs])
    grand = float(np.concatenate(devs).mean())
    within = sum(float(((z - z.mean()) ** 2).sum()) for z in devs)
    if within == 0.0:
        return math.inf
    between = float((sizes * (dev_means - grand) ** 2).sum())
    return ((int(sizes.sum()) - k) / (k - 1)) * between / within


def welch(a, b) -> tuple[float, float] | None:
    """Welch's t and Welch-Satterthwaite degrees of freedom; None when
    both samples are constant or their variances underflow or overflow in
    the degrees of freedom."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    n1, m1, v1 = len(xa), float(xa.mean()), float(xa.var(ddof=1))
    n2, m2, v2 = len(xb), float(xb.mean()), float(xb.var(ddof=1))
    se2 = v1 / n1 + v2 / n2
    try:
        dof_denominator = (v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1)
        se2_sq = se2**2
    except OverflowError:
        return None
    if se2 == 0.0 or dof_denominator in (0.0, math.inf) or se2_sq == math.inf:
        return None
    return (m1 - m2) / math.sqrt(se2), se2_sq / dof_denominator


def report_json_dict(report) -> dict:
    """A ``StationarityReport`` as JSON values. The ADF blocks come from
    ``asdict`` with float keys, which ``json.dumps`` writes as ``"0.01"``,
    ``"0.05"`` and ``"0.1"``, sorted numerically: the order of those strings."""
    # the keys that a pair's test rows share across assets
    pair_keys = [
        {"shift": shift, "month": report.months[i], "prior_month": report.months[k]}
        for i, k, shift in report.pairs.tolist()
    ]
    counts = report.counts.tolist()
    assets = []
    for j, diag in enumerate(report.assets):
        groups = zip(report.months, counts, report.means[j].tolist(), report.variances[j].tolist())
        tests = zip(pair_keys, report.t_stat[j].tolist(), report.dof[j].tolist(),
                    report.critical_value[j].tolist(), report.reject[j].tolist())
        assets.append({
            **asdict(diag),
            "month_groups": [
                {"month": month, "count": n, "mean": mean, "var": var}
                for month, n, mean, var in groups
            ],
            "t_tests": [
                {**keys, "t_stat": t_stat, "dof": dof, "critical_value": critical, "reject": reject}
                for keys, t_stat, dof, critical, reject in compress(tests, report.tested[j].tolist())
            ],
        })
    return {
        "alpha": report.alpha,
        "sidedness": report.sidedness,
        "max_shift": report.max_shift,
        "adf_level": report.adf_level,
        "assets": assets,
        "rejection_by_shift": [s.to_json_dict() for s in report.rejection_by_shift],
        "skipped": dict(report.skipped),
        "price_nonstationary_fraction": report.price_nonstationary_fraction,
        "return_stationary_fraction": report.return_stationary_fraction,
        "levene_rejection_fraction": report.levene_rejection_fraction,
    }
