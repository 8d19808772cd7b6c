"""Levene's W and Welch's t one group at a time, kept as the oracle for ``seqrank.stats``.

``levene_test``, ``welch_t_test`` and ``monthly_stationarity_report``
share array helpers that compute every series' groups at once. This
module keeps the textbook form of the same statistics: one numpy array
per group, its moments from ``mean`` and ``var(ddof=1)``, and the rest
in Python floats. The tests hold the helpers to it bit for bit.
"""

from __future__ import annotations

import math

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
