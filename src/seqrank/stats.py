"""Nonstationarity diagnostics for daily price panels.

Three building blocks and one report:

* :func:`adf_test` regresses the first difference of a series on a
  constant and the lagged level; the t value of the lagged-level
  coefficient is compared against left-tail unit-root critical values from
  an embedded response-surface polynomial in 1/n (constant-only case).
* :func:`levene_test` checks homogeneity of variance across groups using
  absolute deviations from group means, referred to an F distribution.
* :func:`welch_t_test` compares two sample means without assuming equal
  variances (fractional degrees of freedom).
* :func:`monthly_stationarity_report` runs all three per asset on a quote
  panel, grouping daily returns by calendar month and testing each month's
  mean against months 1..max_shift earlier.

Student-t and F critical values are quantiles of the regularised
incomplete beta ``I_x(a, b)``, computed here with numpy alone: Halley
steps on its logarithm in the log-odds of ``x``, each step evaluating
DiDonato and Morris's continued fraction (TOMS 708, 1992) with ``ln B``
from Stirling remainders, from Hill's (1970, Algorithm 396) start for t
and a normal start for F. They agree with ``scipy.special.stdtrit`` and
``fdtri`` within 1e-13 relative over the dof and tails the report uses,
except where scipy itself misses (README, "Dependencies"). The monthly
report works on the panel's kept returns as one ``(assets, returns)``
matrix: every asset's monthly means and variances, Levene W and Welch
pairs are array operations over it, then one F quantile and one
vectorised pass of t quantiles give the critical values. Only the
unit-root tests run per asset. :func:`levene_test` and
:func:`welch_t_test` are one-series calls of the same private helpers,
so the report and the scalar tests cannot drift apart.

Sidedness of the mean test is configurable because daily-return studies
report both conventions: ``"one-sided"`` compares ``|t|`` against the
one-tailed quantile (a looser gate whose null rejection rate is twice
alpha), ``"two-sided"`` against the two-tailed quantile (null rejection
rate equal to alpha).
"""

from __future__ import annotations

import json
import math
from contextlib import closing
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

import numpy as np

from ._fork import split_map
from ._json import chunks
from .timeseries import QuotePanel

__all__ = [
    "DegenerateDataError",
    "AdfResult",
    "LeveneResult",
    "TTestResult",
    "AssetDiagnostics",
    "ShiftRejection",
    "StationarityReport",
    "adf_test",
    "levene_test",
    "welch_t_test",
    "monthly_stationarity_report",
    "render_report_table",
]

SIDEDNESS_VALUES = ("one-sided", "two-sided")

# Unit-root critical values for the constant-only regression, as a cubic
# response surface in 1/n: cv = b0 + b1/n + b2/n^2 + b3/n^3 where n is the
# regression sample size. b0 is the asymptotic value (-3.43 / -2.86 / -2.57).
_UNIT_ROOT_SURFACE: dict[float, tuple[float, float, float, float]] = {
    0.01: (-3.43035, -6.5393, -16.786, -79.433),
    0.05: (-2.86154, -2.8903, -4.234, -40.040),
    0.10: (-2.56677, -1.5384, -2.809, 0.0),
}


class DegenerateDataError(ValueError):
    """Raised when a test statistic is undefined for the given data."""


@dataclass(frozen=True)
class AdfResult:
    """Unit-root regression output.

    ``reject_unit_root[alpha]`` is True iff ``t_stat`` falls below the
    left-tail critical value at that level (rejection means the series
    looks stationary).
    """

    theta0: float
    theta1: float
    t_stat: float
    critical_values: dict[float, float]
    reject_unit_root: dict[float, bool]
    nobs: int


@dataclass(frozen=True)
class LeveneResult:
    w_stat: float
    dof_between: int
    dof_within: int
    critical_value: float
    reject: bool


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    dof: float
    critical_value: float
    reject: bool


def adf_test(series: Sequence[float] | np.ndarray) -> AdfResult:
    """Unit-root test: OLS of ``diff(y)`` on ``[1, y_lagged]``, at levels 0.01, 0.05 and 0.10.

    Needs at least 20 observations. Raises :class:`DegenerateDataError`
    for constant series and for series whose differences are fitted with
    zero residual variance (the t value would be 0/0).
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if len(y) < 20:
        raise ValueError(f"series too short for a unit-root test: {len(y)} < 20")
    if not np.isfinite(y).all():
        raise ValueError("series contains non-finite values")
    if np.ptp(y) == 0.0:
        raise DegenerateDataError("series is constant")
    dy = np.diff(y)
    if np.ptp(dy) == 0.0:
        raise DegenerateDataError("differenced series is constant (zero residual variance)")
    nobs = len(dy)
    X = np.column_stack([np.ones(nobs), y[:-1]])
    coef, _, rank, _ = np.linalg.lstsq(X, dy, rcond=None)
    if rank < 2:
        raise DegenerateDataError("regression design is rank deficient")
    resid = dy - X @ coef
    sse = float(resid @ resid)
    dof = nobs - 2
    if sse <= 0.0:
        raise DegenerateDataError("zero residual variance")
    sigma2 = sse / dof
    xtx_inv = np.linalg.inv(X.T @ X)
    stderr = float(np.sqrt(sigma2 * xtx_inv[1, 1]))
    t_stat = float(coef[1]) / stderr
    critical = {
        a: b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
        for a, (b0, b1, b2, b3) in _UNIT_ROOT_SURFACE.items()
    }
    reject = {a: bool(t_stat < cv) for a, cv in critical.items()}
    return AdfResult(
        theta0=float(coef[0]),
        theta1=float(coef[1]),
        t_stat=t_stat,
        critical_values=critical,
        reject_unit_root=reject,
        nobs=nobs,
    )


def _group_sums(x: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group means and sums of squared deviations from them.

    ``x`` is C-contiguous, one row per series with its groups side by side
    in the order of ``sizes``; both results are ``(rows, groups)``. The
    groups of one length are reduced together as one C-contiguous
    ``(rows * groups, length)`` block along axis 1, which sums each group
    in the same pairwise order, so to the same bits, as ``v.mean()`` and
    ``v.var(ddof=1)`` on the group alone.
    """
    starts = np.cumsum(sizes) - sizes
    means = np.empty((len(x), len(sizes)))
    squares = np.empty_like(means)
    for length in sorted(set(sizes.tolist())):
        groups = np.flatnonzero(sizes == length)
        # take, unlike x[:, index], lays its result out C-contiguous
        block = x.take(starts[groups, None] + np.arange(length), axis=1).reshape(-1, length)
        mean = block.mean(axis=1)
        dev = block - mean[:, None]
        means[:, groups] = mean.reshape(len(x), -1)
        squares[:, groups] = (dev * dev).sum(axis=1).reshape(len(x), -1)
    return means, squares


def _moments(x: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group means and ddof=1 variances (see :func:`_group_sums`)."""
    means, squares = _group_sums(x, sizes)
    return means, squares / (sizes - 1)


def _levene(
    x: np.ndarray, sizes: np.ndarray, means: np.ndarray, alpha: float
) -> list[LeveneResult | None]:
    """Each row's Levene test across its groups, None where W is not finite.

    ``x`` and ``sizes`` are laid out as for :func:`_group_sums`, and
    ``means`` are the group means. W is not finite when the absolute
    deviations carry no within-group variance, or one so small that W
    overflows. Every row has the same degrees of freedom, so one F
    quantile serves them all.
    """
    k = len(sizes)
    dof_between, dof_within = k - 1, int(sizes.sum()) - k
    devs = np.abs(x - np.repeat(means, sizes, axis=1))
    dev_means, squares = _group_sums(devs, sizes)
    grand = devs.mean(axis=1)
    # a left fold over the groups, not numpy's pairwise sum: W's bits depend on the order
    within = sum(squares.T)
    between = (sizes * (dev_means - grand[:, None]) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w_stat = (dof_within / dof_between) * between / within
    critical = _f_quantile(dof_between, dof_within, 1.0 - alpha)
    return [
        LeveneResult(w, dof_between, dof_within, critical, w > critical)
        if math.isfinite(w) else None
        for w in w_stat.tolist()
    ]


def levene_test(groups: Sequence[Sequence[float]], alpha: float = 0.05) -> LeveneResult:
    """Homogeneity-of-variance W statistic on mean-centred absolute deviations.

    Raises :class:`DegenerateDataError` when W is not finite: the
    within-group deviations carry no variance at all, or so little that W
    overflows.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    k = len(arrays)
    if k < 2:
        raise ValueError(f"need at least 2 groups, got {k}")
    for i, g in enumerate(arrays):
        if g.ndim != 1 or len(g) < 2:
            raise ValueError(f"group {i} must hold at least 2 observations")
        if not np.isfinite(g).all():
            raise ValueError(f"group {i} contains non-finite values")
    sizes = np.array([len(g) for g in arrays])
    x = np.concatenate(arrays)[None, :]
    [result] = _levene(x, sizes, _group_sums(x, sizes)[0], alpha)
    if result is None:
        raise DegenerateDataError(
            "absolute deviations carry too little within-group variance for a finite W"
        )
    return result


def _welch(
    counts: np.ndarray, means: np.ndarray, variances: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Welch t statistics, Welch-Satterthwaite degrees of freedom and the
    mask of defined ones, for every row's group pairs.

    ``counts`` are the groups' sizes; ``means`` and ``variances`` (ddof=1)
    are ``(rows, groups)``; ``pairs`` holds ``(i, k)`` group indices, and
    pair ``p`` of a row compares its group ``i`` with its group ``k``. A
    pair is undefined when both groups are constant or their variances
    underflow or overflow in the degrees of freedom; it reads NaN.

    Each group's ``(v / n) ** 2`` is taken once and shared by its pairs.
    """
    share = variances / counts
    share_sq = _squares(share) / (counts - 1)
    first, second = pairs[:, 0], pairs[:, 1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        se2 = share[:, first] + share[:, second]
        dof_denominator = share_sq[:, first] + share_sq[:, second]
        se2_sq = _squares(se2)
        tested = (se2 != 0.0) & (dof_denominator != 0.0) & np.isfinite(dof_denominator) & np.isfinite(se2_sq)
        t_stat = np.where(tested, (means[:, first] - means[:, second]) / np.sqrt(se2), np.nan)
        dof = np.where(tested, se2_sq / dof_denominator, np.nan)
    return t_stat, dof, tested


def _squares(values: np.ndarray) -> np.ndarray:
    """Each entry's Python float ``a ** 2``, infinite where it overflows.

    Python's ``**`` on purpose: numpy's ``a * a`` moves some degrees of
    freedom by one ulp. It raises on overflow, so only then are the entries
    squared one at a time.
    """
    flat = values.ravel().tolist()
    try:
        squares = [a**2 for a in flat]
    except OverflowError:
        squares = [_square(a) for a in flat]
    return np.array(squares).reshape(values.shape)


def _square(a: float) -> float:
    try:
        return a**2
    except OverflowError:
        return math.inf


def _stirling(z):
    """Stirling's remainder ln Γ(z) - (z - 1/2) ln z + z - ln √(2π), six terms, for z >= 10."""
    w = 1.0 / (z * z)
    return (((((-691 / 360360 * w + 1 / 1188) * w - 1 / 1680) * w + 1 / 1260) * w - 1 / 360) * w + 1 / 12) / z


def _log_beta(a: float, b):
    """ln B(a, b) = ln Γ(a) + ln(Γ(b) / Γ(a + b)) for a float ``a`` and each ``b``.

    ``b`` is first raised to 10 or more by B(a, b) = B(a, b + 1)(a + b)/b;
    the ratio then comes from Stirling remainders, in TOMS 708's ``algdiv``
    form, which subtracts no two large logarithms.
    """
    b = np.asarray(b, dtype=float)
    shift = np.ones_like(b)
    while (b < 10.0).any():
        small = b < 10.0
        shift = np.where(small, shift * (a + b) / b, shift)
        b = b + small
    return (math.lgamma(a) - (a + b - 0.5) * np.log1p(a / b) - a * np.log(b) + a
            + _stirling(b) - _stirling(a + b) + np.log(shift))


def _beta_fraction(x, y, a, b):
    """``r`` with I_x(a, b) = x^a y^b r / B(a, b), where y = 1 - x.

    DiDonato and Morris's continued fraction (TOMS 708's ``bfrac``), which
    reads ``y`` rather than ``1 - x``. Each entry stops at the term where
    its convergents agree to 1e-16, so its bits do not depend on the others.
    """
    c, c0, c1, y1 = 1.0 + a * y - b * x, b / a, 1.0 + 1.0 / a, y + 1.0
    p, s, an, bn, an1 = 1.0, a + 1.0, 0.0, 1.0, 1.0
    bn1 = c / c1
    r = c1 / c
    done = np.zeros(np.shape(x), dtype=bool)
    for n in range(1, 10_000):
        t, e, w = n / a, a / s, n * (b - n) * x
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * y1)
        p, s = 1.0 + t, s + 2.0
        an, an1 = an1, alpha * an + beta * an1
        bn, bn1 = bn1, alpha * bn + beta * bn1
        r, last = np.where(done, r, an1 / bn1), r
        done |= np.abs(r - last) <= 1e-16 * r
        if done.all():
            break
        an, bn, an1, bn1 = an / bn1, bn / bn1, r, 1.0
    return r


def _beta_logit(a, b, log_beta, lower, upper, start: np.ndarray) -> np.ndarray:
    """Log-odds ln(x / (1 - x)) of each x with I_x(a, b) = ``lower``, where
    ``upper`` = 1 - ``lower`` is given exactly, by Halley steps from ``start``.

    Each of ``a``, ``b``, ``log_beta`` (ln B(a, b)), ``lower`` and ``upper`` is
    a float or an array shaped like ``start``. A step on ln I moves the
    log-odds, in which I's power-law tails are straight lines. Above the
    mean by a margin the swapped I_{1-x}(b, a) = ``upper`` is solved instead:
    the fraction converges slowly there, and there ``upper`` is the small
    side. Each entry stops after a step under 1e-6, which leaves an error
    near the step's cube.
    """
    def take(value, rows):
        return value[rows] if np.ndim(value) else value

    edge = np.minimum(0.5, (1.0 + 0.5 / a) * (a + 1.0) / (a + b + 2.0))
    swap = start > np.log(edge / (1.0 - edge))
    logit = np.empty_like(start)
    for side, a, b, target, sign in ((~swap, a, b, lower, 1.0), (swap, b, a, upper, -1.0)):
        index = np.flatnonzero(side)
        u = sign * start[index]
        active = np.arange(len(u))
        for _ in range(100):
            if not active.size:
                break
            rows, v = index[active], u[active]
            p, q, odds = take(a, rows), take(b, rows), np.exp(v)
            x, y = odds / (1.0 + odds), 1.0 / (1.0 + odds)
            r = _beta_fraction(x, y, p, q)
            # ln I_x(p, q) - ln target and its first two derivatives in v
            f = np.log(r / take(target, rows)) - p * np.log1p(1.0 / odds) - q * np.log1p(odds) - take(log_beta, rows)
            slope = 1.0 / r
            bend = slope * (p - (p + q) * x - slope)
            step = f / slope / (1.0 - 0.5 * f * bend / (slope * slope))
            u[active] = v - step
            active = active[np.abs(step) > 1e-6]
        logit[index] = sign * u
    return logit


def _t_quantile(dof: np.ndarray, p: float) -> np.ndarray:
    """Student-t quantile at probability ``p`` for each ``dof`` of 1 or more;
    NaN where ``dof`` is NaN.

    t solves I_y(1/2, ν/2) = 2p - 1 with y = t²/(ν + t²), whose log-odds
    are ln(t²/ν). The start is Hill's Algorithm 396: an expansion about the
    normal quantile, or near the tail a series in (d·2q)^(2/ν).
    """
    q = min(p, 1.0 - p)  # the tail beyond |t|; exact, as p = 1 - tail
    t = np.where(np.isnan(dof), np.nan, 0.0 if q == 0.5 else math.inf)
    ok = np.flatnonzero(np.isfinite(dof))
    if 0.0 < q < 0.5 and ok.size:
        from statistics import NormalDist

        z, n = NormalDist().inv_cdf(q), dof[ok]
        a = 1.0 / (n - 0.5)
        b = 48.0 / (a * a)
        c = ((20700.0 * a / b - 98.0) * a / b - 16.0) * a / b + 96.36
        d = ((94.5 / (b + c) - 3.0) / b + 1.0) * np.sqrt(a * math.pi / 2.0) * n
        y = (2.0 * d * q) ** (2.0 / n)
        c = c + np.where(n < 5.0, 0.3 * (n - 4.5) * (z + 0.6), 0.0) + (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b
        w = (((((0.4 * z * z + 6.3) * z * z + 36.0) * z * z + 94.5) / c - z * z - 3.0) / b + 1.0) * z
        normal = np.expm1(a * w * w)
        tail = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0) + 0.5 / (n + 4.0)) * y
                - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
        start = np.log(np.where((y > 0.05 + a) | ((n < 2.1) & (q > 0.25)), normal, tail))
        logit = _beta_logit(0.5, 0.5 * n, _log_beta(0.5, 0.5 * n), 1.0 - 2.0 * q, 2.0 * q, start)
        t[ok] = np.sqrt(n * np.exp(logit))
    return t if p >= 0.5 else -t


def _f_quantile(dfn: int, dfd: int, p: float) -> float:
    """F(dfn, dfd) quantile at probability ``p``: I_x(dfn/2, dfd/2) = p with
    x = dfn F / (dfn F + dfd), from the normal law of ln G_a - ln G_b, the
    log-odds of x for gamma variates G."""
    if p == 1.0:
        return math.inf
    from statistics import NormalDist

    a, b = 0.5 * dfn, 0.5 * dfd
    spread = math.sqrt(1.0 / a + 1.0 / b + 0.5 / (a * a) + 0.5 / (b * b))
    start = math.log(a / b) - 0.5 / a + 0.5 / b + NormalDist().inv_cdf(p) * spread
    logit = _beta_logit(a, b, _log_beta(a, b), p, 1.0 - p, np.array([start]))
    return dfd / dfn * math.exp(logit[0])


def _tail(alpha: float, sidedness: str) -> float:
    return alpha if sidedness == "one-sided" else alpha / 2.0


def _check_alpha_and_sidedness(alpha: float, sidedness: str) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if sidedness not in SIDEDNESS_VALUES:
        raise ValueError(f"sidedness must be one of {SIDEDNESS_VALUES}, got {sidedness!r}")


def welch_t_test(
    a: Sequence[float],
    b: Sequence[float],
    alpha: float = 0.05,
    sidedness: str = "one-sided",
) -> TTestResult:
    """Two-sample mean test with unequal variances.

    The statistic is ``(mean(a) - mean(b)) / sqrt(var(a)/n1 + var(b)/n2)``
    with Welch-Satterthwaite degrees of freedom. Rejection compares
    ``|t|`` against the one- or two-tailed quantile per ``sidedness``
    (see the module docstring for the null rejection rates implied).
    """
    _check_alpha_and_sidedness(alpha, sidedness)
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.ndim != 1 or xb.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if len(xa) < 2 or len(xb) < 2:
        raise ValueError("both samples need at least 2 observations")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise ValueError("samples contain non-finite values")
    sizes = np.array([len(xa), len(xb)])
    x = np.concatenate([xa, xb])[None, :]
    t_stat, dof, tested = _welch(sizes, *_moments(x, sizes), np.array([[0, 1]]))
    if not tested[0, 0]:
        raise DegenerateDataError(
            "both samples are constant, or their variances underflow or overflow; Welch statistic undefined"
        )
    t_stat, dof = float(t_stat[0, 0]), float(dof[0, 0])
    critical = float(_t_quantile(np.array([dof]), 1.0 - _tail(alpha, sidedness))[0])
    return TTestResult(t_stat, dof, critical, bool(abs(t_stat) > critical))


@dataclass(frozen=True)
class AssetDiagnostics:
    asset: str
    adf_price: AdfResult | None
    adf_return: AdfResult | None
    levene: LeveneResult | None


@dataclass(frozen=True)
class ShiftRejection:
    shift: int
    n_tests: int
    n_rejections: int

    @property
    def frequency(self) -> float | None:
        """Share of tests rejected; None when the shift has no tests."""
        return self.n_rejections / self.n_tests if self.n_tests else None

    def to_json_dict(self) -> dict:
        return {
            "shift": self.shift,
            "tests": self.n_tests,
            "rejections": self.n_rejections,
            "frequency": self.frequency,
        }


@dataclass(frozen=True, eq=False)
class StationarityReport:
    """Per-asset diagnostics, with the monthly groups and mean tests as columns.

    Every asset shares the kept ``months`` (``"YYYY-MM"`` labels), their
    return ``counts`` and the candidate ``pairs``: one row ``(month, earlier
    month, shift)`` per mean test, the months as indices into ``months``.
    The other arrays have one row per asset, in the order of ``assets``:
    ``means`` and ``variances`` one column per month; ``t_stat``, ``dof``,
    ``critical_value``, ``reject`` and ``tested`` one column per pair. A
    pair whose Welch statistic is undefined has ``tested`` False, NaN in
    the three float arrays and ``reject`` False. Every array is read-only.
    """

    alpha: float
    sidedness: str
    max_shift: int
    adf_level: float
    assets: tuple[AssetDiagnostics, ...]
    months: tuple[str, ...]
    counts: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    pairs: np.ndarray
    t_stat: np.ndarray
    dof: np.ndarray
    critical_value: np.ndarray
    reject: np.ndarray
    tested: np.ndarray
    rejection_by_shift: tuple[ShiftRejection, ...]
    skipped: dict[str, int]
    price_nonstationary_fraction: float | None
    return_stationary_fraction: float | None
    levene_rejection_fraction: float | None

    def to_json_dict(self) -> dict:
        """The report's JSON values: its text, parsed."""
        return json.loads("".join(self.json_pieces(0)))

    def json_pieces(self, depth: int) -> Iterator[str]:
        """The report's JSON text at nesting ``depth``, in pieces; as a
        value in a payload, ``json_chunks`` calls it with its depth. The text
        is that of ``json.dumps(sort_keys=True, indent=2, allow_nan=False)``.
        The ADF blocks come from ``asdict`` with float keys, which are written
        as ``"0.01"``, ``"0.05"`` and ``"0.1"``, sorted numerically: the order
        of those strings."""
        return chunks({
            "alpha": self.alpha,
            "sidedness": self.sidedness,
            "max_shift": self.max_shift,
            "adf_level": self.adf_level,
            "assets": self._asset_pieces,
            "rejection_by_shift": [s.to_json_dict() for s in self.rejection_by_shift],
            "skipped": dict(self.skipped),
            "price_nonstationary_fraction": self.price_nonstationary_fraction,
            "return_stationary_fraction": self.return_stationary_fraction,
            "levene_rejection_fraction": self.levene_rejection_fraction,
        }, depth)

    def _asset_pieces(self, depth: int) -> Iterator[str]:
        """The text of the ``assets`` list at nesting ``depth``, one asset a
        block of ``split_map``, so a forked child writes every other asset.

        An asset's ``month_groups`` and ``t_tests`` are its rows of the arrays
        in fixed templates. The text between the values that every asset
        shares (a month's count and label; a pair's months, shift and either
        reject flag) is made once, before the fork. A NaN or an infinity in an
        asset's rows raises ``ValueError`` before its text is made.
        """
        # the report's "YYYY-MM" labels, which JSON writes as they are
        assert all(encode_basestring_ascii(month) == f'"{month}"' for month in self.months)
        item, field, record, key = ("\n" + "  " * (depth + n) for n in range(1, 5))
        # each record's text up to its first value, after the "}," that ends the one before
        group_heads = [f'{record}}},{record}{{{key}"count": {n},{key}"mean": ' for n in self.counts.tolist()]
        group_months = [f',{key}"month": "{month}",{key}"var": ' for month in self.months]
        test_head, dof_key = f'{record}}},{record}{{{key}"critical_value": ', f',{key}"dof": '
        pair_text = [
            [f',{key}"month": "{self.months[i]}",{key}"prior_month": "{self.months[k]}",'
             f'{key}"reject": {flag},{key}"shift": {shift},{key}"t_stat": '
             for i, k, shift in self.pairs.tolist()]
            for flag in ("false", "true")
        ]

        def records(rows) -> str:
            text = "".join(chain.from_iterable(rows))
            return "[" + text[len(record) + 2:] + record + "}" + field + "]" if text else "[]"

        def asset(j: int) -> str:
            diag, tested = self.assets[j], self.tested[j]
            columns = (self.means[j], self.variances[j], self.critical_value[j, tested],
                       self.dof[j, tested], self.t_stat[j, tested])
            for column in columns:
                if not np.isfinite(column).all():
                    raise ValueError(f"{diag.asset}: {float(column[~np.isfinite(column)][0])!r} is not valid JSON")
            means, variances, critical, dof, t_stat = (map(float.__repr__, c.tolist()) for c in columns)
            flags = zip(self.reject[j, tested].tolist(), np.flatnonzero(tested).tolist())
            pairs = [pair_text[reject][p] for reject, p in flags]
            groups = records(zip(group_heads, means, group_months, variances))
            tests = records(zip(repeat(test_head), critical, repeat(dof_key), dof, pairs, t_stat))
            fields = {**asdict(diag), "month_groups": lambda _: [groups], "t_tests": lambda _: [tests]}
            return "".join(chunks(fields, depth + 1))

        separator = "[" + item
        with closing(split_map(asset, range(len(self.assets)))) as texts:
            for text in texts:
                yield separator
                yield text
                separator = "," + item
        yield "\n" + "  " * depth + "]"


def monthly_stationarity_report(
    panel: QuotePanel,
    max_shift: int = 6,
    alpha: float = 0.05,
    sidedness: str = "one-sided",
    min_month_obs: int = 12,
) -> StationarityReport:
    """Per-asset stationarity diagnostics with calendar-month grouping.

    For every asset: unit-root tests on mid prices and on returns, a
    variance-homogeneity test across its monthly return groups, and mean
    tests between each month and the month ``k`` earlier for every shift
    ``k`` in ``1..max_shift``. Months with fewer than ``min_month_obs``
    returns are dropped; ``min_month_obs`` must be at least 2, since a
    month's variance needs two returns. Degenerate inputs are skipped and
    counted rather than failing the whole report.
    """
    if max_shift < 1:
        raise ValueError("max_shift must be at least 1")
    if min_month_obs < 2:
        raise ValueError(f"min_month_obs must be at least 2, got {min_month_obs}")
    _check_alpha_and_sidedness(alpha, sidedness)
    # months as integer codes year * 12 + month - 1; the panel's dates
    # strictly increase, so each month's returns are one contiguous run
    codes = np.array([day.year * 12 + day.month - 1 for day in panel.dates[1:]], dtype=np.int64)
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    if len(starts) < max_shift + 2:
        raise ValueError(
            f"panel spans {len(starts)} calendar months; "
            f"max_shift={max_shift} needs at least {max_shift + 2}"
        )
    lengths = np.diff(starts, append=len(codes))
    keep = lengths >= min_month_obs
    kept = codes[starts[keep]].tolist()
    kept_index = {code: i for i, code in enumerate(kept)}
    # (month, earlier month, shift) index triples, the same for every asset
    candidates = [
        (i, kept_index[code - shift], shift)
        for i, code in enumerate(kept)
        for shift in range(1, max_shift + 1)
        if code - shift in kept_index
    ]
    pairs = np.array(candidates, dtype=np.int64).reshape(-1, 3)
    counts = lengths[keep]
    # one row per asset: its returns in the kept months, month after month
    kept_returns = np.ascontiguousarray(panel.returns[np.repeat(keep, lengths)].T)
    means, variances = _moments(kept_returns, counts)
    t_stat, dof, tested = _welch(counts, means, variances, pairs[:, :2])

    adf_level = min(_UNIT_ROOT_SURFACE, key=lambda level: abs(level - alpha))
    skipped = {"adf_price": 0, "adf_return": 0, "levene": 0, "t_test": int((~tested).sum())}
    levene: list[LeveneResult | None] = [None] * len(panel.assets)
    if len(kept) >= 2:
        levene = _levene(kept_returns, counts, means, alpha)
        skipped["levene"] = levene.count(None)
    price_flags: list[bool] = []
    return_flags: list[bool] = []
    per_asset: list[AssetDiagnostics] = []
    for j, asset in enumerate(panel.assets):
        prices = 0.5 * (panel.bids[:, j] + panel.asks[:, j])
        rets = np.ascontiguousarray(panel.returns[:, j])

        adf_price = adf_return = None
        try:
            adf_price = adf_test(prices)
            price_flags.append(not adf_price.reject_unit_root[adf_level])
        except DegenerateDataError:
            skipped["adf_price"] += 1
        try:
            adf_return = adf_test(rets)
            return_flags.append(adf_return.reject_unit_root[adf_level])
        except DegenerateDataError:
            skipped["adf_return"] += 1
        per_asset.append(AssetDiagnostics(asset, adf_price, adf_return, levene[j]))
    levene_flags = [result.reject for result in levene if result is not None]

    critical_value = _t_quantile(dof.ravel(), 1.0 - _tail(alpha, sidedness)).reshape(dof.shape)
    reject = tested & (np.abs(t_stat) > critical_value)
    for column in (counts, means, variances, pairs, t_stat, dof, critical_value, reject, tested):
        column.setflags(write=False)
    shifts = pairs[:, 2]
    rejection_by_shift = tuple(
        ShiftRejection(k, int(tested[:, shifts == k].sum()), int(reject[:, shifts == k].sum()))
        for k in range(1, max_shift + 1)
    )
    return StationarityReport(
        alpha=alpha,
        sidedness=sidedness,
        max_shift=max_shift,
        adf_level=adf_level,
        assets=tuple(per_asset),
        months=tuple(f"{code // 12:04d}-{code % 12 + 1:02d}" for code in kept),
        counts=counts,
        means=means,
        variances=variances,
        pairs=pairs,
        t_stat=t_stat,
        dof=dof,
        critical_value=critical_value,
        reject=reject,
        tested=tested,
        rejection_by_shift=rejection_by_shift,
        skipped=skipped,
        price_nonstationary_fraction=(
            float(np.mean(price_flags)) if price_flags else None
        ),
        return_stationary_fraction=(
            float(np.mean(return_flags)) if return_flags else None
        ),
        levene_rejection_fraction=(
            float(np.mean(levene_flags)) if levene_flags else None
        ),
    )


_TABLE_ROWS = ("count", "mean", "std", "min", "25%", "50%", "75%", "max")


def sample_std(values: np.ndarray) -> float:
    """The ddof=1 standard deviation of two or more values; where their
    squares overflow, it is taken of the values over their largest magnitude
    and scaled back."""
    with np.errstate(over="ignore"):
        std = float(values.std(ddof=1))
    if math.isinf(std):
        scale = float(np.abs(values).max())
        std = float((values / scale).std(ddof=1)) * scale
    return std


def quartiles(values: np.ndarray) -> list[float]:
    """``np.percentile(values, q)`` for q = 25, 50 and 75, bit for bit, for
    one or more values; NaN where any value is NaN.

    ``np.percentile`` imports ``numpy.ma`` on its first call, which took
    15-18 ms. This takes its linear method's steps: a partition of the values
    at the same ranks, which places equal values such as 0.0 and -0.0 where
    it does, then numpy's ``_lerp`` of the two neighbours.
    """
    n, result = len(values), []
    for q in (0.25, 0.5, 0.75):
        index = (n - 1) * q
        below = int(index) if index < n - 1 else -1  # one value: the last, with a weight of 1
        above = below + 1 if below >= 0 else -1
        ranked = np.partition(values, sorted({0, -1, below, above}))
        if math.isnan(ranked[-1]):
            result.append(math.nan)
            continue
        a, b, t = float(ranked[below]), float(ranked[above]), index - below
        result.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return result


def short_number(value: float, decimals: int) -> str:
    """``value`` in fixed point with ``decimals`` places, or in exponent form
    with two where that text is longer than 10 characters."""
    text = f"{value:.{decimals}f}"
    return text if len(text) <= 10 else f"{value:.2e}"


def _describe(values: np.ndarray) -> dict[str, float]:
    if len(values) == 0:
        return {row: 0.0 if row == "count" else float("nan") for row in _TABLE_ROWS}
    q25, q50, q75 = quartiles(values)
    return {
        "count": float(len(values)),
        "mean": float(values.mean()),
        "std": sample_std(values) if len(values) > 1 else float("nan"),
        "min": float(values.min()),
        "25%": q25,
        "50%": q50,
        "75%": q75,
        "max": float(values.max()),
    }


def render_report_table(report: StationarityReport) -> str:
    """Plain-text summary table over monthly groups and shift-1 mean tests.

    Columns describe the monthly group sizes, means and variances plus the
    shift-1 test statistics, degrees of freedom, critical values and 0/1
    rejections; rows are the usual describe() statistics. A cell whose
    fixed-point text is longer than 10 characters prints in exponent form
    (:func:`short_number`).
    """
    # ravel and boolean selections keep the asset-major order that _describe's sums depend on
    shift1 = report.tested & (report.pairs[:, 2] == 1)
    columns = {
        "count": _describe(np.tile(report.counts.astype(float), len(report.assets))),
        "mean": _describe(report.means.ravel()),
        "var": _describe(report.variances.ravel()),
        "test stat": _describe(report.t_stat[shift1]),
        "dof": _describe(report.dof[shift1]),
        "cv": _describe(report.critical_value[shift1]),
        "reject H0": _describe(report.reject[shift1].astype(float)),
    }
    width = 11
    lines = [
        f"monthly return diagnostics (alpha={report.alpha:g}, {report.sidedness}, "
        f"shift-1 mean tests)",
        " " * 6 + "".join(f"{name:>{width}}" for name in columns),
    ]
    for row in _TABLE_ROWS:
        cells = []
        for name in columns:
            value = columns[name][row]
            text = short_number(value, 0 if row == "count" else 3)
            cells.append(f"{text:>{width}}")
        lines.append(f"{row:<6}" + "".join(cells))
    lines.append("")
    lines.append("rejection frequency of equal monthly means, by month shift:")
    for item in report.rejection_by_shift:
        frequency = "n/a" if item.frequency is None else f"{item.frequency:.4f}"
        lines.append(
            f"  shift {item.shift:>2}: {frequency:>7} ({item.n_rejections}/{item.n_tests})"
        )
    if report.price_nonstationary_fraction is not None:
        lines.append(
            f"price series not rejecting the unit root (nonstationary): "
            f"{report.price_nonstationary_fraction:.1%}"
        )
    if report.return_stationary_fraction is not None:
        lines.append(
            f"return series rejecting the unit root (stationary): "
            f"{report.return_stationary_fraction:.1%}"
        )
    if report.levene_rejection_fraction is not None:
        lines.append(
            f"assets rejecting equal monthly variances: "
            f"{report.levene_rejection_fraction:.1%}"
        )
    return "\n".join(lines) + "\n"
