"""Two-stage autoregressive least squares with exponential forgetting.

Stage one tracks a linear map from the previous return vector, with a
leading one, to the current one: coefficient matrix ``theta`` (``d x
(d + 1)``) with inverse-covariance surrogate ``P``. Stage two tracks a
``d x d`` shrinkage map ``phi`` that regresses the stage-one prediction on
the previous return, so correlated targets pull each other's forecasts
toward directions that have proven predictable (curds and whey, Breiman
and Friedman 1997). :meth:`CurdsWheyState.step` folds in return vectors
``r``, each paired with the lagged input ``(1, r_{s-1})``, and forecasts
each next one as ``phi @ (theta @ (1, r))``. With forgetting factor ``tau
= 1`` the recursions reproduce, up to floating point, the batch ridge
solutions on those pairs (the oracles :func:`batch_ridge` and
:func:`batch_shrinkage`); with ``tau < 1`` old pairs are geometrically
down-weighted, so the coefficients track drifting maps.

Stage two's surrogate ``Q`` is never kept: both surrogates start from
``I / lambda`` and stage two's regressor is stage one's input less its
leading 1, so ``Q^-1`` is the lower-right block of ``P^-1`` and ``Q = P22 -
P21 P12 / P11`` (Golub and Van Loan).

Rows are folded a window at a time. Least squares with forgetting is a
Kalman filter on fixed coefficients (Sayed and Kailath 1994): from ``P =
S`` and ``theta' = T``, a window's row ``q`` (from 1) is an update with
noise variance ``tau^q``, so the rows' a-priori residuals are the Cholesky
innovations of the Gram matrix ``C C' = diag(tau^q) + X S X'`` of the
lagged inputs ``X``. With ``E = C^-1 (Y - X T)`` and ``H = C^-1 X S``,
row ``q`` leaves ``theta' = T + H[:q]' E[:q]`` and ``P = (S - H[:q]'
H[:q]) / tau^q``, so ``y_hat = X_c T + tril(X_c H') E`` over the current
inputs ``X_c``. Stage two is the same on the lagged returns, ``y_hat`` and
``Q``: ``y_tilde = y_hat phi' + tril(y_hat H2') E2``.

When ``1 / (1 - tau) < d + 1`` the forgetting window is shorter than the
number of regressors and the recursion is ill-conditioned: forecasts there
depend on the order of floating-point operations, not only on the data.

State evolution is strictly sequential; a state may be handed between
threads but never shared mutably.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

__all__ = ["CurdsWheyState", "batch_ridge", "batch_shrinkage"]

logger = logging.getLogger(__name__)

# a P diagonal below this share of the prior's 1 / ridge_lambda triggers a
# reset to the prior; resets are counted on the state and logged. Scaled with
# the prior, the floor keeps the same ~4 500 rounding units of the prior's
# entries between it and zero at every ridge_lambda
_RESET_FLOOR = 1e-12
# rows per window: one Cholesky factor per stage folds them in
_WINDOW = 32
# a window ends with the first row whose downdates, summed from its start,
# take more than this share of a diagonal entry of S: S - H' H then keeps
# the digits that the step-by-step recursion P / tau - s g g' keeps
_DOWNDATE_SHARE = 1.0 / 3.0
# row i of a window reads the updates of rows 0 to i
_LOWER = np.tri(_WINDOW)


class CurdsWheyState:
    """Coupled coefficient/shrinkage recursions on a stream of ``d``-asset returns.

    ``P``, ``theta'`` and ``phi'`` are held as ``S``, ``T`` and ``F``. A
    window ends with the first row that takes ``P``'s diagonal below the
    reset floor or whose summed downdates pass ``_DOWNDATE_SHARE`` of
    ``S``'s, so ``S - H' H`` never cancels much of ``S``, however fast
    ``P`` shrinks (a weak prior, a large return, a small ``tau``). The next
    window tries twice the rows this one folded, up to ``_WINDOW``. A
    one-row window is the step-by-step recursion, which also takes the
    rows whose Gram matrix has no Cholesky factor (``P`` left indefinite
    by rounding). ``S`` stays exactly symmetric: an asymmetric downdate
    makes the recursion diverge at small ``tau``. ``theta``, ``P``,
    ``phi`` and ``y_prev`` read back as fresh arrays.
    """

    # Q is derived from P and reset with it; always 0, kept for readers of
    # the old state such as perfbench/spans.py, which sums p_resets + q_resets
    q_resets = 0

    def __init__(self, d: int, ridge_lambda: float, tau: float) -> None:
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"d must be an integer >= 1, got {d!r}")
        if not (0.0 < ridge_lambda < np.inf):
            raise ValueError(f"ridge_lambda must be positive and finite, got {ridge_lambda}")
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        self.d = d = int(d)
        self.ridge_lambda = float(ridge_lambda)
        self.tau = float(tau)
        self.t = self.p_resets = 0
        m = d + 1
        self._S = np.eye(m) / self.ridge_lambda
        self._T = np.zeros((m, d))
        self._F = np.zeros((d, d))
        # row 0 is (1, y_prev) and rows 1 to w a window's (1, r): rows :w are
        # its lagged inputs and rows 1:w + 1 its current ones; _y drops the 1
        self._x = np.ones((_WINDOW + 1, m))
        self._x[0, 1:] = 0.0
        self._y = self._x[:, 1:]

    def step(self, r: Sequence[float] | np.ndarray) -> np.ndarray:
        """Fold in one return vector ``(d,)``, or a series of them ``(days, d)``, forecasting after each.

        Each row in turn: update ``theta`` and ``P`` against the pair
        (``(1, y_prev)``, ``r``); form ``y_hat = theta @ (1, r)``; update
        ``phi`` against (``y_prev``, ``y_hat``), with ``Q`` derived from the
        ``P`` before its update; form ``y_tilde = phi @ y_hat``; roll
        ``y_prev`` forward to ``r``. A diagonal entry of ``P`` below 1e-12
        times the prior's resets ``P``, and with it ``Q``, to the prior (with
        a log line). Returns each row's ``y_tilde`` as a new array shaped
        like ``r``. The whole input is checked before the state changes.
        """
        y = np.asarray(r, dtype=float)
        series = y[None, :] if y.ndim == 1 else y
        if series.ndim != 2 or series.shape[1] != self.d or len(series) == 0:
            raise ValueError(
                f"returns must have shape ({self.d},) or (days >= 1, {self.d}), got {y.shape}"
            )
        if not np.isfinite(series).all():
            raise ValueError("returns contain non-finite values")
        y_tilde = np.empty(series.shape)
        start, rows = 0, _WINDOW
        while start < len(series):
            rows = min(rows, len(series) - start)
            self._y[1 : rows + 1] = series[start : start + rows]
            out = y_tilde[start:]
            folded = (rows > 1 and self._window(rows, out)) or self._one_row(out)
            self._y[0] = self._y[folded]
            start += folded
            rows = min(2 * folded, _WINDOW)
        return y_tilde[0] if y.ndim == 1 else y_tilde

    def _window(self, w: int, y_tilde: np.ndarray) -> int:
        """Fold in rows 1 to ``w`` of ``_x`` up to the first that trips a check, forecasts into the
        head of ``y_tilde``; returns how many, 0 where there is no Cholesky factor."""
        S, X, U, decay = self._S, self._x[: w + 1], self._y[:w], self.tau ** np.arange(1.0, w + 1.0)
        # rows (0, u) S: u's product with S's first column, then S22 u
        XS = U @ S[1:]
        # Q u = S22 u - S21 (S12 u) / S11
        UQ = np.multiply.outer(-XS[:, 0], S[1:, 0] / S[0, 0])
        UQ += XS[:, 1:]
        XS += S[0]
        gram = np.stack((XS @ X[:w].T, UQ @ U.T))
        gram.reshape(2, -1)[:, :: w + 1] += decay
        # an overflowed Gram matrix factors with infinite pivots, rows of no
        # weight; the step-by-step recursion carries the overflow on instead
        if not np.isfinite(gram).all():
            return 0
        try:
            # C^-1 as the inverse of C': LAPACK's pivot search finds nothing
            # below its diagonal, so row i of C^-1 reads only rows up to i,
            # however large the later rows
            inverse = np.linalg.inv(np.linalg.cholesky(gram).swapaxes(1, 2)).swapaxes(1, 2)
        except np.linalg.LinAlgError:
            return 0
        XT = X @ self._T
        E = inverse[0] @ (self._y[1 : w + 1] - XT[:w])
        H = inverse[0] @ XS
        downdates = np.cumsum(H * H, axis=0)
        resets = (S.diagonal() - downdates < decay[:, None] * (_RESET_FLOOR / self.ridge_lambda)).any(axis=1)
        trips = resets | (downdates > S.diagonal() * _DOWNDATE_SHARE).any(axis=1)
        n = int(trips.argmax()) + 1 if trips.any() else w
        X_c, U, lower = X[1 : n + 1], U[:n], _LOWER[:n, :n]
        E, H, y_tilde = E[:n], H[:n], y_tilde[:n]
        y_hat = ((X_c @ H.T) * lower) @ E
        y_hat += XT[1 : n + 1]
        E2 = inverse[1, :n, :n] @ (y_hat - U @ self._F)
        H2 = inverse[1, :n, :n] @ UQ[:n]
        np.matmul((y_hat @ H2.T) * lower, E2, out=y_tilde)
        y_tilde += y_hat @ self._F
        S -= _cross(H, H)
        S *= self.tau**-n
        self._fold(H, E, H2, E2, bool(resets[n - 1]))
        return n

    def _one_row(self, y_tilde: np.ndarray) -> int:
        """Fold in row 1 of ``_x`` alone, as the step-by-step recursion does; returns 1."""
        S, tau, x, u, y_tilde = self._S, self.tau, self._x[:2], self._y[0], y_tilde[0]
        s = S @ x[0]
        z = u @ S[1:]
        XT = x @ self._T
        scale = tau + float(s @ x[0])
        resid = self._y[1] - XT[0]
        y_hat = resid * (float(s @ x[1]) / scale)
        y_hat += XT[1]
        Qu = z[1:] - S[1:, 0] / S[0, 0] * z[0]
        scale2 = tau + float(Qu @ u)
        resid2 = y_hat - u @ self._F
        np.multiply(resid2, float(Qu @ y_hat) / scale2, out=y_tilde)
        y_tilde += y_hat @ self._F
        # P / tau - g g' r / tau with g = s / r: no square root, so a negative
        # r, where P is indefinite, is taken as the old recursion takes it
        gain = (s / scale)[None, :]
        downdate = _cross(gain, gain)
        downdate *= scale / tau
        S /= tau
        S -= downdate
        reset = float(S.diagonal().min()) < _RESET_FLOOR / self.ridge_lambda
        self._fold(gain, resid[None, :], (Qu / scale2)[None, :], resid2[None, :], reset)
        return 1

    def _fold(self, H: np.ndarray, E: np.ndarray, H2: np.ndarray, E2: np.ndarray, reset: bool) -> None:
        """After ``S``'s downdate: ``theta' += H' E`` and ``phi' += H2' E2``, then the reset, if due."""
        self._T += _cross(H, E)
        self._F += _cross(H2, E2)
        self.t += len(H)
        if reset:
            logger.warning("P diagonal collapsed at step %d; resetting to prior", self.t)
            self._S[...] = np.eye(len(self._S)) / self.ridge_lambda
            self.p_resets += 1

    @property
    def theta(self) -> np.ndarray:
        return self._T.T.copy()

    @property
    def P(self) -> np.ndarray:
        return self._S.copy()

    @property
    def phi(self) -> np.ndarray:
        return self._F.T.copy()

    @property
    def y_prev(self) -> np.ndarray:
        return self._y[0].copy()


def _cross(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A' B`` through BLAS, exactly symmetric where ``B is A`` (numpy's syrk).

    numpy multiplies one-row operands without BLAS, several times slower,
    so those get a zero second row: each entry is one rounded product.
    """
    if len(A) == 1:
        k = A.shape[1]
        pad = np.zeros((2, k + B.shape[1]))
        pad[0, :k], pad[0, k:] = A[0], B[0]
        A, B = pad[:, :k], pad[:, k:]
    return A.T @ B


def batch_ridge(X: np.ndarray, Y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Ridge solution ``(X'X + lambda I)^-1 X'Y`` via a stable solve.

    ``X`` is ``n x m`` and ``Y`` is ``n x q`` (a 1-d ``Y`` is treated as a
    single column); the result is ``m x q``, mapping inputs to outputs.
    Always well posed for positive finite ``ridge_lambda``.
    """
    if not (0.0 < ridge_lambda < np.inf):
        raise ValueError(f"ridge_lambda must be positive and finite, got {ridge_lambda}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X and Y must share rows, got {X.shape[0]} and {Y.shape[0]}")
    if X.shape[0] < 1:
        raise ValueError("need at least one observation")
    m = X.shape[1]
    gram = X.T @ X + ridge_lambda * np.eye(m)
    return np.linalg.solve(gram, X.T @ Y)


def batch_shrinkage(Y: np.ndarray, Y_hat: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Shrinkage map ``(Y'Y + lambda I)^-1 Y' Y_hat``: ridge of predictions on targets."""
    return batch_ridge(Y, Y_hat, ridge_lambda)
