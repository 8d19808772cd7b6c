"""Two-stage autoregressive least squares with exponential forgetting.

Stage one tracks a linear map from the previous return vector, with a
leading one, to the current one: coefficient matrix ``theta`` (``d x
(d + 1)``) with inverse-covariance surrogate ``P``. Stage two tracks a
``d x d`` shrinkage map ``phi`` that regresses the stage-one prediction on
the previous return, so correlated targets pull each other's forecasts
toward directions that have proven predictable (curds and whey, Breiman
and Friedman 1997). :meth:`CurdsWheyState.step` folds in the return
vector ``r`` and forecasts the next one as ``phi @ (theta @ (1, r))``.

Each step pairs the lagged input ``(1, r_{s-1})`` with the current return
``r_s``, as forecasting requires (today's returns predict tomorrow's).
With forgetting factor ``tau = 1`` the recursions reproduce, up to
floating point, the batch ridge solutions on those pairs;
:func:`batch_ridge` and :func:`batch_shrinkage` provide the oracles. With
``tau < 1`` old pairs are geometrically down-weighted, so the coefficients
track drifting maps.

Stage two's surrogate ``Q`` is never formed. The lagged input is ``(1,
r_{s-1})`` and stage two's regressor is ``r_{s-1}``, and both surrogates
start from ``I / lambda``, so ``Q^-1`` is the lower-right block of
``P^-1``. The block-inverse identity (Golub and Van Loan) then gives
``Q = P22 - P21 P12 / P11`` from the same ``P``, so ``Q y_prev`` costs
O(d) once ``P x_prev`` is known.

When ``1 / (1 - tau) < d + 1`` the forgetting window is shorter than the
number of regressors and the recursion is ill-conditioned: forecasts there
depend on the order of floating-point operations, not only on the data.

State evolution is strictly sequential; a state may be handed between
threads but never shared mutably.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["CurdsWheyState", "Forecast", "batch_ridge", "batch_shrinkage"]

logger = logging.getLogger(__name__)

# a P diagonal below this share of the prior's 1 / ridge_lambda triggers a
# reset to the prior; resets are counted on the state and logged. Scaled with
# the prior, the floor keeps the same ~4 500 rounding units of the prior's
# entries between it and zero at every ridge_lambda
_RESET_FLOOR = 1e-12
# steps whose rank-one updates are held as pending rows before one blocked
# update folds them into the matrices
_FLUSH_STEPS = 32
# a step whose downdate would leave a diagonal entry of P below c S's over
# this folds the pending downdates into S and applies its own directly: a
# pending downdate never exceeds a third of S's diagonal, so S - H' H keeps
# the digits that the step-by-step recursion P / tau - s g g' keeps
_DIRECT_RATIO = 1.5


@dataclass(frozen=True)
class Forecast:
    """First-stage prediction and its shrunk counterpart."""

    y_hat: np.ndarray
    y_tilde: np.ndarray


class CurdsWheyState:
    """Coupled coefficient/shrinkage recursions on a stream of ``d``-asset returns.

    A step makes three rank-one updates: ``theta += u g'``, ``P <- P / tau
    - s g g'`` and ``phi += v w'``. They are not applied one by one. Each
    matrix is a base plus pending rows: ``theta = T + U' G``, ``phi = F +
    V' W`` and ``P = c (S - H' H)`` with ``H = sqrt(a) G`` row by row over
    the rows whose downdates are not in ``S`` yet, and the scalar ``c <- c
    / tau`` carrying the forgetting. A step reads ``S``, ``T`` and ``F``
    once each, against the vectors it needs, plus O(d k) for the ``k``
    pending rows. Every ``_FLUSH_STEPS`` steps one matrix product per
    matrix folds the rows into the bases, and ``S`` absorbs ``c``. A step
    whose downdate would take a diagonal entry of ``P`` below two thirds of
    ``c S``'s folds the pending downdates into ``S`` at once and applies
    its own directly, as ``P / tau - s g g'``; its rows stay pending for
    ``theta`` and ``phi``. So ``S - H' H`` never cancels much of ``S``,
    whether ``P`` shrinks fast (a weak prior, a large return) or ``c``
    grows fast (a small ``tau``). ``H' H`` is formed as one product of
    ``H`` with its own transpose, which numpy computes exactly symmetric
    (BLAS syrk); ``S`` must stay exactly symmetric, and an asymmetric
    product such as ``(G' a) G`` makes the recursion diverge at small
    ``tau``.

    ``P``'s diagonal and first column are kept as vectors, updated each
    step: the diagonal feeds the reset check and the column the derived
    ``Q``. Both are re-read from ``S`` whenever it takes the downdates in.

    ``theta``, ``P``, ``phi`` and ``y_prev`` read back as fresh arrays with
    the pending rows applied; reading them changes nothing.
    """

    # Q is derived from P, so it is reset with P and has no count of its
    # own; the attribute stays, always 0, for readers of the old state such
    # as perfbench/spans.py, which sums p_resets + q_resets
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
        self.t = 0
        self.p_resets = 0
        m = d + 1
        self._S = np.eye(m) / self.ridge_lambda
        self._c = 1.0
        self._T = np.zeros((d, m))
        self._F = np.zeros((d, d))
        self._diag = self._S.diagonal().copy()
        self._col0 = self._S[:, 0].copy()
        # rows (1, y_prev) and (1, r), which theta is read against, and (0,
        # y_prev), which S is: P (1, y_prev) is P's column 0 plus P (0, y_prev)
        self._x = np.zeros((3, m))
        self._x[:2, 0] = 1.0
        # rows y_prev and y_hat, the vectors phi is read against
        self._y = np.zeros((2, d))
        # pending rows: stage-one gains g and residuals u with P's downdate
        # weights a, and stage-two gains w and residuals v. Rows before j
        # have their downdates in S already; H is rows j to k
        self._k = self._j = 0
        self._G = np.empty((_FLUSH_STEPS, m))
        self._a = np.empty(_FLUSH_STEPS)
        self._U = np.empty((_FLUSH_STEPS, d))
        self._W = np.empty((_FLUSH_STEPS, d))
        self._V = np.empty((_FLUSH_STEPS, d))
        # a flush writes H and each matrix product into these before applying
        # them, so no step allocates a matrix
        self._H = np.empty((_FLUSH_STEPS, m))
        scratch = np.empty(m * m)
        self._S_buf = scratch.reshape(m, m)
        self._T_buf = scratch[: d * m].reshape(d, m)
        self._F_buf = scratch[: d * d].reshape(d, d)

    def step(self, r: Sequence[float] | np.ndarray) -> Forecast:
        """Fold in return vector ``r`` and forecast the next one.

        Order of operations: update ``theta`` and ``P`` against the pair
        (``(1, y_prev)``, ``r``); form ``y_hat = theta @ (1, r)``; update
        ``phi`` against the pair (``y_prev``, ``y_hat``), with ``Q y_prev``
        taken from the ``P`` before its update; form ``y_tilde = phi @
        y_hat``; then roll ``y_prev`` forward to ``r``. If a diagonal entry
        of the updated ``P`` falls below ``1e-12 / ridge_lambda``, 1e-12
        times the prior's, ``P`` is reset to the prior (with a log line),
        and with it the derived ``Q``.
        """
        y = np.asarray(r, dtype=float)
        if y.shape != (self.d,):
            raise ValueError(f"return vector must have shape ({self.d},), got {y.shape}")
        if not np.isfinite(y).all():
            raise ValueError("return vector contains non-finite values")
        tau, j, k = self.tau, self._j, self._k
        X, Y = self._x, self._y
        X[1, 1:] = y
        G, U = self._G[:k], self._U[:k]

        GX = G @ X.T
        TX = self._T @ X[:2].T
        TX += U.T @ GX[:, :2]
        Py = self._S @ X[2]
        Py -= G[j:].T @ (self._a[j:k] * GX[j:, 2])
        Py *= self._c
        diag, col0 = self._diag, self._col0
        Px = col0 + Py
        scale = 1.0 + float(X[0] @ Px) / tau
        gain = Px / (scale * tau)
        resid = y - TX[:, 0]
        y_hat = TX[:, 1] + resid * float(gain @ X[1])

        # Q y_prev = P22 y_prev - P21 (P12 y_prev) / P11, from P before its update
        Qy = Py[1:] - col0[1:] * (Py[0] / col0[0])
        diag /= tau
        diag -= gain * gain * scale
        col0 /= tau
        col0 -= gain * gain[0] * scale
        c_prev = self._c
        self._c /= tau
        self._G[k] = gain
        self._U[k] = resid
        self._a[k] = scale / self._c

        Y[1] = y_hat
        W, V = self._W[:k], self._V[:k]
        FY = self._F @ Y.T
        FY += V.T @ (W @ Y.T)
        scale2 = 1.0 + float(Y[0] @ Qy) / tau
        gain2 = Qy / (scale2 * tau)
        resid2 = y_hat - FY[:, 0]
        y_tilde = FY[:, 1] + resid2 * float(gain2 @ y_hat)
        self._W[k] = gain2
        self._V[k] = resid2

        self._k = k + 1
        if float(diag.min()) < _RESET_FLOOR / self.ridge_lambda:
            logger.warning("P diagonal collapsed at step %d; resetting to prior", self.t + 1)
            self._a[k] = 0.0
            self._flush()
            self._S.fill(0.0)
            np.fill_diagonal(self._S, 1.0 / self.ridge_lambda)
            self._resync()
            self.p_resets += 1
        elif not scale > 0.0 or self._c * float((self._S.diagonal() / diag).max()) > _DIRECT_RATIO:
            # held as a pending row, this downdate would cancel too much of S
            # (or, with P no longer positive definite, have no real square
            # root): fold in the others at the previous step's scale, then
            # update as the step-by-step recursion does, P / tau - s g g'
            self._fold_P(k, c_prev)
            self._S /= tau
            np.matmul(gain[:, None], gain[None, :], out=self._S_buf)
            self._S_buf *= scale
            self._S -= self._S_buf
            self._j = self._k
            self._resync()
        if self._k == _FLUSH_STEPS:
            self._flush()
        X[0] = X[1]
        X[2, 1:] = y
        Y[0] = y
        self.t += 1
        return Forecast(y_hat=y_hat, y_tilde=y_tilde)

    def _fold_P(self, end: int, c: float) -> None:
        """Fold the downdates of pending rows ``j`` to ``end`` into ``S``, then scale it by ``c``."""
        j = self._j
        if end > j:
            H = self._H[j:end]
            np.multiply(self._G[j:end], np.sqrt(self._a[j:end])[:, None], out=H)
            np.matmul(H.T, H, out=self._S_buf)
            self._S -= self._S_buf
        if c != 1.0:
            self._S *= c
        self._c = 1.0
        self._j = end

    def _flush(self) -> None:
        """Fold the pending rows into ``S``, ``T`` and ``F`` and set ``c`` to 1."""
        k = self._k
        if k == 0:
            return
        self._fold_P(k, self._c)
        np.matmul(self._U[:k].T, self._G[:k], out=self._T_buf)
        self._T += self._T_buf
        np.matmul(self._V[:k].T, self._W[:k], out=self._F_buf)
        self._F += self._F_buf
        self._k = self._j = 0
        self._resync()

    def _resync(self) -> None:
        np.copyto(self._diag, self._S.diagonal())
        np.copyto(self._col0, self._S[:, 0])

    @property
    def theta(self) -> np.ndarray:
        k = self._k
        return self._T + self._U[:k].T @ self._G[:k]

    @property
    def P(self) -> np.ndarray:
        j, k = self._j, self._k
        H = self._G[j:k] * np.sqrt(self._a[j:k])[:, None]
        return self._c * (self._S - H.T @ H)

    @property
    def phi(self) -> np.ndarray:
        k = self._k
        return self._F + self._V[:k].T @ self._W[:k]

    @property
    def y_prev(self) -> np.ndarray:
        return self._y[0].copy()


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
