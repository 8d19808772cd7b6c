"""Reference arithmetic for ``CurdsWheyState``, kept as oracles for the tests.

``GeneralCurdsWhey`` is the forecaster's old general recursion: it steps
on any input ``x`` with a leading 1 and any target ``y``, keeps stage
two's surrogate ``Q`` as a matrix of its own, and applies every rank-one
update at once with fresh arrays. On the pairs ``x = (1, r)``, ``y = r``
that ``CurdsWheyState`` steps on, its ``Q`` equals the Schur complement
that the state derives from ``P``, so the two agree up to floating point
until a reset. A ``P`` reset here leaves ``Q`` alone.

``precise_forecasts`` runs the same recursion in 40-digit decimal
arithmetic, the reference against which the float recursions' rounding is
measured. ``weighted_ridge`` is the batch solution the recursions track at
a forgetting factor ``tau < 1``.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

from seqrank import Forecast
from seqrank.regression import _RESET_FLOOR


class GeneralCurdsWhey:
    """The two-stage recursion on general ``(x, y)`` pairs, with ``Q`` kept."""

    def __init__(self, d: int, ridge_lambda: float, tau: float) -> None:
        self.d, self.ridge_lambda, self.tau = d, ridge_lambda, tau
        self.theta = np.zeros((d, d + 1))
        self.P = np.eye(d + 1) / ridge_lambda
        self.phi = np.zeros((d, d))
        self.Q = np.eye(d) / ridge_lambda
        self.x_prev = np.zeros(d + 1)
        self.x_prev[0] = 1.0
        self.y_prev = np.zeros(d)
        self.t = 0
        self.p_resets = 0
        self.q_resets = 0

    def step(self, x_t, y_t) -> Forecast:
        x = np.asarray(x_t, dtype=float)
        y = np.asarray(y_t, dtype=float)
        tau = self.tau

        Px = self.P @ self.x_prev
        scale = 1.0 + float(self.x_prev @ Px) / tau
        gain = Px / (scale * tau)
        self.theta = self.theta + np.outer(y - self.theta @ self.x_prev, gain)
        self.P = self.P / tau - np.outer(gain, gain) * scale
        if float(self.P.diagonal().min()) < _RESET_FLOOR / self.ridge_lambda:
            self.P = np.eye(self.d + 1) / self.ridge_lambda
            self.p_resets += 1

        y_hat = self.theta @ x

        Qy = self.Q @ self.y_prev
        scale2 = 1.0 + float(self.y_prev @ Qy) / tau
        gain2 = Qy / (scale2 * tau)
        self.phi = self.phi + np.outer(y_hat - self.phi @ self.y_prev, gain2)
        self.Q = self.Q / tau - np.outer(gain2, gain2) * scale2
        if float(self.Q.diagonal().min()) < _RESET_FLOOR / self.ridge_lambda:
            self.Q = np.eye(self.d) / self.ridge_lambda
            self.q_resets += 1

        y_tilde = self.phi @ y_hat
        self.x_prev = x.copy()
        self.y_prev = y.copy()
        self.t += 1
        return Forecast(y_hat=y_hat, y_tilde=y_tilde)

    def step_return(self, r) -> Forecast:
        """Step on the pair ``CurdsWheyState.step(r)`` uses: ``x = (1, r)``, ``y = r``."""
        r = np.asarray(r, dtype=float)
        return self.step(np.concatenate(([1.0], r)), r)


def precise_forecasts(rets, ridge_lambda: float, tau: float, digits: int = 40) -> list[Forecast]:
    """``GeneralCurdsWhey.step_return`` over ``rets`` in ``digits``-digit decimals, without resets.

    Every float converts to a decimal exactly, so the only rounding is the
    decimal arithmetic's own, some 24 digits finer than a float's.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        tau, lam = Decimal(tau), Decimal(ridge_lambda)
        rows = [[Decimal(v) for v in r] for r in np.asarray(rets, dtype=float).tolist()]
        d = len(rows[0])

        def mv(A, v):
            return [sum(a * b for a, b in zip(row, v)) for row in A]

        def update(P, B, x, y):
            """One rank-one step of coefficients ``B`` and surrogate ``P`` on the pair (``x``, ``y``)."""
            Px = mv(P, x)
            scale = 1 + sum(a * b for a, b in zip(x, Px)) / tau
            gain = [v / (scale * tau) for v in Px]
            resid = [a - b for a, b in zip(y, mv(B, x))]
            B = [[b + u * g for b, g in zip(row, gain)] for row, u in zip(B, resid)]
            P = [[p / tau - gi * gj * scale for p, gj in zip(row, gain)] for row, gi in zip(P, gain)]
            return P, B

        def prior(m):
            return [[1 / lam if i == j else Decimal(0) for j in range(m)] for i in range(m)]

        P, Q = prior(d + 1), prior(d)
        theta = [[Decimal(0)] * (d + 1) for _ in range(d)]
        phi = [[Decimal(0)] * d for _ in range(d)]
        y_prev = [Decimal(0)] * d
        out = []
        for y in rows:
            P, theta = update(P, theta, [Decimal(1)] + y_prev, y)
            y_hat = mv(theta, [Decimal(1)] + y)
            Q, phi = update(Q, phi, y_prev, y_hat)
            out.append(Forecast(y_hat=np.array(y_hat, dtype=float), y_tilde=np.array(mv(phi, y_hat), dtype=float)))
            y_prev = y
    return out


def _pair_weights(n: int, tau: float) -> np.ndarray:
    return tau ** np.arange(n - 1, -1, -1, dtype=float)


def weighted_gram(X: np.ndarray, ridge_lambda: float, tau: float) -> np.ndarray:
    """``sum_s tau^(n-s) x_s x_s' + tau^n lambda I`` over rows s = 1..n: the inverse of ``P``."""
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    return (X.T * _pair_weights(n, tau)) @ X + tau**n * ridge_lambda * np.eye(m)


def weighted_ridge(X: np.ndarray, Y: np.ndarray, ridge_lambda: float, tau: float) -> np.ndarray:
    """Minimiser ``B`` of ``sum_s tau^(n-s) |y_s - B' x_s|^2 + tau^n lambda |B|^2``.

    ``B`` is ``m x q`` for ``X`` of ``n x m`` and ``Y`` of ``n x q``, as
    :func:`seqrank.batch_ridge` returns; at ``tau = 1`` the two agree.
    """
    X = np.asarray(X, dtype=float)
    moment = (X.T * _pair_weights(len(X), tau)) @ np.asarray(Y, dtype=float)
    return np.linalg.solve(weighted_gram(X, ridge_lambda, tau), moment)
