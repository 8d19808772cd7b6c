"""Reference arithmetic for ``CurdsWheyState``, kept as oracles for the tests.

``oracle_step`` is the forecaster's step as it was before it updated its
matrices in place: every product is a fresh array, and ``P`` and ``Q`` are
re-symmetrised after each update. The tests compare the in-place step
against it bit for bit.

``weighted_ridge`` is the batch solution the recursions track at a
forgetting factor ``tau < 1``.
"""

from __future__ import annotations

import numpy as np

from seqrank import Forecast
from seqrank.regression import _RESET_FLOOR


def oracle_step(state, x_t, y_t) -> Forecast:
    """Advance ``state`` one observation with fresh arrays and re-symmetrisation."""
    x = state._check_input(x_t)
    y = np.asarray(y_t, dtype=float)
    tau = state.tau

    Px = state.P @ state.x_prev
    scale = 1.0 + float(state.x_prev @ Px) / tau
    gain = Px / (scale * tau)
    state.theta += np.outer(y - state.theta @ state.x_prev, gain)
    state.P = state.P / tau - np.outer(gain, gain) * scale
    state.P = 0.5 * (state.P + state.P.T)
    if float(state.P.diagonal().min()) < _RESET_FLOOR:
        state.P = np.eye(state.d + 1) / state.ridge_lambda
        state.p_resets += 1

    y_hat = state.theta @ x

    Qy = state.Q @ state.y_prev
    scale2 = 1.0 + float(state.y_prev @ Qy) / tau
    gain2 = Qy / (scale2 * tau)
    state.phi += np.outer(y_hat - state.phi @ state.y_prev, gain2)
    state.Q = state.Q / tau - np.outer(gain2, gain2) * scale2
    state.Q = 0.5 * (state.Q + state.Q.T)
    if float(state.Q.diagonal().min()) < _RESET_FLOOR:
        state.Q = np.eye(state.d) / state.ridge_lambda
        state.q_resets += 1

    y_tilde = state.phi @ y_hat
    state.x_prev = x.copy()
    state.y_prev = y.copy()
    state.t += 1
    return Forecast(y_hat=y_hat, y_tilde=y_tilde)


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
