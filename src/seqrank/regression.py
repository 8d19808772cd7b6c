"""Two-stage multivariate recursive least squares with exponential forgetting.

Stage one tracks a linear map from the previous input vector (a leading
one plus ``d`` features) to the current ``d``-vector target: coefficient
matrix ``theta`` with inverse-covariance surrogate ``P``. Stage two tracks
a ``d x d`` shrinkage map ``phi`` that regresses the stage-one prediction
on the previous target, with surrogate ``Q``, so correlated targets pull
each other's forecasts toward directions that have proven predictable.
The final forecast for an input ``x`` is ``phi @ (theta @ x)``.

Each step pairs the lagged input with the current target, as the
forecasting use case requires (today's features predict tomorrow's
targets). With forgetting factor ``tau = 1`` the recursions reproduce,
exactly up to floating point, the batch ridge solutions on the sequence of
(lagged input, target) pairs; :func:`batch_ridge` and
:func:`batch_shrinkage` provide those oracles. With ``tau < 1`` old pairs
are geometrically down-weighted, so the coefficients track drifting maps.

State evolution is strictly sequential. :meth:`CurdsWheyState.forecast`
is read-only and may be called concurrently with no writer present.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._snapshot import snapshot_array, snapshot_count, snapshot_field

__all__ = ["CurdsWheyState", "Forecast", "batch_ridge", "batch_shrinkage"]

logger = logging.getLogger(__name__)

# P or Q diagonals below this trigger a reset to the prior; resets are
# counted on the state and logged.
_RESET_FLOOR = 1e-12


def _outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Write ``a_i * b_j`` into ``out``.

    At d = 250 einsum takes about 0.6 of the time ``np.multiply.outer``
    does. It adds each product to a zeroed ``out``, so it writes ``+0.0``
    where the product is ``-0.0``. Adding that to, or subtracting it from,
    a matrix entry gives the same bits unless the entry is ``-0.0``. A
    step never makes one (a sum is ``-0.0`` only when both terms are, and
    the prior's zeros are ``+0.0``), so only a loaded snapshot can hold it.
    """
    np.einsum("i,j->ij", a, b, out=out)


@dataclass(frozen=True)
class Forecast:
    """First-stage prediction and its shrunk counterpart."""

    y_hat: np.ndarray
    y_tilde: np.ndarray


class CurdsWheyState:
    """Coupled coefficient/shrinkage recursions for ``d`` target series."""

    def __init__(self, d: int, ridge_lambda: float, tau: float) -> None:
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"d must be an integer >= 1, got {d!r}")
        if not (ridge_lambda > 0.0):
            raise ValueError(f"ridge_lambda must be positive, got {ridge_lambda}")
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        self.d = int(d)
        self.ridge_lambda = float(ridge_lambda)
        self.tau = float(tau)
        self.theta = np.zeros((self.d, self.d + 1))
        self.P = np.eye(self.d + 1) / self.ridge_lambda
        self.phi = np.zeros((self.d, self.d))
        self.Q = np.eye(self.d) / self.ridge_lambda
        self.x_prev = np.zeros(self.d + 1)
        self.x_prev[0] = 1.0
        self.y_prev = np.zeros(self.d)
        self.t = 0
        self.p_resets = 0
        self.q_resets = 0
        # step writes each outer product into this one scratch matrix and
        # applies it before writing the next, so it allocates no matrix
        scratch = np.empty((self.d + 1) ** 2)
        self._P_buf = scratch.reshape(self.d + 1, self.d + 1)
        self._theta_buf = scratch[: self.d * (self.d + 1)].reshape(self.d, self.d + 1)
        self._phi_buf = self._Q_buf = scratch[: self.d * self.d].reshape(self.d, self.d)

    def step(self, x_t: Sequence[float] | np.ndarray, y_t: Sequence[float] | np.ndarray) -> Forecast:
        """Advance both recursions one observation and forecast from ``x_t``.

        Order of operations: update ``theta``/``P`` against the pair
        (previous input, current target); form the stage-one prediction
        ``y_hat = theta @ x_t``; update ``phi``/``Q`` against the pair
        (previous target, y_hat); form ``y_tilde = phi @ y_hat``; then
        roll the stored input and target forward. All four matrices are
        updated in place. ``P`` and ``Q`` stay exactly symmetric, since
        ``P / tau`` is elementwise and ``g_i * g_j == g_j * g_i``; either
        is reset to the prior (with a log line) if a diagonal entry
        collapses below 1e-12.
        """
        x = self._check_input(x_t)
        y = np.asarray(y_t, dtype=float)
        if y.shape != (self.d,):
            raise ValueError(f"target must have shape ({self.d},), got {y.shape}")
        if not np.isfinite(y).all():
            raise ValueError("target contains non-finite values")
        tau = self.tau

        P, buf = self.P, self._P_buf
        Px = P @ self.x_prev
        scale = 1.0 + float(self.x_prev @ Px) / tau
        gain = Px / (scale * tau)
        _outer(y - self.theta @ self.x_prev, gain, self._theta_buf)
        self.theta += self._theta_buf
        np.divide(P, tau, out=P)
        _outer(gain, gain, buf)
        buf *= scale
        P -= buf
        if float(P.diagonal().min()) < _RESET_FLOOR:
            logger.warning("P diagonal collapsed at step %d; resetting to prior", self.t + 1)
            self.P = np.eye(self.d + 1) / self.ridge_lambda
            self.p_resets += 1

        y_hat = self.theta @ x

        Q, buf = self.Q, self._Q_buf
        Qy = Q @ self.y_prev
        scale2 = 1.0 + float(self.y_prev @ Qy) / tau
        gain2 = Qy / (scale2 * tau)
        _outer(y_hat - self.phi @ self.y_prev, gain2, self._phi_buf)
        self.phi += self._phi_buf
        np.divide(Q, tau, out=Q)
        _outer(gain2, gain2, buf)
        buf *= scale2
        Q -= buf
        if float(Q.diagonal().min()) < _RESET_FLOOR:
            logger.warning("Q diagonal collapsed at step %d; resetting to prior", self.t + 1)
            self.Q = np.eye(self.d) / self.ridge_lambda
            self.q_resets += 1

        y_tilde = self.phi @ y_hat
        self.x_prev = x.copy()
        self.y_prev = y.copy()
        self.t += 1
        return Forecast(y_hat=y_hat, y_tilde=y_tilde)

    def forecast(self, x_t: Sequence[float] | np.ndarray) -> Forecast:
        """Predict from the current matrices without touching any state."""
        x = self._check_input(x_t)
        y_hat = self.theta @ x
        return Forecast(y_hat=y_hat, y_tilde=self.phi @ y_hat)

    def _check_input(self, x_t: Sequence[float] | np.ndarray) -> np.ndarray:
        x = np.asarray(x_t, dtype=float)
        if x.shape != (self.d + 1,):
            raise ValueError(f"input must have shape ({self.d + 1},), got {x.shape}")
        if x[0] != 1.0:
            raise ValueError(f"input must carry a leading 1, got {x[0]}")
        if not np.isfinite(x).all():
            raise ValueError("input contains non-finite values")
        return x

    def to_json_dict(self) -> dict:
        """Row-major snapshot of every matrix, for resumable runs."""
        return {
            "d": self.d,
            "ridge_lambda": self.ridge_lambda,
            "tau": self.tau,
            "t": self.t,
            "theta": self.theta.tolist(),
            "P": self.P.tolist(),
            "phi": self.phi.tolist(),
            "Q": self.Q.tolist(),
            "x_prev": self.x_prev.tolist(),
            "y_prev": self.y_prev.tolist(),
            "p_resets": self.p_resets,
            "q_resets": self.q_resets,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CurdsWheyState":
        """Load a snapshot; every matrix must have its shape and be finite,
        and ``x_prev`` must carry the leading 1 that :meth:`step` requires.

        ``P`` and ``Q`` must also equal their transposes bit for bit,
        because :meth:`step` keeps symmetry rather than restoring it.
        """
        state = cls(
            snapshot_count("d", snapshot_field(payload, "d")),
            snapshot_field(payload, "ridge_lambda"),
            snapshot_field(payload, "tau"),
        )
        d = state.d
        arrays = {
            "theta": (d, d + 1),
            "P": (d + 1, d + 1),
            "phi": (d, d),
            "Q": (d, d),
            "x_prev": (d + 1,),
            "y_prev": (d,),
        }
        for name, shape in arrays.items():
            setattr(state, name, snapshot_array(payload, name, shape))
        for name in ("P", "Q"):
            value = getattr(state, name)
            if value.tobytes() != value.T.tobytes():
                raise ValueError(f"snapshot field {name} must be symmetric")
        if state.x_prev[0] != 1.0:
            raise ValueError(f"snapshot field x_prev must carry a leading 1, got {state.x_prev[0]}")
        state.t = snapshot_count("t", snapshot_field(payload, "t"))
        state.p_resets = snapshot_count("p_resets", payload.get("p_resets", 0))
        state.q_resets = snapshot_count("q_resets", payload.get("q_resets", 0))
        return state


def batch_ridge(X: np.ndarray, Y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Ridge solution ``(X'X + lambda I)^-1 X'Y`` via a stable solve.

    ``X`` is ``n x m`` and ``Y`` is ``n x q`` (a 1-d ``Y`` is treated as a
    single column); the result is ``m x q``, mapping inputs to outputs.
    Always well posed for positive ``ridge_lambda``.
    """
    if not (ridge_lambda > 0.0):
        raise ValueError(f"ridge_lambda must be positive, got {ridge_lambda}")
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
