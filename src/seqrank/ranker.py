"""Sequential ranking of experts from decayed pairwise win statistics.

The state keeps ``m``, whose entry ``j`` is the exponentially decayed
fraction of experts that expert ``j`` performed at least as well as (ties
count as wins for both sides, and an expert always beats itself): the
column means of the decayed ``d x d`` pairwise-win matrix, which is never
formed. After ``t`` steps ``m`` lies in ``[(1 - tau**t) / d, 1 - tau**t]``,
and on distinct inputs ``sum(m) = (1 - tau**t) * (d + 1) / 2``. ``m``
normalises into a likelihood vector ``q``, and the posterior ``p`` is an
exponential smoothing of ``q`` with the same decay. Because the win
indicator depends only on the ordering of the performance vector, the
whole state is invariant to positive affine rescalings of the input.

``update`` folds in one day or a whole series in one call. One argsort per
``_BLOCK_ROWS`` rows gives those rows' win counts, and the ``m`` and ``p``
recursions then run row by row, the posterior rows straight into the
returned matrix, so a series gives the bits of its days folded in one at a
time.

Updates are strictly sequential; a state may be handed between threads
but never shared mutably.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

__all__ = ["RankerState", "rank_order"]

logger = logging.getLogger(__name__)

_RENORM_LOG_TOLERANCE = 1e-12
# rows per argsort in ``update``: the win counts and likelihoods of one
# slice are a few (64, d) arrays beside the (days, d) posterior it returns
_BLOCK_ROWS = 64


class RankerState:
    """Decayed pairwise-win ranker over ``d >= 2`` experts.

    ``tau`` in (0, 1] is the decay: at ``tau = 1`` nothing is ever
    learned (the posterior stays uniform), while smaller values weight
    recent performance more heavily.
    """

    def __init__(self, d: int, tau: float) -> None:
        if not isinstance(d, (int, np.integer)) or d < 2:
            raise ValueError(f"d must be an integer >= 2, got {d!r}")
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        self.d = int(d)
        self.tau = float(tau)
        self.m = np.zeros(self.d)
        self.p = np.full(self.d, 1.0 / self.d)
        self.t = 0

    @property
    def q(self) -> np.ndarray:
        """Likelihood: ``m`` normalised to unit sum; uniform while ``m`` is 0, as at ``tau = 1``."""
        return _likelihood(self.m[None, :])[0]

    def update(self, performance: Sequence[float] | np.ndarray) -> np.ndarray:
        """Fold one performance vector ``(d,)``, or a series of them ``(days, d)``, into the state.

        Each row in turn decays ``m`` toward ``c / d``, where
        ``c_j = #{i : r_i <= r_j}``, and moves the posterior a step
        ``(1 - tau)`` toward the likelihood ``q``, then renormalises it to
        unit sum. Returns the posterior after each row, as a new array shaped
        like ``performance``; ``m``, ``p`` and ``t`` then hold the last
        row's state. The whole input is checked before the state changes. A
        renormalisation beyond a machine-epsilon correction is logged, once
        per call.
        """
        r = np.asarray(performance, dtype=float)
        series = r[None, :] if r.ndim == 1 else r
        if series.ndim != 2 or series.shape[1] != self.d or len(series) == 0:
            raise ValueError(
                f"performance must have shape ({self.d},) or (days >= 1, {self.d}), got {r.shape}"
            )
        if not np.isfinite(series).all():
            raise ValueError("performance contains non-finite values")
        days, tau = len(series), self.tau
        posterior = np.empty((days, self.d))
        norms = np.empty(days)
        m, p = self.m, self.p
        decayed = np.empty(self.d)
        for start in range(0, days, _BLOCK_ROWS):
            # the slice's (1 - tau) * (c / d) at once; the recursions then run
            # a row at a time, with the operands of a one-day update in its order
            m_rows = _win_counts(series[start : start + _BLOCK_ROWS]) / self.d
            m_rows *= 1.0 - tau
            for row in m_rows:
                np.multiply(m, tau, out=decayed)
                row += decayed
                m = row
            m = m.copy()
            # each row's (1 - tau) * q, in place of m
            _likelihood(m_rows, out=m_rows)
            m_rows *= 1.0 - tau
            for j, (row, step) in enumerate(zip(posterior[start:], m_rows), start):
                np.multiply(p, tau, out=row)
                row += step
                norms[j] = row.sum()
                row /= norms[j]
                p = row
            # the slice's block goes before the next slice's win counts
            del m_rows, step
        self._log_drift(norms)
        self.m, self.p = m, p.copy()
        self.t += days
        return posterior[0] if r.ndim == 1 else posterior

    def _log_drift(self, norms: np.ndarray) -> None:
        """One warning for the rows of an update whose posterior sum drifted from 1."""
        drift = norms - 1.0
        drifted = np.abs(drift) > _RENORM_LOG_TOLERANCE * self.d
        if drifted.any():
            worst = int(np.abs(drift).argmax())
            logger.warning(
                "posterior sum drifted on %d of %d steps from step %d; largest %+.3e at step %d",
                int(drifted.sum()), len(norms), self.t + 1 + int(drifted.argmax()),
                drift[worst], self.t + 1 + worst,
            )

    def rank(self) -> np.ndarray:
        """Indices sorted by descending posterior, ties by ascending index."""
        return rank_order(self.p)


def rank_order(posterior: np.ndarray) -> np.ndarray:
    """Indices by descending posterior along the last axis, ties by ascending index."""
    return np.argsort(-posterior, axis=-1, kind="stable")


def _win_counts(block: np.ndarray) -> np.ndarray:
    """``c_j = #{i : r_i <= r_j}`` for every row of a ``(days, d)`` block, from one argsort.

    In a sorted row, a value's count is the end of its run of equal values.
    """
    days, d = block.shape
    order = np.argsort(block, axis=1)
    # row indices beside order: numpy's take/put_along_axis build the same
    # index pair in Python on every call
    rows = np.arange(days)[:, None]
    ranked = block[rows, order]
    ends = np.full((days, d), d, dtype=np.intp)
    np.copyto(ends[:, :-1], np.arange(1, d), where=ranked[:, 1:] != ranked[:, :-1])
    del ranked
    ends[rows, order] = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
    return ends


def _likelihood(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row of ``(days, d)`` ``m`` over its sum; uniform where a row sums to 0.

    A row's sum has the bits of the 1-D sum of that row.
    """
    totals = m.sum(axis=1, keepdims=True)
    q = np.divide(m, totals, out=out, where=totals > 0.0)
    q[totals[:, 0] <= 0.0] = 1.0 / m.shape[1]
    return q
