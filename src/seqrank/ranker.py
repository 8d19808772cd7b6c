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

Updates are strictly sequential; a state may be handed between threads
but never shared mutably.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["RankerState", "RankOutput"]

logger = logging.getLogger(__name__)

_RENORM_LOG_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RankOutput:
    """A ranking at one step: expert indices sorted by descending posterior.

    Ties are broken by ascending index, so the output is deterministic.
    """

    order: np.ndarray
    posterior: np.ndarray


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
        total = float(self.m.sum())
        return self.m / total if total > 0.0 else np.full(self.d, 1.0 / self.d)

    def update(self, performance: Sequence[float] | np.ndarray) -> "RankerState":
        """Fold one performance vector into the win statistics.

        ``m`` decays toward ``c / d`` where ``c_j = #{i : r_i <= r_j}``
        comes from one sort, and the posterior moves a step ``(1 - tau)``
        toward the likelihood ``q``. The posterior is renormalised to unit
        sum afterwards; anything beyond a machine-epsilon correction is
        logged.
        """
        r = np.asarray(performance, dtype=float)
        if r.shape != (self.d,):
            raise ValueError(f"performance vector must have shape ({self.d},), got {r.shape}")
        if not np.isfinite(r).all():
            raise ValueError("performance vector contains non-finite values")
        wins = np.searchsorted(np.sort(r), r, side="right")
        self.m *= self.tau
        self.m += (1.0 - self.tau) * (wins / self.d)
        self.p = self.tau * self.p + (1.0 - self.tau) * self.q
        norm = float(self.p.sum())
        if abs(norm - 1.0) > _RENORM_LOG_TOLERANCE * self.d:
            logger.warning("posterior sum drifted to %+.3e at step %d", norm - 1.0, self.t + 1)
        self.p /= norm
        self.t += 1
        return self

    def rank(self) -> RankOutput:
        """Indices sorted by descending posterior, ties by ascending index."""
        order = np.argsort(-self.p, kind="stable")
        return RankOutput(order=order, posterior=self.p.copy())
