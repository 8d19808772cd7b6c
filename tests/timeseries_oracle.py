"""Textbook form of ``seqrank.timeseries.simulate_jump_diffusion``.

``simulate_jump_diffusion`` works in place to hold few ``(n, d)`` buffers.
This is the expression it replaced: one new array per operation, in the
same draw order and with the same floating-point operations. The tests
compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from seqrank.timeseries import JumpDiffusionConfig, _correlation_cholesky


def oracle_quotes(config: JumpDiffusionConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n_steps + 1, n_assets)`` bid and ask matrices of ``config``."""
    d, n = config.n_assets, config.n_steps
    rng = np.random.Generator(np.random.PCG64(config.seed))
    chol = _correlation_cholesky(config.cross_correlation, d)

    shocks = rng.standard_normal((n, d)) @ chol.T
    counts = rng.poisson(config.jump_intensity, size=(n, d))
    jump_z = rng.standard_normal((n, d))
    # Sum of k iid normal jumps has mean k * jump_mean and variance k * jump_stdev^2.
    jumps = counts * config.jump_mean + np.sqrt(counts) * config.jump_stdev * jump_z

    drift = config.drift_vector() - 0.5 * config.volatility**2
    increments = drift[None, :] + config.volatility * shocks + jumps
    log_mids = np.log(config.start_price) + np.vstack(
        [np.zeros(d), np.cumsum(increments, axis=0)]
    )
    mids = np.exp(log_mids)
    half = 0.5 * config.spread
    return mids * (1.0 - half), mids * (1.0 + half)
