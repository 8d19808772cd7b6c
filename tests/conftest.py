"""Shared panel builders and hypothesis settings for the test suite."""

from __future__ import annotations

import datetime as dt
import os

import numpy as np
import pytest
from hypothesis import settings

from seqrank import JumpDiffusionConfig, QuotePanel, simulate_jump_diffusion, weekday_range

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

def assert_no_child() -> None:
    """Fail if this process has a child, running or exited and not reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork`` made in this process during the test."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def panel_from_mids(mids: np.ndarray, spread: float = 0.0, start: dt.date = dt.date(2020, 1, 6)):
    """Build a panel from an (n, d) mid-price matrix with a proportional spread."""
    mids = np.asarray(mids, dtype=float)
    n, d = mids.shape
    half = 0.5 * spread
    return QuotePanel(
        dates=weekday_range(start, n),
        assets=tuple(f"A{j:03d}" for j in range(d)),
        bids=mids * (1.0 - half),
        asks=mids * (1.0 + half),
    )


def fresh_copy(panel):
    """The same quotes in a new panel object, which holds no memoised forecasts."""
    return QuotePanel(
        dates=panel.dates, assets=panel.assets, bids=panel.bids, asks=panel.asks, sectors=panel.sectors
    )


def constant_growth_panel(d: int, n_dates: int, rate: float = 0.001, spread: float = 0.0):
    """All assets share one deterministic exponential price path."""
    steps = np.arange(n_dates)
    mids = 100.0 * np.exp(rate * steps)[:, None] * np.ones((1, d))
    return panel_from_mids(mids, spread=spread)


def dominance_panel(d: int, n_dates: int, spread: float = 0.0):
    """Asset 0 compounds strictly faster than every other asset, every day."""
    rates = 0.01 - 0.002 * np.arange(d) / d
    steps = np.arange(n_dates)[:, None]
    mids = 100.0 * np.exp(steps * rates[None, :])
    return panel_from_mids(mids, spread=spread)


def drift_switch_panel(d: int, n_steps: int, mu: float, vol: float, seed: int):
    """Jump-diffusion panel whose drift flips from +mu to -mu halfway through.

    Two independent simulations are spliced multiplicatively, so the seam
    return is just the second segment's first return.
    """
    half = n_steps // 2
    first = simulate_jump_diffusion(
        JumpDiffusionConfig(drift=mu, volatility=vol, n_steps=half, n_assets=d, seed=seed, spread=0.0)
    )
    second = simulate_jump_diffusion(
        JumpDiffusionConfig(
            drift=-mu, volatility=vol, n_steps=n_steps - half, n_assets=d, seed=seed + 1, spread=0.0
        )
    )
    extra_dates = weekday_range(first.dates[-1] + dt.timedelta(days=1), second.n_dates - 1)
    scale = first.mids[-1] / second.mids[0]
    mids = np.vstack([first.mids, second.mids[1:] * scale])
    return QuotePanel(dates=first.dates + extra_dates, assets=first.assets, bids=mids, asks=mids)
