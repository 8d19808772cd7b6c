"""Bid/ask quote panels, return construction, CSV I/O and synthetic data.

A :class:`QuotePanel` is the core container: date-aligned bid/ask matrices
for two or more assets, with mid prices, simple returns and half-spread
rates materialised once at construction and frozen afterwards. Panels are
immutable, so they can be shared freely across threads.

Synthetic panels come from :func:`simulate_jump_diffusion`, a seeded
generator that combines Gaussian diffusion (optionally cross-correlated
between assets) with Poisson-count jumps whose log sizes are normal. All
randomness flows through numpy's PCG64 bit generator with a fixed draw
order, so a fixed seed reproduces the same panel bit for bit on any
platform.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Quote",
    "QuotePanel",
    "JumpDiffusionConfig",
    "mid_price",
    "half_spread_rate",
    "build_panel",
    "simulate_jump_diffusion",
    "weekday_range",
    "load_csv",
    "write_csv",
]

CSV_COLUMNS = ("date", "asset", "bid", "ask")


def mid_price(bid: float, ask: float) -> float:
    """Midpoint of a bid/ask pair. Requires ``ask >= bid > 0``."""
    if not (bid > 0.0):
        raise ValueError(f"bid must be positive, got {bid}")
    if ask < bid:
        raise ValueError(f"ask must be >= bid, got bid={bid} ask={ask}")
    return 0.5 * (bid + ask)


def half_spread_rate(bid: float, ask: float) -> float:
    """Half the bid/ask spread expressed as a fraction of the mid price.

    This is the cost rate paid per unit of position change by a price
    taker, so it composes directly with weight changes in return space.
    """
    return 0.5 * (ask - bid) / mid_price(bid, ask)


@dataclass(frozen=True)
class Quote:
    """A single dated bid/ask observation."""

    date: dt.date
    bid: float
    ask: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.bid) and np.isfinite(self.ask)):
            raise ValueError(f"non-finite quote on {self.date}")
        if not (self.bid > 0.0):
            raise ValueError(f"bid must be positive on {self.date}, got {self.bid}")
        if self.ask < self.bid:
            raise ValueError(
                f"ask must be >= bid on {self.date}, got bid={self.bid} ask={self.ask}"
            )


@dataclass(frozen=True, eq=False)
class QuotePanel:
    """Date-aligned bid/ask matrices for ``d >= 2`` assets.

    ``bids`` and ``asks`` are ``(n, d)`` arrays over strictly increasing
    dates. ``mids``, ``returns`` (shape ``(n - 1, d)``, where row ``t`` is
    the return from date ``t`` to date ``t + 1``) and ``half_spread_rates``
    are derived in ``__post_init__`` and all arrays are then frozen.
    """

    dates: tuple[dt.date, ...]
    assets: tuple[str, ...]
    bids: np.ndarray
    asks: np.ndarray
    sectors: tuple[str, ...] | None = None
    mids: np.ndarray = field(init=False)
    returns: np.ndarray = field(init=False)
    half_spread_rates: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        dates = tuple(self.dates)
        assets = tuple(str(a) for a in self.assets)
        bids = np.array(self.bids, dtype=float)
        asks = np.array(self.asks, dtype=float)
        n, d = len(dates), len(assets)
        if d < 2:
            raise ValueError(f"a panel needs at least 2 assets, got {d}")
        if n < 2:
            raise ValueError(f"a panel needs at least 2 dates, got {n}")
        if bids.shape != (n, d) or asks.shape != (n, d):
            raise ValueError(
                f"price matrices must be shaped ({n}, {d}), got {bids.shape} and {asks.shape}"
            )
        if not (np.isfinite(bids).all() and np.isfinite(asks).all()):
            raise ValueError("every panel cell must hold a finite quote")
        if (bids <= 0.0).any():
            raise ValueError("bids must be positive everywhere")
        if (asks < bids).any():
            raise ValueError("ask < bid somewhere in the panel")
        if any(b >= a for b, a in zip(dates, dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if self.sectors is not None and len(self.sectors) != d:
            raise ValueError("sectors, when given, must label every asset")

        mids = 0.5 * (bids + asks)
        returns = mids[1:] / mids[:-1] - 1.0
        rates = 0.5 * (asks - bids) / mids
        for arr in (bids, asks, mids, returns, rates):
            arr.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "bids", bids)
        object.__setattr__(self, "asks", asks)
        object.__setattr__(self, "mids", mids)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "half_spread_rates", rates)
        if self.sectors is not None:
            object.__setattr__(self, "sectors", tuple(str(s) for s in self.sectors))

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def build_panel(
    streams: Mapping[str, Sequence[Quote]],
    sectors: Mapping[str, str] | None = None,
) -> QuotePanel:
    """Align per-asset quote streams on the intersection of their dates.

    Dates missing from any stream are dropped entirely rather than filled,
    so every retained row is a real quote for every asset. Assets are
    ordered lexicographically, which makes construction insensitive to the
    order streams are supplied in. Fails if fewer than three shared dates
    remain (two returns are the minimum anything downstream can use).
    """
    if len(streams) < 2:
        raise ValueError(f"need at least 2 asset streams, got {len(streams)}")
    names = sorted(streams)
    by_asset: dict[str, dict[dt.date, Quote]] = {}
    shared: set[dt.date] | None = None
    for name in names:
        quotes = list(streams[name])
        for prev, cur in zip(quotes, quotes[1:]):
            if cur.date <= prev.date:
                raise ValueError(f"stream {name!r} is not strictly date-sorted")
        by_asset[name] = {q.date: q for q in quotes}
        shared = set(by_asset[name]) if shared is None else shared & set(by_asset[name])
    assert shared is not None
    dates = tuple(sorted(shared))
    if len(dates) < 3:
        raise ValueError(
            f"streams share only {len(dates)} dates; at least 3 are required"
        )
    bids = np.array([[by_asset[a][day].bid for a in names] for day in dates])
    asks = np.array([[by_asset[a][day].ask for a in names] for day in dates])
    sector_tuple = None
    if sectors is not None:
        missing = [a for a in names if a not in sectors]
        if missing:
            raise ValueError(f"sector labels missing for assets: {missing}")
        sector_tuple = tuple(sectors[a] for a in names)
    return QuotePanel(dates=dates, assets=tuple(names), bids=bids, asks=asks, sectors=sector_tuple)


def weekday_range(start: dt.date, count: int) -> tuple[dt.date, ...]:
    """``count`` consecutive weekdays starting at ``start`` (rolled forward
    to a weekday if needed)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    days = []
    day = start
    while day.weekday() >= 5:
        day += dt.timedelta(days=1)
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return tuple(days)


@dataclass(frozen=True)
class JumpDiffusionConfig:
    """Parameters for the synthetic quote generator.

    ``drift`` is a per-step log-drift rate, either one float shared by all
    assets or one per asset. ``jump_intensity`` is the expected number of
    jumps per step; each jump adds a Normal(jump_mean, jump_stdev) shock to
    the log price. ``cross_correlation`` is the common pairwise correlation
    of the diffusion shocks. ``spread`` is a constant proportional bid/ask
    spread: quotes are set at ``mid * (1 -/+ spread / 2)``.
    """

    drift: float | tuple[float, ...] = 0.0
    volatility: float = 0.01
    jump_intensity: float = 0.0
    jump_mean: float = 0.0
    jump_stdev: float = 0.0
    n_steps: int = 500
    n_assets: int = 2
    cross_correlation: float = 0.0
    seed: int = 0
    spread: float = 0.001
    start_price: float = 100.0
    start_date: dt.date = dt.date(2018, 1, 2)

    def __post_init__(self) -> None:
        if isinstance(self.drift, (list, tuple, np.ndarray)):
            drift = tuple(float(m) for m in self.drift)
            if len(drift) != self.n_assets:
                raise ValueError(
                    f"per-asset drift needs {self.n_assets} entries, got {len(drift)}"
                )
            object.__setattr__(self, "drift", drift)
        if self.volatility < 0.0:
            raise ValueError("volatility must be >= 0")
        if self.jump_intensity < 0.0:
            raise ValueError("jump_intensity must be >= 0")
        if self.jump_stdev < 0.0:
            raise ValueError("jump_stdev must be >= 0")
        if abs(self.cross_correlation) > 1.0:
            raise ValueError("cross_correlation must lie in [-1, 1]")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.n_assets < 2:
            raise ValueError("n_assets must be at least 2")
        if not (0.0 <= self.spread < 2.0):
            raise ValueError("spread must lie in [0, 2)")
        if self.start_price <= 0.0:
            raise ValueError("start_price must be positive")

    def drift_vector(self) -> np.ndarray:
        if isinstance(self.drift, tuple):
            return np.asarray(self.drift, dtype=float)
        return np.full(self.n_assets, float(self.drift))


def _correlation_cholesky(rho: float, d: int) -> np.ndarray:
    corr = np.full((d, d), rho)
    np.fill_diagonal(corr, 1.0)
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"cross_correlation {rho} is not positive definite for {d} assets "
            f"(needs rho > {-1.0 / (d - 1):.4f})"
        ) from None


def simulate_jump_diffusion(config: JumpDiffusionConfig) -> QuotePanel:
    """Generate a seeded synthetic panel of ``n_steps + 1`` weekday quotes.

    Log prices follow ``(drift - volatility^2 / 2)`` per step plus a
    correlated Gaussian term and a compound-Poisson jump term. Draw order
    is fixed (diffusion shocks, jump counts, jump sizes) so identical
    configs give identical panels.
    """
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
    bids = mids * (1.0 - half)
    asks = mids * (1.0 + half)
    dates = weekday_range(config.start_date, n + 1)
    assets = tuple(f"A{i:03d}" for i in range(d))
    return QuotePanel(dates=dates, assets=assets, bids=bids, asks=asks)


def write_csv(panel: QuotePanel, path: str | Path) -> None:
    """Write a panel as long-form CSV (one row per date and asset).

    Columns are ``date,asset,bid,ask,mid`` plus ``sector`` when the panel
    carries sector labels; prices use shortest round-trip float text, so a
    write/load cycle reproduces the panel exactly. LF line endings, UTF-8.
    """
    Path(path).write_text(render_csv(panel), encoding="utf-8", newline="")


def render_csv(panel: QuotePanel) -> str:
    header = list(CSV_COLUMNS) + ["mid"]
    if panel.sectors is not None:
        header.append("sector")
    lines = [",".join(header)]
    for i, day in enumerate(panel.dates):
        for j, asset in enumerate(panel.assets):
            row = [
                day.isoformat(),
                asset,
                repr(float(panel.bids[i, j])),
                repr(float(panel.asks[i, j])),
                repr(float(panel.mids[i, j])),
            ]
            if panel.sectors is not None:
                row.append(panel.sectors[j])
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def load_csv(path: str | Path) -> QuotePanel:
    """Load a long-form quote CSV into a panel.

    Requires a header with at least ``date,asset,bid,ask``; ``mid`` is
    ignored and ``sector``, when present, must be consistent per asset.
    Rows for one asset must appear in strictly increasing date order, and
    a (date, asset) pair may appear only once. Errors name the offending
    row number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"panel file not found: {path}")
    streams: dict[str, list[Quote]] = {}
    sectors: dict[str, str] = {}
    saw_sector = False
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header required") from None
        header = [h.strip().lower() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: header is missing columns {missing}")
        col = {name: header.index(name) for name in header}
        saw_sector = "sector" in col
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                day = dt.date.fromisoformat(row[col["date"]].strip())
                bid = float(row[col["bid"]])
                ask = float(row[col["ask"]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            asset = row[col["asset"]].strip()
            if not asset:
                raise ValueError(f"{path}:{lineno}: empty asset name")
            try:
                quote = Quote(date=day, bid=bid, ask=ask)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            stream = streams.setdefault(asset, [])
            if stream:
                if quote.date == stream[-1].date:
                    raise ValueError(f"{path}:{lineno}: duplicate (date, asset) pair ({day}, {asset})")
                if quote.date < stream[-1].date:
                    raise ValueError(f"{path}:{lineno}: dates for {asset} are not increasing")
            stream.append(quote)
            if saw_sector:
                sector = row[col["sector"]].strip()
                if asset in sectors and sectors[asset] != sector:
                    raise ValueError(f"{path}:{lineno}: conflicting sector for {asset}")
                sectors[asset] = sector
    if len(streams) < 2:
        raise ValueError(f"{path}: need quotes for at least 2 assets, got {len(streams)}")
    return build_panel(streams, sectors=sectors if saw_sector else None)
