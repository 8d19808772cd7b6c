"""Bid/ask quote panels, return construction, CSV I/O and synthetic data.

A :class:`QuotePanel` is the core container: date-aligned bid/ask matrices
for two or more assets, with simple returns and half-spread rates derived
once at construction (the mid price only as a temporary, a block of rows
at a time), stored row by row (C order) and frozen afterwards. Panels are
immutable, so they can be shared freely across threads, and a panel made
from another live panel's own ``bids`` and ``asks`` (to re-label it, say)
shares all four of its matrices.

Synthetic panels come from :func:`simulate_jump_diffusion`, a seeded
generator that combines Gaussian diffusion (optionally cross-correlated
between assets) with Poisson-count jumps whose log sizes are normal. All
randomness flows through numpy's PCG64 bit generator with a fixed draw
order, so a fixed seed reproduces the same panel bit for bit on any
platform.
"""

from __future__ import annotations

import datetime as dt
import re
import weakref
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from ._atomic import write_files
from ._csvread import CSV_COLUMNS, read_columns
from ._fork import split_map

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "QuotePanel",
    "JumpDiffusionConfig",
    "build_panel",
    "simulate_jump_diffusion",
    "weekday_range",
    "load_csv",
    "write_csv",
]

# A label that would not survive a write/load cycle of the CSV.
_UNSAFE_LABEL = re.compile(r'[,"\r\n\x00]|^\s|\s$')


@dataclass(frozen=True, eq=False)
class QuotePanel:
    """Date-aligned bid/ask matrices for ``d >= 2`` assets.

    ``bids`` and ``asks`` are ``(n, d)`` arrays over strictly increasing
    dates. ``returns`` (shape ``(n - 1, d)``, where row ``t`` is the
    return of the mid ``0.5 * (bid + ask)`` from date ``t`` to date
    ``t + 1``) and ``half_spread_rates`` are derived in ``__post_init__``
    and all four arrays are then frozen and C-contiguous, whatever the
    memory order of the quotes given. The quotes given are copied, unless
    they are another live panel's own ``bids`` and ``asks``: then the new
    panel shares that panel's four arrays.
    """

    dates: tuple[dt.date, ...]
    assets: tuple[str, ...]
    bids: np.ndarray
    asks: np.ndarray
    sectors: tuple[str, ...] | None = None
    returns: np.ndarray = field(init=False)
    half_spread_rates: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        dates = tuple(self.dates)
        assets = tuple(str(a) for a in self.assets)
        source = _PANELS.get(id(self.bids))
        if source is None or source.bids is not self.bids or source.asks is not self.asks:
            source = None
            bids, asks = _adopt(self.bids), _adopt(self.asks)
        else:
            bids, asks = source.bids, source.asks
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

        if source is None:
            # 0.5 * (bids + asks), mids[1:] / mids[:-1] - 1 and
            # 0.5 * (asks - bids) / mids, into two new arrays; the mids of a
            # block of rows and the next row at a time, not a third matrix
            returns, rates = np.empty((n - 1, d)), np.empty((n, d))
            step = max(1, _BLOCK_CELLS // d)
            for start in range(0, n, step):
                ahead = slice(start, start + step + 1)  # the block's rows and the next
                mids = np.add(bids[ahead], asks[ahead])
                mids *= 0.5
                ratio = np.divide(mids[1:], mids[:-1], out=returns[start : start + len(mids) - 1])
                ratio -= 1.0
                rows = slice(start, start + step)
                half = np.subtract(asks[rows], bids[rows], out=rates[rows])
                half *= 0.5
                half /= mids[: len(half)]
            for arr in (bids, asks, returns, rates):
                arr.setflags(write=False)
        else:
            returns, rates = source.returns, source.half_spread_rates
        object.__setattr__(self, "bids", bids)
        object.__setattr__(self, "asks", asks)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "half_spread_rates", rates)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "assets", assets)
        if self.sectors is not None:
            object.__setattr__(self, "sectors", tuple(str(s) for s in self.sectors))
        _PANELS[id(bids)] = self

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


# Arrays seqrank made for a panel and froze, by id, for QuotePanel to take
# as they are; any other array given to it is copied.
_FRESH: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()
# The latest live panel built on each bids array, by id of that array.
_PANELS: weakref.WeakValueDictionary[int, QuotePanel] = weakref.WeakValueDictionary()
# matrix cells per block of QuotePanel's mids: 512 KiB of float64
_BLOCK_CELLS = 1 << 16


def _hand_over(*arrays: np.ndarray) -> None:
    """Freeze C-ordered float ``arrays`` that nothing else holds, for the
    next ``QuotePanel`` given them to take without a copy."""
    for arr in arrays:
        arr.setflags(write=False)
        _FRESH[id(arr)] = arr


def _adopt(value) -> np.ndarray:
    if _FRESH.pop(id(value), None) is value:
        return value
    return np.array(value, dtype=float, order="C")


def build_panel(
    dates: ArrayLike,
    assets: ArrayLike,
    bids: ArrayLike,
    asks: ArrayLike,
    sectors: Mapping[str, str] | None = None,
) -> QuotePanel:
    """Pivot long-form quotes, one entry per (date, asset) pair, into a panel.

    ``dates`` holds anything numpy reads as ``datetime64[D]`` (``date``
    objects, ISO strings), ``assets`` the labels, and ``bids``/``asks`` the
    prices, all of one length and in any order. ``sectors`` maps each asset
    to its label. Rows are placed by (date index, asset index). Dates that
    some asset lacks are dropped entirely rather than filled, so every
    retained row is a real quote for every asset. Assets are ordered
    lexicographically. Fails on a repeated (date, asset) pair, or if fewer
    than three shared dates remain (two returns are the minimum anything
    downstream can use).
    """
    day = np.asarray(dates, dtype="datetime64[D]")
    labels, asset_index = np.unique(np.asarray(assets, dtype=str), return_inverse=True)
    bids = np.asarray(bids, dtype=float)
    asks = np.asarray(asks, dtype=float)
    if not (day.ndim == 1 and day.shape == asset_index.shape == bids.shape == asks.shape):
        raise ValueError("dates, assets, bids and asks must be 1-D and of equal length")
    days, date_index = np.unique(day, return_inverse=True)
    return _pivot(days, date_index, labels.tolist(), asset_index, bids, asks, sectors)


def _pivot(days, date_index, names, asset_index, bids, asks, sectors) -> QuotePanel:
    """``build_panel`` on quotes given as codes: row ``i`` quotes asset
    ``names[asset_index[i]]`` on ``days[date_index[i]]``, where ``days`` are
    sorted and distinct and ``names`` too."""
    d, m = len(names), days.size
    if d < 2:
        raise ValueError(f"need quotes for at least 2 assets, got {d}")
    keys = np.multiply(date_index, d, dtype=np.intp)
    keys += asset_index
    quoted = np.zeros(m * d, dtype=bool)
    quoted[keys] = True
    if np.count_nonzero(quoted) < keys.size:
        keys.sort()
        pair = keys[1:][keys[1:] == keys[:-1]][0]
        raise ValueError(
            f"duplicate (date, asset) pair ({days[pair // d]}, {names[pair % d]})"
        )
    shared = quoted.reshape(m, d).all(axis=1)
    bid_matrix, ask_matrix = np.empty((m, d)), np.empty((m, d))
    np.put(bid_matrix, keys, bids)
    np.put(ask_matrix, keys, asks)
    del keys
    if not shared.all():
        bid_matrix, ask_matrix = bid_matrix[shared], ask_matrix[shared]
    n = int(shared.sum())
    if n < 3:
        raise ValueError(f"assets share only {n} dates; at least 3 are required")
    sector_tuple = None
    if sectors is not None:
        missing = [a for a in names if a not in sectors]
        if missing:
            raise ValueError(f"sector labels missing for assets: {missing}")
        sector_tuple = tuple(sectors[a] for a in names)
    _hand_over(bid_matrix, ask_matrix)
    return QuotePanel(
        dates=tuple(days[shared].tolist()),
        assets=tuple(names),
        bids=bid_matrix,
        asks=ask_matrix,
        sectors=sector_tuple,
    )


def weekday_range(start: dt.date, count: int) -> tuple[dt.date, ...]:
    """``count`` consecutive weekdays starting at ``start`` (rolled forward
    to a weekday if needed)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return tuple(np.busday_offset(start, np.arange(count), roll="forward").tolist())


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
        for name in ("drift", "volatility", "jump_intensity", "jump_mean", "jump_stdev",
                     "cross_correlation", "spread", "start_price"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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

    # The textbook expression (tests/timeseries_oracle.py) worked in place:
    # the same draws and floating-point operations in the same order, on at
    # most four (n, d) buffers at a time.
    draws = rng.standard_normal((n, d))
    increments = draws @ chol.T
    counts = rng.poisson(config.jump_intensity, size=(n, d))
    jump_z = rng.standard_normal(out=draws)
    # Sum of k iid normal jumps has mean k * jump_mean and variance k * jump_stdev^2:
    # counts * jump_mean + sqrt(counts) * jump_stdev * jump_z
    jumps = np.sqrt(counts)
    jumps *= config.jump_stdev
    jumps *= jump_z
    jumps += np.multiply(counts, config.jump_mean, out=jump_z)
    del counts, draws, jump_z

    # drift + volatility * shocks + jumps
    increments *= config.volatility
    np.add(config.drift_vector() - 0.5 * config.volatility**2, increments, out=increments)
    increments += jumps
    del jumps
    # exp(log(start_price) + [0, cumsum(increments)]), then the quotes
    mids = np.empty((n + 1, d))
    mids[0] = 0.0
    np.cumsum(increments, axis=0, out=mids[1:])
    del increments
    mids += np.log(config.start_price)
    np.exp(mids, out=mids)
    half = 0.5 * config.spread
    asks = np.multiply(mids, 1.0 + half)
    bids = mids
    bids *= 1.0 - half
    dates = weekday_range(config.start_date, n + 1)
    assets = tuple(f"A{i:03d}" for i in range(d))
    _hand_over(bids, asks)
    return QuotePanel(dates=dates, assets=assets, bids=bids, asks=asks)


def write_csv(panel: QuotePanel, path: str | Path) -> None:
    """Write a panel as long-form CSV (one row per date and asset).

    Columns are ``date,asset,bid,ask`` plus ``sector`` when the panel
    carries sector labels; prices use shortest round-trip float text, so a
    write/load cycle reproduces the panel exactly. LF line endings, UTF-8.
    The text goes to a temporary file beside ``path``, renamed onto it only
    once complete, so a failure leaves ``path`` as it was.
    """
    path = Path(path)
    write_files(path.parent, {path.name: render_csv(panel)})


# CSV rows rendered per text block
_BLOCK_ROWS = 1 << 14


def render_csv(panel: QuotePanel) -> Iterator[str]:
    """The text of ``write_csv``: the header, then one string per block of
    dates, each rendered as it is asked for.

    Fails at the call, before rendering anything, on a label that would not
    round-trip. The blocks are rendered in two processes when two CPUs are
    usable and there are at least two blocks (see ``seqrank._fork``); the
    text is the same either way. Close the iterator when leaving it early,
    so that the forked child is reaped.
    """
    labels = panel.assets + (panel.sectors or ())
    unsafe = {label for label in labels if _UNSAFE_LABEL.search(label)} | ({""} & set(panel.assets))
    if unsafe:
        raise ValueError(
            f"labels must not contain ',', '\"', CR, LF or NUL, nor start or end with "
            f"whitespace, and asset names must not be empty: {sorted(unsafe)}"
        )
    header = list(CSV_COLUMNS) + (["sector"] if panel.sectors is not None else [])
    d = panel.n_assets
    step = max(1, _BLOCK_ROWS // d)

    def block(start: int) -> str:
        rows = slice(start, start + step)
        dates = panel.dates[rows]
        columns = [
            chain.from_iterable(repeat(day.isoformat(), d) for day in dates),
            chain.from_iterable(repeat(panel.assets, len(dates))),
            map(repr, panel.bids[rows].ravel().tolist()),
            map(repr, panel.asks[rows].ravel().tolist()),
        ]
        if panel.sectors is not None:
            columns.append(chain.from_iterable(repeat(panel.sectors, len(dates))))
        return "\n".join(map(",".join, zip(*columns))) + "\n"

    def text() -> Iterator[str]:
        yield ",".join(header) + "\n"
        yield from split_map(block, range(0, panel.n_dates, step))

    return text()


def load_csv(path: str | Path) -> QuotePanel:
    """Load a long-form quote CSV into a panel.

    Requires a header with at least ``date,asset,bid,ask``, each named
    once; ``mid`` is ignored and ``sector``, when present, must be
    consistent per asset. A leading UTF-8 byte order mark is no text, and
    lines end in LF, CRLF or a lone CR. Every row has the header's number
    of fields and no NUL character; rows whose cells are all blank are
    skipped but still counted. Dates are ``YYYY-MM-DD``. Rows for one
    asset must appear in strictly increasing date order, and a (date,
    asset) pair may appear only once. An error names the file and the
    first offending row. The file must be a regular file: a pipe or a
    device is refused with ``ValueError`` before it is opened.

    The file is read in binary blocks, parsed by ``np.loadtxt``, or by
    the ``csv`` module and ``float()`` where it reads cells unlike them:
    one block alone for a blank line or ``1_000``, the rest of the file
    from a quoted cell or a lone CR on; see ``seqrank._csvread``. The row
    checks run on the columns and report the earliest failing row.
    """
    path = Path(path)
    columns = read_columns(path)
    try:
        return _pivot(*columns)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
