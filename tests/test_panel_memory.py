"""Each panel matrix exists once, and a panel never shares a caller's array.

Budgets count matrices of ``n_dates * n_assets * 8`` bytes, as read by
``tracemalloc``, which numpy reports its array buffers to. A panel itself
holds four: bids, asks, returns and half-spread rates.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import seqrank._csvread as _csvread
import seqrank.timeseries as timeseries
from seqrank import JumpDiffusionConfig, QuotePanel, load_csv, simulate_jump_diffusion, write_csv

CONFIG = JumpDiffusionConfig(
    volatility=0.012, jump_intensity=0.03, jump_mean=-0.01, jump_stdev=0.03,
    n_steps=999, n_assets=64, cross_correlation=0.2, seed=7,
)
MATRIX = (CONFIG.n_steps + 1) * CONFIG.n_assets * 8
SECTORS = tuple(("tech", "energy", "finance")[i % 3] for i in range(CONFIG.n_assets))
FIELDS = ("bids", "asks", "returns", "half_spread_rates")
CALLER_DATES = timeseries.weekday_range(CONFIG.start_date, 6)


@pytest.fixture(scope="module", autouse=True)
def warm(tmp_path_factory):
    """Run each traced function once: a first call in a process also
    allocates one-time state (imports, numpy's caches) that is not the
    call's own."""
    path = tmp_path_factory.mktemp("warm") / "panel.csv"
    write_csv(simulate_jump_diffusion(JumpDiffusionConfig(n_steps=3, n_assets=2)), path)
    load_csv(path)


def traced(fn):
    """``fn()``, and the peak and the net memory of its call, in matrices."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - before) / MATRIX, (now - before) / MATRIX


def relabel(panel, **overrides):
    fields = dict(dates=panel.dates, assets=panel.assets, bids=panel.bids, asks=panel.asks, sectors=SECTORS)
    return QuotePanel(**{**fields, **overrides})


def test_generator_peaks_at_six_matrices():
    panel, peak, net = traced(lambda: simulate_jump_diffusion(CONFIG))
    assert peak <= 6.0, peak
    assert 3.9 < net < 4.5, net  # the panel's own four


def test_given_quotes_peak_near_the_panels_own_four(monkeypatch):
    # the copies of bids and asks, returns, rates and the mids of 64 of the 1 000 rows
    monkeypatch.setattr(timeseries, "_BLOCK_CELLS", 1 << 12)
    panel = simulate_jump_diffusion(CONFIG)
    bids, asks = panel.bids.copy(), panel.asks.copy()
    given, peak, net = traced(lambda: QuotePanel(dates=panel.dates, assets=panel.assets, bids=bids, asks=asks))
    assert peak < 4.25, peak  # 5 with a whole matrix of mids
    assert 3.9 < net < 4.1, net
    for name in FIELDS:
        assert np.array_equal(getattr(given, name), getattr(panel, name)), name


@pytest.mark.parametrize("cells", [1, 3 * 64, 999 * 64, 1 << 16])
def test_returns_and_rates_have_the_bits_of_the_whole_matrix_expressions(monkeypatch, cells):
    # blocks of 1, 3 and 999 rows leave a last block of one row, which has no return
    monkeypatch.setattr(timeseries, "_BLOCK_CELLS", cells)
    panel = simulate_jump_diffusion(CONFIG)
    mids = 0.5 * (panel.bids + panel.asks)
    for got, expected in ((panel.returns, mids[1:] / mids[:-1] - 1.0),
                          (panel.half_spread_rates, 0.5 * (panel.asks - panel.bids) / mids)):
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_relabelling_adds_no_matrix_and_shares_all_four():
    panel = simulate_jump_diffusion(CONFIG)
    labelled, peak, net = traced(lambda: relabel(panel))
    assert peak < 0.25 and net < 0.05  # the checks' boolean masks, one eighth each
    assert labelled.sectors == SECTORS
    for name in FIELDS:
        assert getattr(labelled, name) is getattr(panel, name)
    # a re-label of the re-label, with the first panel gone, still shares
    del panel
    again = relabel(labelled, sectors=None)
    assert all(np.shares_memory(getattr(again, name), getattr(labelled, name)) for name in FIELDS)


def test_a_shared_panel_is_still_checked():
    panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=5, n_assets=3, seed=1))
    with pytest.raises(ValueError, match="strictly increasing"):
        relabel(panel, dates=panel.dates[::-1], sectors=None)
    with pytest.raises(ValueError, match="must be shaped"):
        relabel(panel, assets=panel.assets[:2], sectors=None)
    with pytest.raises(ValueError, match="label every asset"):
        relabel(panel, sectors=("x",))


@pytest.mark.parametrize("shuffled", [False, True])
def test_load_csv_peaks_at_nine_matrices(tmp_path, monkeypatch, shuffled):
    # blocks of 128 KiB keep a block's share of this 3.7 MB file near that
    # of the 1 MiB blocks in the paper's 39 MB
    monkeypatch.setattr(_csvread, "_BLOCK_BYTES", 1 << 17)
    panel = relabel(simulate_jump_diffusion(CONFIG))
    path = tmp_path / "panel.csv"
    write_csv(panel, path)
    if shuffled:  # the assets of each date in another order: rows are placed one by one
        header, *rows = path.read_text().splitlines(keepends=True)
        rng = np.random.default_rng(0)
        days = np.array(rows, dtype=object).reshape(panel.n_dates, panel.n_assets)
        path.write_text(header + "".join(rng.permuted(days, axis=1).ravel()))
    loaded, peak, _ = traced(lambda: load_csv(path))
    # the loader needs 8.3 in both row orders; one that keeps its two
    # looked-ahead chunks alive for the whole load needs 9.9
    assert peak <= 9.0, peak
    assert loaded.sectors == SECTORS
    assert all(np.array_equal(getattr(loaded, name), getattr(panel, name)) for name in FIELDS)


def caller_quotes(kind: str):
    """Quotes as a caller might pass them, and a function that then
    overwrites the caller's memory behind them."""
    base = 100.0 + np.arange(24.0).reshape(6, 4)
    if kind == "writeable":
        bids = base.copy()
        return bids, lambda: bids.fill(1.0)
    if kind == "read-only":
        view = base.view()
        view.setflags(write=False)
        return view, lambda: base.fill(1.0)
    if kind == "non-contiguous":
        wide = np.repeat(base, 2, axis=1)
        return wide[:, ::2], lambda: wide.fill(1.0)
    if kind == "float32":
        single = base.astype(np.float32)
        return single, lambda: single.fill(1.0)
    rows = base.tolist()
    return rows, lambda: rows[0].__setitem__(0, 1.0)


@pytest.mark.parametrize("kind", ["writeable", "read-only", "non-contiguous", "float32", "list"])
def test_caller_arrays_are_copied(kind):
    bids, overwrite = caller_quotes(kind)
    asks = np.array(bids, dtype=float) * 1.01
    panel = QuotePanel(dates=CALLER_DATES, assets=("a", "b", "c", "d"), bids=bids, asks=asks)
    # a panel made from the same caller arrays again copies them again
    assert panel.bids is not QuotePanel(dates=CALLER_DATES, assets=panel.assets, bids=bids, asks=asks).bids
    saved = {name: getattr(panel, name).copy() for name in FIELDS}
    overwrite()
    asks.fill(2.0)
    for name in FIELDS:
        assert np.array_equal(getattr(panel, name), saved[name]), name
        assert not getattr(panel, name).flags.writeable
    if isinstance(bids, np.ndarray):
        assert not np.shares_memory(panel.bids, bids)


def test_quotes_from_two_panels_are_copied_and_derived_again():
    first = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=20, n_assets=3, seed=1))
    # the same mids with a wider spread
    second = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=20, n_assets=3, seed=1, spread=0.01))
    mixed = QuotePanel(dates=first.dates, assets=first.assets, bids=first.bids, asks=second.asks)
    for name in FIELDS:
        assert not np.shares_memory(getattr(mixed, name), getattr(first, name)), name
        assert not np.shares_memory(getattr(mixed, name), getattr(second, name)), name
    assert np.array_equal(mixed.bids, first.bids) and np.array_equal(mixed.asks, second.asks)
    mids = 0.5 * (first.bids + second.asks)
    assert np.array_equal(mixed.returns, mids[1:] / mids[:-1] - 1.0)
    assert np.array_equal(mixed.half_spread_rates, 0.5 * (second.asks - first.bids) / mids)


def test_write_csv_failing_partway_leaves_no_file(tmp_path, monkeypatch):
    panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=999, n_assets=64, seed=3))
    blocks = list(timeseries.render_csv(panel))
    assert len(blocks) > 3 and "".join(blocks).count("\n") == 1 + panel.n_dates * panel.n_assets

    def failing(panel):
        yield from blocks[:3]
        raise RuntimeError("rendering failed")

    monkeypatch.setattr(timeseries, "render_csv", failing)
    with pytest.raises(RuntimeError, match="rendering failed"):
        write_csv(panel, tmp_path / "p.csv")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "p.csv").write_text("old")
    with pytest.raises(RuntimeError, match="rendering failed"):
        write_csv(panel, tmp_path / "p.csv")
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]
    assert (tmp_path / "p.csv").read_text() == "old"
