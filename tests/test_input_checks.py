"""Input checks that no other test reaches, each through a public call.

Each case is named by the message it must raise, since line numbers move.
"""

from __future__ import annotations

import datetime as dt
import math
import warnings

import numpy as np
import pytest

from seqrank import (
    JumpDiffusionConfig,
    QuotePanel,
    adf_test,
    compute_metrics,
    levene_test,
    load_csv,
    monthly_stationarity_report,
    weekday_range,
    welch_t_test,
)
from seqrank.cli import main

from conftest import panel_from_mids


def quotes(bids, asks=None):
    """A panel over ``len(bids)`` weekdays from bid and ask matrices."""
    bids = np.asarray(bids, dtype=float)
    n, d = bids.shape
    return QuotePanel(
        dates=weekday_range(dt.date(2021, 3, 1), n),
        assets=tuple(f"A{j}" for j in range(d)),
        bids=bids,
        asks=bids if asks is None else np.asarray(asks, dtype=float),
    )


GOOD = np.array([[1.0, 2.0], [1.5, 2.5], [1.2, 2.2]])

CASES = {
    "a panel needs at least 2 assets, got 1": lambda: quotes(GOOD[:, :1]),
    "a panel needs at least 2 dates, got 1": lambda: quotes(GOOD[:1]),
    "every panel cell must hold a finite quote": lambda: quotes(np.where(GOOD == 2.5, np.inf, GOOD)),
    "bids must be positive everywhere": lambda: quotes(np.where(GOOD == 2.5, 0.0, GOOD)),
    "ask < bid somewhere in the panel": lambda: quotes(GOOD, np.where(GOOD == 2.5, 2.4, GOOD)),
    "jump_stdev must be >= 0": lambda: JumpDiffusionConfig(jump_stdev=-0.1),
    "returns contain non-finite values": lambda: compute_metrics([0.01, math.nan, 0.02]),
    "alpha must lie in (0, 1), got 1.0": lambda: levene_test([[0.0, 1.0], [1.0, 3.0]], alpha=1.0),
    "alpha is too small for a finite critical value, got 1e-20": lambda: levene_test(
        [[0.0, 1.0], [1.0, 3.0]], alpha=1e-20
    ),
    "alpha is too small for a finite one-sided critical value, got 1e-20": lambda: welch_t_test(
        [0.0, 1.0], [1.0, 3.0], alpha=1e-20
    ),
    "alpha is too small for a finite two-sided critical value, got 1.1102230246251565e-16": lambda: welch_t_test(
        [0.0, 1.0], [1.0, 3.0], alpha=2.0**-53, sidedness="two-sided"
    ),
    "alpha is too small for a finite one-sided critical value, got 5.551115123125783e-17": lambda: (
        monthly_stationarity_report(panel_from_mids(np.exp(np.cumsum(np.full((200, 2), 0.01), axis=0))),
                                    alpha=2.0**-54)
    ),
    "group 1 contains non-finite values": lambda: levene_test([[0.0, 1.0], [1.0, math.inf]]),
    "group 0 must hold at least 2 observations": lambda: levene_test([[1.0], [1.0, 2.0]]),
    "regression design is rank deficient": lambda: adf_test([1.0] * 29 + [2.0]),
    "samples contain non-finite values": lambda: welch_t_test([0.0, 1.0], [1.0, math.nan]),
    "max_shift must be at least 1": lambda: monthly_stationarity_report(
        panel_from_mids(np.exp(np.cumsum(np.full((200, 2), 0.01), axis=0))), max_shift=0
    ),
}


@pytest.mark.parametrize("message", sorted(CASES))
def test_bad_input_is_refused_by_name(message):
    with pytest.raises(ValueError) as caught:
        CASES[message]()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "cell, price, pair",
    [((1, 0), 1e308, "2021-03-01 to 2021-03-02"),  # a mid past the largest float
     ((0, 0), 1e308, "2021-03-01 to 2021-03-02"),  # the first date's: its return would read -1
     ((1, 1), 1e-308, "2021-03-02 to 2021-03-03")],  # finite mids whose ratio overflows
)
def test_a_return_that_is_not_finite_names_its_dates(cell, price, pair):
    bids = GOOD.copy()
    bids[cell] = price
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            quotes(bids)
    assert str(caught.value) == f"the mid price's return from {pair} is not finite"


def test_a_panel_file_whose_mid_overflows_names_the_file_and_dates(tmp_path):
    path = tmp_path / "p.csv"
    rows = [f"2021-03-0{day},{asset},{bid},{bid}" for day, bid in ((1, 1.0), (2, 1e308), (3, 1.0)) for asset in "xy"]
    path.write_text("\n".join(["date,asset,bid,ask", *rows]) + "\n")
    with pytest.raises(ValueError) as caught:
        load_csv(path)
    assert str(caught.value) == f"{path}: the mid price's return from 2021-03-01 to 2021-03-02 is not finite"


@pytest.mark.parametrize("sidedness, refused", [("one-sided", 2.0**-54), ("two-sided", 2.0**-53)])
def test_the_smallest_alpha_accepted_gives_finite_critical_values(sidedness, refused):
    # the largest alpha refused: 1 - its tail rounds to 1
    alpha = math.nextafter(refused, 1.0)
    a, b = [0.0, 1.0, 2.0, 3.0], [1.0, 2.5, 3.0, 5.0]
    with pytest.raises(ValueError, match="^alpha is too small"):
        welch_t_test(a, b, alpha=refused, sidedness=sidedness)
    assert math.isfinite(welch_t_test(a, b, alpha=alpha, sidedness=sidedness).critical_value)
    assert math.isfinite(levene_test([a, b], alpha=alpha).critical_value)
    rng = np.random.default_rng(3)
    mids = np.exp(np.cumsum(rng.normal(0.0, 0.01, (200, 3)), axis=0))
    report = monthly_stationarity_report(panel_from_mids(mids), max_shift=1, alpha=alpha, sidedness=sidedness)
    assert report.tested.any() and np.isfinite(report.critical_value[report.tested]).all()
    assert all(math.isfinite(asset.levene.critical_value) for asset in report.assets)


def test_an_empty_panel_file_names_the_file(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError) as caught:
        load_csv(path)
    assert str(caught.value) == f"{path}: empty file, header required"


def test_synth_refuses_a_sector_list_without_a_label(tmp_path, capsys):
    assert main(["synth", "--sectors", " , ", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: --sectors must name at least one sector\n"
    assert list(tmp_path.iterdir()) == []


def test_an_asset_with_constant_quotes_skips_its_price_unit_root_test():
    rng = np.random.default_rng(3)
    mids = np.exp(np.cumsum(rng.normal(0.0, 0.01, (200, 3)), axis=0))
    mids[:, 1] = 4.0
    report = monthly_stationarity_report(panel_from_mids(mids, spread=0.01), max_shift=1)
    assert report.skipped["adf_price"] == 1
    assert [asset.adf_price is None for asset in report.assets] == [False, True, False]


def test_an_asset_with_constant_returns_skips_its_return_unit_root_test():
    rng = np.random.default_rng(3)
    mids = np.exp(np.cumsum(rng.normal(0.0, 0.01, (200, 3)), axis=0))
    mids[:, 1] = 2.0 ** np.arange(200)  # every return exactly 1.0
    report = monthly_stationarity_report(panel_from_mids(mids), max_shift=1)
    assert report.skipped["adf_return"] == 1
    assert [asset.adf_return is None for asset in report.assets] == [False, True, False]
