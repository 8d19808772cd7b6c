"""Quote arithmetic, panel construction, the generator, and CSV round trips."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqrank import (
    JumpDiffusionConfig,
    Quote,
    build_panel,
    half_spread_rate,
    load_csv,
    mid_price,
    simulate_jump_diffusion,
    weekday_range,
    write_csv,
)

from conftest import panel_from_mids

prices = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestQuoteArithmetic:
    def test_mid_zero_spread(self):
        assert mid_price(100.0, 100.0) == 100.0

    def test_mid_symmetric_spread(self):
        assert mid_price(99.0, 101.0) == 100.0

    def test_mid_direct(self):
        assert mid_price(10.2, 10.4) == pytest.approx(10.3, abs=1e-12)

    @pytest.mark.parametrize("bid,ask", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_mid_domain(self, bid, ask):
        with pytest.raises(ValueError):
            mid_price(bid, ask)

    def test_half_spread_examples(self):
        assert half_spread_rate(100.0, 100.0) == 0.0
        assert half_spread_rate(99.0, 101.0) == pytest.approx(0.01, abs=1e-15)
        assert half_spread_rate(10.2, 10.4) == pytest.approx(0.5 * 0.2 / 10.3, abs=1e-12)

    @given(bid=prices, widen=st.floats(min_value=0, max_value=0.5))
    def test_bid_mid_ask_ordering(self, bid, widen):
        ask = bid * (1.0 + widen)
        mid = mid_price(bid, ask)
        assert bid <= mid <= ask
        assert half_spread_rate(bid, ask) >= 0.0


def quotes_for(dates, price):
    return [Quote(date=day, bid=price, ask=price) for day in dates]


class TestBuildPanel:
    def test_full_overlap(self):
        days = weekday_range(dt.date(2021, 1, 4), 5)
        panel = build_panel({"x": quotes_for(days, 10.0), "y": quotes_for(days, 20.0)})
        assert panel.n_dates == 5
        assert panel.returns.shape == (4, 2)

    def test_intersection(self):
        days = weekday_range(dt.date(2021, 1, 4), 6)
        streams = {"a": quotes_for(days[:5], 10.0), "b": quotes_for(days[1:], 20.0)}
        panel = build_panel(streams)
        assert panel.dates == days[1:5]

    def test_disjoint_dates_error(self):
        d1 = weekday_range(dt.date(2021, 1, 4), 4)
        d2 = weekday_range(dt.date(2021, 2, 1), 4)
        with pytest.raises(ValueError, match="share only"):
            build_panel({"a": quotes_for(d1, 10.0), "b": quotes_for(d2, 20.0)})

    def test_too_few_shared_dates(self):
        days = weekday_range(dt.date(2021, 1, 4), 4)
        with pytest.raises(ValueError, match="at least 3"):
            build_panel({"a": quotes_for(days[:2], 10.0), "b": quotes_for(days[:2], 20.0)})

    def test_single_stream_rejected(self):
        days = weekday_range(dt.date(2021, 1, 4), 4)
        with pytest.raises(ValueError):
            build_panel({"a": quotes_for(days, 10.0)})

    def test_unsorted_stream_rejected(self):
        days = weekday_range(dt.date(2021, 1, 4), 4)
        scrambled = quotes_for([days[1], days[0], days[2], days[3]], 10.0)
        with pytest.raises(ValueError, match="date-sorted"):
            build_panel({"a": scrambled, "b": quotes_for(days, 20.0)})

    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_order_insensitive(self, seed):
        rng = np.random.default_rng(seed)
        days = weekday_range(dt.date(2021, 1, 4), 5)
        streams = {
            name: [
                Quote(date=day, bid=b, ask=b * 1.001)
                for day, b in zip(days, rng.uniform(5, 50, len(days)))
            ]
            for name in ("gamma", "alpha", "beta")
        }
        names = list(streams)
        rng.shuffle(names)
        p1 = build_panel(streams)
        p2 = build_panel({n: streams[n] for n in names})
        assert p1.assets == p2.assets
        assert np.array_equal(p1.bids, p2.bids)
        assert np.array_equal(p1.asks, p2.asks)

    def test_derived_matrices_exact(self):
        mids = np.array([[10.0, 20.0], [11.0, 19.0], [12.1, 20.9]])
        panel = panel_from_mids(mids, spread=0.002)
        assert np.array_equal(panel.mids, 0.5 * (panel.bids + panel.asks))
        assert np.array_equal(panel.returns, panel.mids[1:] / panel.mids[:-1] - 1.0)

    def test_panel_is_frozen(self):
        panel = panel_from_mids(np.full((3, 2), 50.0))
        with pytest.raises(ValueError):
            panel.mids[0, 0] = 1.0

    def test_weekday_range_skips_weekends(self):
        days = weekday_range(dt.date(2021, 1, 2), 6)  # a Saturday start rolls forward
        assert days[0] == dt.date(2021, 1, 4)
        assert all(day.weekday() < 5 for day in days)
        assert days == tuple(sorted(days))


class TestJumpDiffusion:
    def test_deterministic_exponential_path(self):
        cfg = JumpDiffusionConfig(drift=0.002, volatility=0.0, n_steps=50, n_assets=3, seed=4)
        panel = simulate_jump_diffusion(cfg)
        expected = math.exp(0.002) - 1.0
        assert np.allclose(panel.returns, expected, atol=1e-12)

    def test_zero_noise_returns_constant_over_time(self):
        cfg = JumpDiffusionConfig(
            drift=(0.001, -0.002), volatility=0.0, n_steps=30, n_assets=2, seed=0
        )
        panel = simulate_jump_diffusion(cfg)
        assert np.allclose(panel.returns, panel.returns[0], atol=1e-12)

    def test_same_seed_bit_identical(self):
        cfg = JumpDiffusionConfig(
            volatility=0.02, jump_intensity=0.1, jump_mean=-0.01, jump_stdev=0.05,
            n_steps=200, n_assets=4, cross_correlation=0.4, seed=99,
        )
        a = simulate_jump_diffusion(cfg)
        b = simulate_jump_diffusion(cfg)
        assert a.dates == b.dates
        assert np.array_equal(a.bids, b.bids)
        assert np.array_equal(a.asks, b.asks)

    def test_log_return_mean_matches_drift(self):
        cfg = JumpDiffusionConfig(drift=0.0005, volatility=0.01, n_steps=100_000, n_assets=2, seed=12)
        panel = simulate_jump_diffusion(cfg)
        log_rets = np.diff(np.log(panel.mids[:, 0]))
        target = 0.0005 - 0.5 * 0.01**2
        stderr = 0.01 / math.sqrt(len(log_rets))
        assert abs(log_rets.mean() - target) < 3 * stderr

    def test_cross_correlation_realised(self):
        cfg = JumpDiffusionConfig(volatility=0.01, n_steps=20_000, n_assets=3,
                                  cross_correlation=0.7, seed=3)
        panel = simulate_jump_diffusion(cfg)
        log_rets = np.diff(np.log(panel.mids), axis=0)
        corr = np.corrcoef(log_rets.T)
        off_diag = corr[np.triu_indices(3, k=1)]
        assert np.all(np.abs(off_diag - 0.7) < 0.05)

    def test_spread_sets_quotes_symmetrically(self):
        cfg = JumpDiffusionConfig(n_steps=10, n_assets=2, seed=0, spread=0.002)
        panel = simulate_jump_diffusion(cfg)
        assert np.allclose(panel.half_spread_rates, 0.001, atol=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_assets": 1},
            {"volatility": -0.1},
            {"jump_intensity": -1.0},
            {"cross_correlation": 1.5},
            {"spread": -0.01},
            {"n_steps": 1},
            {"start_price": 0.0},
            {"drift": (0.1, 0.2, 0.3), "n_assets": 2},
        ],
    )
    def test_config_domain(self, kwargs):
        with pytest.raises(ValueError):
            JumpDiffusionConfig(**kwargs)

    def test_negative_correlation_psd_guard(self):
        cfg = JumpDiffusionConfig(n_assets=5, n_steps=10, cross_correlation=-0.5, seed=0)
        with pytest.raises(ValueError, match="positive definite"):
            simulate_jump_diffusion(cfg)


class TestCsv:
    def test_round_trip(self, tmp_path):
        cfg = JumpDiffusionConfig(volatility=0.015, jump_intensity=0.05, jump_stdev=0.02,
                                  n_steps=40, n_assets=3, seed=8)
        panel = simulate_jump_diffusion(cfg)
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        loaded = load_csv(path)
        assert loaded.dates == panel.dates
        assert loaded.assets == panel.assets
        assert np.abs(loaded.bids - panel.bids).max() < 1e-9
        assert np.array_equal(loaded.bids, panel.bids)
        assert np.array_equal(loaded.asks, panel.asks)

    def test_small_well_formed_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,asset,bid,ask\n"
            "2021-01-04,x,9.9,10.1\n"
            "2021-01-04,y,19.9,20.1\n"
            "2021-01-05,x,10.9,11.1\n"
            "2021-01-05,y,20.9,21.1\n"
            "2021-01-06,x,11.9,12.1\n"
            "2021-01-06,y,21.9,22.1\n"
        )
        panel = load_csv(path)
        assert panel.assets == ("x", "y")
        assert panel.mids[0, 0] == 10.0

    def test_crossed_quote_names_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,asset,bid,ask\n"
            "2021-01-04,x,9.9,10.1\n"
            "2021-01-04,y,20.5,20.1\n"
        )
        with pytest.raises(ValueError, match=r":3:"):
            load_csv(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,asset,bid,ask\n"
            "2021-01-04,x,9.9,10.1\n"
            "2021-01-04,x,9.9,10.1\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path)

    def test_non_monotone_dates_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,asset,bid,ask\n"
            "2021-01-05,x,9.9,10.1\n"
            "2021-01-04,x,9.9,10.1\n"
        )
        with pytest.raises(ValueError, match="not increasing"):
            load_csv(path)

    def test_missing_header_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,asset,bid\n2021-01-04,x,9.9\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_sector_column_round_trip(self, tmp_path):
        panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=5, n_assets=2, seed=1))
        labelled = type(panel)(
            dates=panel.dates, assets=panel.assets, bids=panel.bids, asks=panel.asks,
            sectors=("tech", "energy"),
        )
        path = tmp_path / "p.csv"
        write_csv(labelled, path)
        loaded = load_csv(path)
        assert loaded.sectors == ("tech", "energy")
