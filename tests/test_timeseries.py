"""Panel construction, the generator, and CSV round trips."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqrank import (
    JumpDiffusionConfig,
    QuotePanel,
    build_panel,
    load_csv,
    simulate_jump_diffusion,
    weekday_range,
    write_csv,
)

from seqrank.timeseries import render_csv

from conftest import panel_from_mids
from timeseries_oracle import oracle_quotes


def long_form(columns: dict[str, tuple]) -> tuple[list, list, list, list]:
    """``build_panel`` arguments for assets quoted at bid = ask = a constant
    price, each on its own dates: ``{asset: (dates, price)}``."""
    rows = [(day, name, price) for name, (days, price) in columns.items() for day in days]
    dates, assets, prices = map(list, zip(*rows))
    return dates, assets, prices, prices


def weekdays_day_by_day(start, count):
    """``count`` weekdays from ``start``, rolled forward to a weekday, one calendar day at a time."""
    days, day = [], start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return tuple(days)


class TestWeekdayRange:
    @given(
        start=st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2200, 12, 31)),
        count=st.integers(min_value=1, max_value=60),
    )
    # a Saturday and a Sunday start roll forward to Monday
    @example(start=dt.date(2021, 1, 2), count=1)
    @example(start=dt.date(2021, 1, 3), count=6)
    def test_matches_day_by_day(self, start, count):
        days = weekday_range(start, count)
        assert days == weekdays_day_by_day(start, count)
        assert all(type(day) is dt.date for day in days)

    def test_paper_length_from_a_weekend(self):
        # the generator's dates at the paper's 2 500 steps
        start = dt.date(2018, 1, 6)
        assert weekday_range(start, 2501) == weekdays_day_by_day(start, 2501)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="count must be at least 1"):
            weekday_range(dt.date(2021, 1, 4), count)


class TestBuildPanel:
    def test_full_overlap(self):
        days = weekday_range(dt.date(2021, 1, 4), 5)
        panel = build_panel(*long_form({"x": (days, 10.0), "y": (days, 20.0)}))
        assert panel.n_dates == 5
        assert panel.returns.shape == (4, 2)

    def test_intersection(self):
        days = weekday_range(dt.date(2021, 1, 4), 6)
        panel = build_panel(*long_form({"a": (days[:5], 10.0), "b": (days[1:], 20.0)}))
        assert panel.dates == days[1:5]

    def test_disjoint_dates_error(self):
        d1 = weekday_range(dt.date(2021, 1, 4), 4)
        d2 = weekday_range(dt.date(2021, 2, 1), 4)
        with pytest.raises(ValueError, match="share only"):
            build_panel(*long_form({"a": (d1, 10.0), "b": (d2, 20.0)}))

    def test_too_few_shared_dates(self):
        days = weekday_range(dt.date(2021, 1, 4), 4)
        with pytest.raises(ValueError, match="at least 3"):
            build_panel(*long_form({"a": (days[:2], 10.0), "b": (days[:2], 20.0)}))

    def test_single_stream_rejected(self):
        days = weekday_range(dt.date(2021, 1, 4), 4)
        with pytest.raises(ValueError, match="at least 2 assets"):
            build_panel(*long_form({"a": (days, 10.0)}))

    def test_duplicate_pair_rejected(self):
        days = weekday_range(dt.date(2021, 1, 4), 4)
        dates, assets, bids, asks = long_form({"a": (days, 10.0), "b": (days, 20.0)})
        with pytest.raises(ValueError, match=r"duplicate \(date, asset\) pair \(2021-01-05, b\)"):
            build_panel(dates + [days[1]], assets + ["b"], bids + [20.0], asks + [20.0])

    def test_mismatched_lengths_rejected(self):
        days = weekday_range(dt.date(2021, 1, 4), 4)
        dates, assets, bids, asks = long_form({"a": (days, 10.0), "b": (days, 20.0)})
        with pytest.raises(ValueError, match="equal length"):
            build_panel(dates, assets, bids[:-1], asks)

    def test_sectors_follow_sorted_assets(self):
        days = weekday_range(dt.date(2021, 1, 4), 4)
        args = long_form({"b": (days, 10.0), "a": (days, 20.0)})
        panel = build_panel(*args, sectors={"a": "tech", "b": "energy"})
        assert panel.assets == ("a", "b")
        assert panel.sectors == ("tech", "energy")
        with pytest.raises(ValueError, match="missing"):
            build_panel(*args, sectors={"a": "tech"})

    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_order_insensitive(self, seed):
        rng = np.random.default_rng(seed)
        days = weekday_range(dt.date(2021, 1, 4), 5)
        names = ["gamma", "alpha", "beta"]
        dates = [day for _ in names for day in days]
        assets = [name for name in names for _ in days]
        bids = rng.uniform(5, 50, len(dates))
        asks = bids * 1.001
        p1 = build_panel(dates, assets, bids, asks)
        perm = rng.permutation(len(dates))
        p2 = build_panel(
            [dates[i] for i in perm], [assets[i] for i in perm], bids[perm], asks[perm]
        )
        assert p1.assets == p2.assets == ("alpha", "beta", "gamma")
        assert p1.dates == p2.dates == days
        assert np.array_equal(p1.bids, p2.bids)
        assert np.array_equal(p1.asks, p2.asks)
        assert p1.bids[2, 0] == bids[names.index("alpha") * 5 + 2]

    def test_derived_matrices_exact(self):
        mids = np.array([[10.0, 20.0], [11.0, 19.0], [12.1, 20.9]])
        panel = panel_from_mids(mids, spread=0.002)
        mids = 0.5 * (panel.bids + panel.asks)
        assert np.array_equal(panel.returns, mids[1:] / mids[:-1] - 1.0)
        assert np.array_equal(panel.half_spread_rates, 0.5 * (panel.asks - panel.bids) / mids)

    def test_panel_is_frozen(self):
        panel = panel_from_mids(np.full((3, 2), 50.0))
        with pytest.raises(ValueError):
            panel.returns[0, 0] = 1.0

    def test_arrays_stored_in_c_order(self):
        bids = np.asfortranarray(100.0 + np.arange(12.0).reshape(4, 3))
        asks = np.asfortranarray(bids * 1.002)
        assert not bids.flags.c_contiguous and not asks.flags.c_contiguous
        panel = QuotePanel(
            dates=weekday_range(dt.date(2021, 1, 4), 4), assets=("a", "b", "c"), bids=bids, asks=asks
        )
        arrays = {name: value for name, value in vars(panel).items() if isinstance(value, np.ndarray)}
        assert list(arrays) == ["bids", "asks", "returns", "half_spread_rates"]
        assert all(arr.flags.c_contiguous and not arr.flags.writeable for arr in arrays.values())
        assert np.array_equal(panel.bids, bids) and np.array_equal(panel.asks, asks)

    def test_weekday_range_skips_weekends(self):
        days = weekday_range(dt.date(2021, 1, 2), 6)  # a Saturday start rolls forward
        assert days[0] == dt.date(2021, 1, 4)
        assert all(day.weekday() < 5 for day in days)
        assert days == tuple(sorted(days))


@st.composite
def generator_configs(draw):
    """Generator settings over the whole domain: per-asset or shared
    drift, no jumps or many, correlation down to just above -1 / (d - 1)."""
    d = draw(st.integers(2, 7))
    rate = st.floats(-0.02, 0.02)
    drift = draw(st.one_of(rate, st.lists(rate, min_size=d, max_size=d).map(tuple)))
    share = draw(st.floats(-0.99, 0.99))
    return JumpDiffusionConfig(
        drift=drift,
        volatility=draw(st.floats(0.0, 0.05)),
        jump_intensity=draw(st.sampled_from([0.0, 0.03, 2.5])),
        jump_mean=draw(st.floats(-0.05, 0.05)),
        jump_stdev=draw(st.floats(0.0, 0.1)),
        n_steps=draw(st.integers(2, 60)),
        n_assets=d,
        cross_correlation=share if share >= 0.0 else share / (d - 1),
        seed=draw(st.integers(0, 2**63)),
        spread=draw(st.floats(0.0, 1.5)),
        start_price=draw(st.sampled_from([0.37, 1.0, 100.0])),
    )


class TestJumpDiffusion:
    @given(generator_configs())
    @example(JumpDiffusionConfig(
        drift=(0.01, -0.02), volatility=0.03, jump_intensity=0.0, n_steps=2, n_assets=2,
        cross_correlation=-0.8, seed=5,
    ))
    @example(JumpDiffusionConfig(
        volatility=0.012, jump_intensity=0.5, jump_mean=-0.01, jump_stdev=0.03, n_steps=40,
        n_assets=5, cross_correlation=-0.2, seed=11,
    ))
    @example(JumpDiffusionConfig(  # the paper's 250 assets
        drift=0.0002, volatility=0.012, jump_intensity=0.03, jump_mean=-0.01, jump_stdev=0.03,
        n_steps=400, n_assets=250, cross_correlation=0.25, seed=1,
    ))
    def test_matches_the_textbook_expression_bit_for_bit(self, config):
        panel = simulate_jump_diffusion(config)
        bids, asks = oracle_quotes(config)
        assert panel.bids.tobytes() == bids.tobytes()
        assert panel.asks.tobytes() == asks.tobytes()

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
        log_rets = np.log1p(panel.returns[:, 0])
        target = 0.0005 - 0.5 * 0.01**2
        stderr = 0.01 / math.sqrt(len(log_rets))
        assert abs(log_rets.mean() - target) < 3 * stderr

    def test_cross_correlation_realised(self):
        cfg = JumpDiffusionConfig(volatility=0.01, n_steps=20_000, n_assets=3,
                                  cross_correlation=0.7, seed=3)
        panel = simulate_jump_diffusion(cfg)
        log_rets = np.log1p(panel.returns)
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["drift", "volatility", "jump_intensity", "jump_mean", "jump_stdev",
         "cross_correlation", "spread", "start_price"],
    )
    def test_non_finite_parameter_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            JumpDiffusionConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_per_asset_drift_named(self, value):
        with pytest.raises(ValueError, match="^drift must be finite"):
            JumpDiffusionConfig(drift=(0.001, value, 0.0), n_assets=3)

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
        assert 0.5 * (panel.bids[0, 0] + panel.asks[0, 0]) == 10.0

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

    def test_extra_field_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,asset,bid,ask,sector\n"
            "2021-01-04,x,9.9,10.1,tech\n"
            "2021-01-04,y,19.9,20.1,energy, oil\n"
        )
        with pytest.raises(ValueError, match=r"p\.csv:3: expected 5 fields, got 6"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["energy, oil", 'say "hi"', "a\rb", "a\nb", " pad", "pad\t"])
    @pytest.mark.parametrize("field", ["assets", "sectors"])
    def test_write_rejects_labels_that_do_not_round_trip(self, tmp_path, label, field):
        panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=5, n_assets=2, seed=1))
        labels = {"assets": panel.assets, "sectors": ("tech", "energy")}
        labels[field] = (labels[field][0], label)
        labelled = type(panel)(
            dates=panel.dates, bids=panel.bids, asks=panel.asks, **labels,
        )
        with pytest.raises(ValueError, match="labels must not contain") as exc:
            write_csv(labelled, tmp_path / "p.csv")
        assert repr(label) in str(exc.value)
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("sectors", [None, ("tech", "energy")])
    def test_header_has_no_mid(self, sectors):
        panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=5, n_assets=2, seed=1))
        labelled = QuotePanel(dates=panel.dates, assets=panel.assets, bids=panel.bids,
                              asks=panel.asks, sectors=sectors)
        header = render_csv(labelled)[0]
        assert header == "date,asset,bid,ask" + (",sector" if sectors else "") + "\n"

    def test_file_with_a_mid_column_still_loads(self, tmp_path):
        rows = [
            ("2021-01-04", "x", "9.9", "10.1", "10.0", "tech"),
            ("2021-01-04", "y", "19.9", "20.1", "20.0", "energy"),
            ("2021-01-05", "x", "10.9", "11.1", "11.0", "tech"),
            ("2021-01-05", "y", "20.9", "21.1", "21.0", "energy"),
            ("2021-01-06", "x", "11.9", "12.1", "12.0", "tech"),
            ("2021-01-06", "y", "21.9", "22.1", "22.0", "energy"),
        ]
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("date,asset,bid,ask,mid,sector\n" + "".join(",".join(r) + "\n" for r in rows))
        new.write_text("date,asset,bid,ask,sector\n"
                       + "".join(",".join(r[:4] + r[5:]) + "\n" for r in rows))
        a, b = load_csv(old), load_csv(new)
        assert (a.dates, a.assets, a.sectors) == (b.dates, b.assets, b.sectors)
        for name in ("bids", "asks", "returns", "half_spread_rates"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

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
