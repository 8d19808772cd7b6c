"""Unit-root, variance and mean tests plus the monthly report machinery."""

import dataclasses
import datetime as dt
import inspect
import json
import math
import warnings
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special as special
from hypothesis import example, given
from hypothesis import strategies as st

from seqrank import (
    DegenerateDataError,
    JumpDiffusionConfig,
    adf_test,
    levene_test,
    monthly_stationarity_report,
    simulate_jump_diffusion,
    welch_t_test,
)
from seqrank import stats
from seqrank.cli import json_chunks
from seqrank.stats import SIDEDNESS_VALUES, render_report_table
import stats_oracle as oracle

def written(report) -> dict:
    """The report's text as the writer makes it, parsed."""
    return json.loads("".join(json_chunks(report.json_pieces)))


sample = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=5, max_size=40
)


class TestAdf:
    def test_tstat_matches_manual_ols(self):
        rng = np.random.default_rng(0)
        y = np.cumsum(rng.normal(size=200))
        result = adf_test(y)
        # independent route: explicit normal equations
        dy = np.diff(y)
        X = np.column_stack([np.ones(len(dy)), y[:-1]])
        coef = np.linalg.solve(X.T @ X, X.T @ dy)
        resid = dy - X @ coef
        sigma2 = resid @ resid / (len(dy) - 2)
        se = np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
        assert result.t_stat == pytest.approx(coef[1] / se, rel=1e-9)
        assert result.theta0 == pytest.approx(coef[0], rel=1e-9)

    def test_stationary_series_rejects(self):
        rng = np.random.default_rng(5)
        y = np.zeros(500)
        for t in range(1, 500):
            y[t] = 0.5 * y[t - 1] + rng.normal()
        result = adf_test(y)
        assert result.reject_unit_root[0.05]
        assert result.reject_unit_root[0.01]

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        y = np.cumsum(rng.normal(size=300)) + 50.0
        t1 = adf_test(y).t_stat
        t2 = adf_test(1000.0 * y).t_stat
        assert t1 == pytest.approx(t2, abs=1e-9)

    def test_reject_consistent_with_critical_values(self):
        rng = np.random.default_rng(2)
        y = np.cumsum(rng.normal(size=120))
        result = adf_test(y)
        for alpha, cv in result.critical_values.items():
            assert result.reject_unit_root[alpha] == (result.t_stat < cv)
        assert result.critical_values[0.01] < result.critical_values[0.05]
        assert result.critical_values[0.05] < result.critical_values[0.10]

    def test_asymptotic_critical_values(self):
        rng = np.random.default_rng(4)
        y = np.cumsum(rng.normal(size=100_000))
        cvs = adf_test(y).critical_values
        assert cvs[0.01] == pytest.approx(-3.43, abs=0.01)
        assert cvs[0.05] == pytest.approx(-2.86, abs=0.01)
        assert cvs[0.10] == pytest.approx(-2.57, abs=0.01)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateDataError):
            adf_test(np.full(50, 3.0))

    def test_linear_trend_degenerate(self):
        with pytest.raises(DegenerateDataError):
            adf_test(np.arange(50, dtype=float))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            adf_test(np.arange(10, dtype=float) ** 2)

    @pytest.mark.parametrize(
        "series,message",
        [(np.ones((30, 2)), "one-dimensional"),
         (np.r_[np.arange(29.0) ** 2, np.nan], "non-finite"),
         (np.r_[np.arange(29.0) ** 2, np.inf], "non-finite")],
        ids=["two-dimensional", "nan", "inf"],
    )
    def test_bad_series_rejected(self, series, message):
        with pytest.raises(ValueError, match=message):
            adf_test(series)

    def test_reports_the_three_levels(self):
        y = np.cumsum(np.random.default_rng(7).normal(size=80))
        result = adf_test(y)
        assert tuple(result.critical_values) == (0.01, 0.05, 0.10)
        assert tuple(result.reject_unit_root) == (0.01, 0.05, 0.10)
        assert result.nobs == 79

    @pytest.mark.parametrize("alpha,asymptotic", [(0.01, -3.43035), (0.05, -2.86154),
                                                  (0.10, -2.56677)])
    def test_short_series_widen_critical_values(self, alpha, asymptotic):
        # the finite-sample terms push a short series' critical value further
        # below the asymptotic one, and less so as the series grows
        rng = np.random.default_rng(8)
        cvs = [adf_test(np.cumsum(rng.normal(size=n))).critical_values[alpha]
               for n in (20, 60, 500)]
        assert cvs[0] < cvs[1] < cvs[2] < asymptotic


class TestLevene:
    def test_identical_groups_w_zero(self):
        g = [1.0, 2.0, 3.0, 4.0]
        result = levene_test([g, list(g)])
        assert result.w_stat == pytest.approx(0.0, abs=1e-12)
        assert not result.reject

    def test_unequal_spread_rejects(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 50)
        b = rng.normal(0, 5, 50)
        result = levene_test([a, b], alpha=0.05)
        assert result.reject
        assert result.dof_between == 1
        assert result.dof_within == 98

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        groups = [rng.normal(0, s, 30) for s in (1.0, 2.0)]
        w1 = levene_test(groups).w_stat
        w2 = levene_test([g + 123.0 for g in groups]).w_stat
        assert w1 == pytest.approx(w2, rel=1e-9)

    def test_all_constant_groups_degenerate(self):
        with pytest.raises(DegenerateDataError):
            levene_test([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])

    def test_subnormal_within_variance_degenerate(self):
        # the within-group sum of squares is subnormal, so W overflows to inf,
        # which a strict JSON writer refuses
        with pytest.raises(DegenerateDataError):
            levene_test([[0.0, 2.0], [1.0, 5.0], [0.0, 0.0, 3e-160]])

    @given(groups=st.lists(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                                    min_size=2, max_size=30), min_size=2, max_size=8))
    @example(groups=[[0.0, 2.0], [1.0, 5.0], [0.0, 0.0, 3e-160]])
    @example(groups=[[2.0, 2.0, 2.0], [-1.0, -1.0]])
    # nine groups: numpy's pairwise sum of the within-group sums is not the left fold
    @example(groups=[[-0.4, -1.09, -1.36, 0.22], [1.17, 0.72], [-2.0, 0.27, -1.1, 0.03],
                     [-1.99, -0.23], [-0.26, 0.96, -1.18], [-1.1, -0.33, -0.84],
                     [1.45, 0.57, 2.43], [0.84, 0.84], [-0.61, -0.07, 1.35, -0.4]])
    def test_matches_per_group_oracle(self, groups):
        expected = oracle.levene_w(groups)
        if not math.isfinite(expected):
            with pytest.raises(DegenerateDataError):
                levene_test(groups)
            return
        assert same_bits(levene_test(groups).w_stat, expected)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            levene_test([[1.0, 2.0]])
        with pytest.raises(ValueError):
            levene_test([[1.0], [2.0, 3.0]])


class TestWelch:
    def test_identical_samples(self):
        a = [1.0, 2.0, 3.0, 5.0]
        result = welch_t_test(a, list(a))
        assert result.t_stat == pytest.approx(0.0, abs=1e-12)
        assert not result.reject

    def test_equal_variance_dof(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=21)
        b = a + 5.0  # identical sample variance, shifted mean
        result = welch_t_test(a, b)
        assert result.dof == pytest.approx(40.0, abs=1e-9)

    @given(a=sample, b=sample)
    # the variances are non-zero but their squares underflow in the dof denominator
    @example(a=[0.0] * 5, b=[0.0] * 4 + [3.285107521708261e-98])
    def test_antisymmetry(self, a, b):
        try:
            fwd = welch_t_test(a, b)
            rev = welch_t_test(b, a)
        except DegenerateDataError:
            return
        assert fwd.t_stat == pytest.approx(-rev.t_stat, abs=1e-9)
        assert fwd.dof == pytest.approx(rev.dof, rel=1e-12)
        assert fwd.dof >= min(len(a), len(b)) - 1 - 1e-9
        assert fwd.dof <= len(a) + len(b) - 2 + 1e-9

    @given(a=sample, b=sample)
    @example(a=[0.0] * 5, b=[0.0] * 4 + [3.285107521708261e-98])
    # squaring with numpy's a * a instead of Python's a ** 2 moves these dofs by one or two
    # ulps: the first through (v / n) ** 2, the second through se2 ** 2
    @example(a=[0.598, -0.343, -0.889, -0.085, 0.203], b=[0.958, 0.402, -0.56, 0.099, -0.925])
    @example(a=[-0.64, 0.69, -0.08, -0.6, -1.46], b=[1.13, 5.3, 0.41, 0.12, -0.31])
    # the squares overflow in the dof: of a variance share, of the summed
    # shares' squares, and of the summed shares alone
    @example(a=[0.0, 2e100, 1.0], b=[0.0, 1.0, 2.0])
    @example(a=[0.0, 2e77], b=[0.0, 2e77])
    @example(a=[3.4e77, -3.4e77] * 5 + [0.0], b=[3.4e77, -3.4e77] * 5 + [0.0])
    def test_matches_scalar_oracle(self, a, b):
        expected = oracle.welch(a, b)
        if expected is None:
            with pytest.raises(DegenerateDataError):
                welch_t_test(a, b)
            return
        result = welch_t_test(a, b)
        assert same_bits(result.t_stat, expected[0])
        assert same_bits(result.dof, expected[1])

    def test_one_sided_uses_looser_gate(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        one = welch_t_test(a, b, sidedness="one-sided")
        two = welch_t_test(a, b, sidedness="two-sided")
        assert one.critical_value < two.critical_value
        assert one.t_stat == two.t_stat

    def test_critical_value_scale_for_table_dof(self):
        # at ~35 dof the one-tailed 5% quantile sits near 1.69
        rng = np.random.default_rng(6)
        a = rng.normal(size=21)
        b = rng.normal(size=21)
        result = welch_t_test(a, b, alpha=0.05, sidedness="one-sided")
        assert 1.68 < result.critical_value < 1.73

    @pytest.mark.parametrize(
        "a,b",
        [
            ([0.0, 2e100, 1.0], [0.0, 1.0, 2.0]),
            ([0.0, 2e77], [0.0, 2e77]),
            ([3.4e77, -3.4e77] * 5 + [0.0], [3.4e77, -3.4e77] * 5 + [0.0]),
        ],
        ids=["share-squared", "summed-squares", "summed-shares-squared"],
    )
    def test_overflowing_squares_degenerate(self, a, b):
        # finite samples whose dof squares overflow: undefined, like underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="overflow"):
                welch_t_test(a, b)

    def test_constant_equal_samples_degenerate(self):
        with pytest.raises(DegenerateDataError):
            welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_t_test([1.0, 2.0], [1.0, 2.0], sidedness="sideways")
        with pytest.raises(ValueError):
            welch_t_test([1.0, 2.0], [1.0, 2.0], alpha=1.5)
        with pytest.raises(ValueError, match="one-dimensional"):
            welch_t_test([[1.0, 2.0, 3.0], [4.0, 5.0, 9.0]], [[1.0, 2.0, 3.0], [1.0, 2.0, 3.5]])
        with pytest.raises(ValueError, match="one-dimensional"):
            welch_t_test(1.0, [1.0, 2.0])


@pytest.fixture(scope="module")
def panel():
    cfg = JumpDiffusionConfig(drift=0.0003, volatility=0.012, n_steps=500,
                              n_assets=4, seed=17)
    return simulate_jump_diffusion(cfg)


report_dofs = st.lists(st.floats(min_value=1.0, max_value=60.0) | st.sampled_from([1.0, 2.0, 60.0]),
                       min_size=1, max_size=40)


def assert_matches_scipy(ours, ref, cdf, p, rel):
    """Each quantile within ``rel`` relative of scipy's, or 1e-15 absolute,
    or the same infinity. The absolute floor serves quantiles near 0, which
    the rounding of ``p`` alone moves by about 3e-16.

    Where they differ by more, though by no more than ten times that,
    scipy's own CDF, ``cdf(mask, x)`` for the entries in ``mask``, must put
    ours at least as close to ``p`` as scipy's quantile: near 3 dof and
    tails near 0.2 ``stdtrit`` is off by up to 5e-13, and ``fdtri`` by
    3e-13 at some dof past 10^4, where mpmath at 40 digits agrees with ours
    to 2e-15.
    """
    ours, ref = np.atleast_1d(ours), np.atleast_1d(ref)
    assert not np.isnan(ours).any() and np.isclose(ours, ref, rtol=10 * rel, atol=1e-15).all(), (ours, ref)
    missed = ~np.isclose(ours, ref, rtol=rel, atol=1e-15)
    ours_off, ref_off = np.abs(cdf(missed, ours[missed]) - p), np.abs(cdf(missed, ref[missed]) - p)
    assert (ours_off <= ref_off).all(), (ours[missed], ref[missed])


class TestQuantiles:
    """The t and F quantiles against ``scipy.special.stdtrit`` and ``fdtri``."""

    @staticmethod
    def t_matches(dof, p, rel):
        dof = np.array(dof)
        ours = stats._t_quantile(dof, p)
        assert_matches_scipy(ours, special.stdtrit(dof, p), lambda m, t: special.stdtr(dof[m], t), p, rel)

    @given(dof=report_dofs, alpha=st.floats(min_value=1e-3, max_value=0.5),
           sidedness=st.sampled_from(SIDEDNESS_VALUES))
    # stdtrit's own misses, of 1e-13 to 5e-13
    @example(dof=[2.9225, 2.7736189415208403, 2.8174223418442192], alpha=0.4175, sidedness="two-sided")
    @example(dof=[1.0, 1.5, 44.0, 60.0], alpha=1e-3, sidedness="two-sided")
    @example(dof=[1.0, 30.0], alpha=0.5, sidedness="one-sided")
    @example(dof=[1.0, 30.0], alpha=0.4999999, sidedness="one-sided")
    def test_t_within_1e_13_over_the_report_dof(self, dof, alpha, sidedness):
        # a month holds at most 31 returns, so a Welch dof lies in [1, 60]
        self.t_matches(dof, 1.0 - stats._tail(alpha, sidedness), 1e-13)

    @given(dof=report_dofs, alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           sidedness=st.sampled_from(SIDEDNESS_VALUES))
    @example(dof=[1.0, 7.5], alpha=1e-300, sidedness="two-sided")
    @example(dof=[1.0, 7.5], alpha=0.999999, sidedness="one-sided")
    # p = 0.5 + 2^-53: stdtrit reads 5.05e-16 at 1 dof, where tan(pi * 2^-53) is 3.49e-16
    @example(dof=[1.0], alpha=0.9999999999999998, sidedness="two-sided")
    def test_t_within_the_benchmark_tolerance_at_every_cli_alpha(self, dof, alpha, sidedness):
        self.t_matches(dof, 1.0 - stats._tail(alpha, sidedness), 1e-9)

    @given(dfn=st.integers(1, 500), extra=st.integers(1, 100_000),
           alpha=st.floats(min_value=1e-3, max_value=0.5))
    # fdtri's own miss, of 3.2e-13
    @example(dfn=16, extra=99_850, alpha=0.41413097196006254)
    @example(dfn=1, extra=99_999, alpha=1e-3)
    @example(dfn=500, extra=1, alpha=1e-3)
    def test_f_within_1e_13(self, dfn, extra, alpha):
        dfd = min(dfn + extra, 100_000)
        ours = stats._f_quantile(dfn, dfd, 1.0 - alpha)
        assert_matches_scipy(ours, special.fdtri(dfn, dfd, 1.0 - alpha),
                             lambda m, f: special.fdtr(dfn, dfd, f), 1.0 - alpha, 1e-13)

    @given(dfn=st.integers(1, 500), extra=st.integers(1, 100_000),
           alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(dfn=3, extra=5, alpha=1e-300)
    def test_f_within_the_benchmark_tolerance_at_every_cli_alpha(self, dfn, extra, alpha):
        dfd = min(dfn + extra, 100_000)
        ours = stats._f_quantile(dfn, dfd, 1.0 - alpha)
        assert_matches_scipy(ours, special.fdtri(dfn, dfd, 1.0 - alpha),
                             lambda m, f: special.fdtr(dfn, dfd, f), 1.0 - alpha, 1e-9)

    def test_edges(self):
        t = stats._t_quantile(np.array([np.nan, 1.0, 30.0]), 0.5)
        assert np.isnan(t[0]) and t[1:].tolist() == [0.0, 0.0] and math.copysign(1.0, t[1]) == 1.0
        assert stats._t_quantile(np.array([np.nan, 3.0]), 1.0).tolist()[1] == math.inf
        assert stats._t_quantile(np.array([3.0]), 0.25)[0] == -stats._t_quantile(np.array([3.0]), 0.75)[0]
        assert stats._f_quantile(3, 10, 1.0) == math.inf

    def test_untested_pairs_read_nan(self):
        months = [[0.25] * 12, [0.01 * k for k in range(12)]] * 4
        report = monthly_stationarity_report(stand_in_panel(months), max_shift=2, min_month_obs=12)
        assert (~report.tested).any() and report.tested.any()
        assert np.isnan(report.critical_value[~report.tested]).all()
        assert np.isfinite(report.critical_value[report.tested]).all()


class TestMonthlyReport:

    def test_shapes_and_ranges(self, panel):
        report = monthly_stationarity_report(panel, max_shift=3, alpha=0.05)
        assert len(report.rejection_by_shift) == 3
        assert [s.shift for s in report.rejection_by_shift] == [1, 2, 3]
        for item in report.rejection_by_shift:
            assert 0.0 <= item.frequency <= 1.0
        assert len(report.assets) == panel.n_assets
        assert np.all(report.counts >= 12)

    def test_random_walk_prices_stationary_returns(self, panel):
        report = monthly_stationarity_report(panel, max_shift=2)
        assert report.price_nonstationary_fraction >= 0.75
        assert report.return_stationary_fraction == 1.0

    def test_span_precondition(self, panel):
        with pytest.raises(ValueError, match="calendar months"):
            monthly_stationarity_report(panel, max_shift=40)

    def test_json_serialisable(self, panel):
        report = monthly_stationarity_report(panel, max_shift=2)
        text = "".join(json_chunks(report.json_pieces))
        assert '"rejection_by_shift"' in text and json.loads(text)

    def test_report_settings_written_once(self, panel):
        payload = written(monthly_stationarity_report(panel, max_shift=2, sidedness="one-sided"))
        assert (payload["alpha"], payload["sidedness"]) == (0.05, "one-sided")
        rows = [row for asset in payload["assets"] for row in asset["t_tests"]]
        assert rows and all(
            set(row) == {"shift", "month", "prior_month", "t_stat", "dof", "critical_value", "reject"}
            for row in rows
        )
        levene = [asset["levene"] for asset in payload["assets"]]
        assert all(block is not None and "alpha" not in block for block in levene)

    def test_price_unit_root_test_reads_the_mid(self, panel):
        report = monthly_stationarity_report(panel, max_shift=2)
        for j, diag in enumerate(report.assets):
            expected = adf_test(0.5 * (panel.bids[:, j] + panel.asks[:, j]))
            assert diag.adf_price == expected

    def test_table_renders(self, panel):
        report = monthly_stationarity_report(panel, max_shift=2)
        table = render_report_table(report)
        for row in ("count", "mean", "std", "min", "25%", "50%", "75%", "max"):
            assert row in table
        assert "test stat" in table and "reject H0" in table

    def test_a_table_column_with_no_values_counts_zero(self, panel):
        # no month holds 100 returns, so no group is kept and no pair tested
        report = monthly_stationarity_report(panel, max_shift=1, min_month_obs=100)
        lines = render_report_table(report).splitlines()
        assert lines[2].split() == ["count"] + ["0"] * 7
        assert all(line.split()[1:] == ["nan"] * 7 for line in lines[3:10])

    def test_min_month_obs_excludes_short_months(self, panel):
        report = monthly_stationarity_report(panel, max_shift=2, min_month_obs=21)
        assert np.all(report.counts >= 21)

    def test_min_month_obs_below_two_rejected(self, panel):
        # a one-return month has no sample variance
        with pytest.raises(ValueError, match="min_month_obs"):
            monthly_stationarity_report(panel, max_shift=2, min_month_obs=1)

    @staticmethod
    def patch_every_helper(monkeypatch):
        """Make every function of ``seqrank.stats`` that the report could
        call, public or private, fail when called."""
        def no_test(*args, **kwargs):
            raise AssertionError("a test ran before alpha was checked")

        for name, value in vars(stats).items():
            if (inspect.isfunction(value) and value.__module__ == stats.__name__
                    and name not in ("monthly_stationarity_report", "_check_alpha_and_sidedness")):
                monkeypatch.setattr(stats, name, no_test)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_alpha_rejected_before_any_test(self, panel, monkeypatch, alpha):
        self.patch_every_helper(monkeypatch)
        with pytest.raises(ValueError, match="alpha"):
            monthly_stationarity_report(panel, max_shift=2, alpha=alpha)

    def test_patched_helpers_are_the_ones_the_report_calls(self, panel, monkeypatch):
        # with a valid alpha the same patches stop the report, so the test
        # above would see a helper that ran before the check
        self.patch_every_helper(monkeypatch)
        with pytest.raises(AssertionError, match="before alpha was checked"):
            monthly_stationarity_report(panel, max_shift=2, alpha=0.05)


def stand_in_panel(months: list[list[float]]) -> SimpleNamespace:
    """Two-asset panel-like object whose returns are ``months`` (asset A) and
    each month reversed (asset B), on dates from January 2019.

    The report reads only ``dates``, ``assets``, ``bids``, ``asks`` and
    ``returns``, so the returns can hold values no price path yields, such
    as a subnormal variance. Bids and asks are one price path, which is
    then also the mid. A 20-return month in 2017, too far back to pair
    with any other, keeps the unit-root tests well posed.
    """
    burn_in = np.linspace(-0.01, 0.02, 20)
    dates = [dt.date(2016, 12, 31)] + [dt.date(2017, 1, 1 + i) for i in range(20)]
    columns = [list(burn_in), list(burn_in)]
    for m, values in enumerate(months):
        dates += [dt.date(2019 + m // 12, m % 12 + 1, 1 + i) for i in range(len(values))]
        columns[0] += values
        columns[1] += values[::-1]
    returns = np.array(columns).T
    steps = np.arange(len(dates), dtype=float)
    prices = 100.0 + np.column_stack([np.cos(steps), np.sin(steps)])
    return SimpleNamespace(dates=tuple(dates), assets=("A", "B"), bids=prices, asks=prices,
                           returns=returns)


def oracle_pairs(panel, max_shift, alpha, sidedness, min_month_obs):
    """Each asset's kept months grouped day by day, and every (month, shift)
    pair run through the scalar ``welch_t_test``; None marks a degenerate
    pair."""
    per_asset = []
    for j in range(len(panel.assets)):
        grouped: dict[tuple[int, int], list[float]] = {}
        for day, value in zip(panel.dates[1:], panel.returns[:, j]):
            grouped.setdefault((day.year, day.month), []).append(float(value))
        kept = {k: np.asarray(v) for k, v in sorted(grouped.items()) if len(v) >= min_month_obs}
        pairs = []
        for (year, month) in kept:
            for shift in range(1, max_shift + 1):
                total = year * 12 + month - 1 - shift
                earlier = (total // 12, total % 12 + 1)
                if earlier not in kept:
                    continue
                try:
                    result = welch_t_test(kept[(year, month)], kept[earlier], alpha=alpha,
                                          sidedness=sidedness)
                except DegenerateDataError:
                    result = None
                pairs.append((shift, f"{year:04d}-{month:02d}",
                              f"{earlier[0]:04d}-{earlier[1]:02d}", result))
        per_asset.append((kept, pairs))
    return per_asset


def same_bits(x: float, y: float) -> bool:
    return float(x).hex() == float(y).hex()


month_values = st.one_of(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=28),
    # constant months: every pair of two of them is degenerate
    st.builds(lambda v, n: [v] * n, st.sampled_from([0.0, 0.25, -0.003]),
              st.integers(min_value=1, max_value=28)),
)


class TestBatchedReportOracle:
    """The batched report against ``welch_t_test`` and ``levene_test`` on the
    same months, bit for bit."""

    @given(
        months=st.lists(month_values, min_size=7, max_size=10),
        max_shift=st.integers(min_value=1, max_value=6),
        min_month_obs=st.integers(min_value=2, max_value=30),
        sidedness=st.sampled_from(["one-sided", "two-sided"]),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
    )
    # the variances are non-zero but their squares underflow in the dof denominator
    @example(
        months=[[0.0] * 5, [0.0] * 4 + [3.285107521708261e-98]] * 3 + [[0.0] * 5],
        max_shift=2, min_month_obs=2, sidedness="one-sided", alpha=0.05,
    )
    # a month whose variance share squares past the largest float: its
    # pairs are undefined
    @example(
        months=[[0.0, 2e100, 1.0], [0.0, 1.0, 2.0]] * 3 + [[0.0, 1.0, 2.0]],
        max_shift=2, min_month_obs=2, sidedness="one-sided", alpha=0.05,
    )
    # every kept month constant (the 20-return burn-in month is dropped):
    # no Levene W and no Welch pair is defined
    @example(months=[[0.25] * 21] * 7, max_shift=2, min_month_obs=21, sidedness="two-sided",
             alpha=0.05)
    # the within-group sum of squares of the deviations is subnormal, so W overflows
    @example(
        months=[[0.0] * 11 + [2.0] * 11, [1.0] * 11 + [5.0] * 11, [0.0] * 21 + [3e-160]]
        + [[0.0] * 11 + [2.0] * 11] * 4,
        max_shift=1, min_month_obs=21, sidedness="one-sided", alpha=0.05,
    )
    def test_pairs_match_welch_t_test(self, months, max_shift, min_month_obs, sidedness, alpha):
        panel = stand_in_panel(months)
        report = monthly_stationarity_report(
            panel, max_shift=max_shift, alpha=alpha, sidedness=sidedness,
            min_month_obs=min_month_obs,
        )
        skipped = levene_skipped = 0
        levene_rejects = []
        tests = {k: 0 for k in range(1, max_shift + 1)}
        rejects = {k: 0 for k in range(1, max_shift + 1)}
        payload = written(report)["assets"]
        for j, (kept, pairs) in enumerate(oracle_pairs(
                panel, max_shift, alpha, sidedness, min_month_obs)):
            levene = None
            if len(kept) >= 2:
                try:
                    levene = levene_test(list(kept.values()), alpha=alpha)
                except DegenerateDataError:
                    levene_skipped += 1
            if levene is None:
                assert report.assets[j].levene is None and payload[j]["levene"] is None
            else:
                assert report.assets[j].levene == levene
                assert same_bits(report.assets[j].levene.w_stat, levene.w_stat)
                assert same_bits(report.assets[j].levene.critical_value, levene.critical_value)
                assert payload[j]["levene"] == asdict(levene)
                levene_rejects.append(levene.reject)
            assert list(report.months) == [f"{y:04d}-{m:02d}" for y, m in kept]
            assert len(report.counts) == len(kept)
            for m, values in enumerate(kept.values()):
                assert report.counts[m] == len(values)
                assert same_bits(report.means[j, m], values.mean())
                assert same_bits(report.variances[j, m], values.var(ddof=1))
            assert [(g["month"], g["count"], g["mean"].hex(), g["var"].hex())
                    for g in payload[j]["month_groups"]] == [
                (f"{y:04d}-{m:02d}", len(v), v.mean().hex(), v.var(ddof=1).hex())
                for (y, m), v in kept.items()
            ]
            expected = [p for p in pairs if p[3] is not None]
            skipped += len(pairs) - len(expected)
            assert int(report.tested[j].sum()) == len(expected)
            assert len(report.pairs) == len(pairs)
            for (i, k, pair_shift), tested, (shift, month, prior, result) in zip(
                    report.pairs.tolist(), report.tested[j].tolist(), pairs):
                assert (pair_shift, report.months[i], report.months[k]) == (shift, month, prior)
                assert tested is (result is not None)
            rows = [(p, *pair) for p, pair in enumerate(pairs) if pair[3] is not None]
            for (p, shift, month, prior, result), row in zip(rows, payload[j]["t_tests"], strict=True):
                assert same_bits(report.t_stat[j, p], result.t_stat)
                assert same_bits(report.dof[j, p], result.dof)
                assert same_bits(report.critical_value[j, p], result.critical_value)
                assert bool(report.reject[j, p]) is result.reject
                assert (report.alpha, report.sidedness) == (alpha, sidedness)
                assert row == {
                    "shift": shift, "month": month, "prior_month": prior,
                    "t_stat": result.t_stat, "dof": result.dof,
                    "critical_value": result.critical_value, "reject": result.reject,
                }
                assert all(same_bits(row[key], getattr(result, key))
                           for key in ("t_stat", "dof", "critical_value"))
                tests[shift] += 1
                rejects[shift] += result.reject
        assert report.skipped["t_test"] == skipped
        assert report.skipped["levene"] == levene_skipped
        if levene_rejects:
            assert same_bits(report.levene_rejection_fraction, np.mean(levene_rejects))
        else:
            assert report.levene_rejection_fraction is None
        assert [(s.shift, s.n_tests, s.n_rejections) for s in report.rejection_by_shift] == [
            (k, tests[k], rejects[k]) for k in range(1, max_shift + 1)
        ]

    def test_degenerate_pair_is_untested_and_has_no_json_row(self):
        rng = np.random.default_rng(3)
        months = [rng.normal(0.0, 0.01, 15).tolist() for _ in range(8)]
        # 2019-05 and 2019-06 hold one value, which sums exactly, in both assets:
        # their variances are 0, so their pair has no statistic
        months[4] = months[5] = [0.25] * 15
        report = monthly_stationarity_report(stand_in_panel(months), max_shift=2)
        labels = list(report.months)
        p = report.pairs.tolist().index([labels.index("2019-06"), labels.index("2019-05"), 1])
        assert not report.tested[:, p].any()
        assert not report.reject[:, p].any()
        for column in (report.t_stat, report.dof, report.critical_value):
            assert np.isnan(column[:, p]).all()
        assert report.skipped["t_test"] == 2
        assert int(report.tested.sum()) == 2 * len(report.pairs) - 2
        rows = [
            (row["month"], row["prior_month"])
            for asset in written(report)["assets"]
            for row in asset["t_tests"]
        ]
        assert ("2019-06", "2019-05") not in rows
        assert len(rows) == 2 * len(report.pairs) - 2


def test_report_columns_are_read_only(panel):
    report = monthly_stationarity_report(panel, max_shift=2)
    n_months, n_pairs = len(report.months), len(report.pairs)
    assert report.counts.shape == (n_months,)
    assert report.pairs.shape == (n_pairs, 3)
    shapes = {"means": n_months, "variances": n_months, "t_stat": n_pairs, "dof": n_pairs,
              "critical_value": n_pairs, "reject": n_pairs, "tested": n_pairs}
    for name, columns in shapes.items():
        assert getattr(report, name).shape == (panel.n_assets, columns), name
    for name in ("counts", "pairs", *shapes):
        column = getattr(report, name)
        with pytest.raises(ValueError, match="read-only"):
            column[(0,) * column.ndim] = 0


# finite floats at both ends of the range, signed zeros and subnormals among them
extreme_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
)
levels = (0.01, 0.05, 0.1)


def adf_results():
    return st.builds(
        stats.AdfResult, extreme_floats, extreme_floats, extreme_floats,
        st.fixed_dictionaries({level: extreme_floats for level in levels}),
        st.fixed_dictionaries({level: st.booleans() for level in levels}),
        st.integers(min_value=19, max_value=10**6),
    )


@st.composite
def reports(draw):
    """A report of drawn arrays: untested pairs read NaN, as the report's do."""
    n_assets, n_months = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    first = draw(st.integers(1990 * 12, 2040 * 12))
    candidates = [(i, k, i - k) for i in range(n_months) for k in range(i)]
    pairs = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []

    def matrix(elements, columns, dtype=float):
        values = draw(st.lists(elements, min_size=n_assets * columns, max_size=n_assets * columns))
        return np.array(values, dtype=dtype).reshape(n_assets, columns)

    tested = matrix(st.booleans(), len(pairs), bool)
    t_stat, dof, critical_value = (
        np.where(tested, matrix(extreme_floats, len(pairs)), np.nan) for _ in range(3)
    )
    max_shift = draw(st.integers(1, 3))
    return stats.StationarityReport(
        alpha=draw(st.floats(min_value=1e-3, max_value=0.5)),
        sidedness=draw(st.sampled_from(SIDEDNESS_VALUES)),
        max_shift=max_shift,
        adf_level=draw(st.sampled_from(levels)),
        assets=tuple(
            stats.AssetDiagnostics(
                draw(st.text(max_size=4)),
                draw(st.none() | adf_results()),
                draw(st.none() | adf_results()),
                draw(st.none() | st.builds(stats.LeveneResult, extreme_floats, st.integers(1, 9),
                                           st.integers(1, 99), extreme_floats, st.booleans())),
            )
            for _ in range(n_assets)
        ),
        months=tuple(f"{code // 12:04d}-{code % 12 + 1:02d}" for code in range(first, first + n_months)),
        counts=np.array(draw(st.lists(st.integers(2, 40), min_size=n_months, max_size=n_months)),
                        dtype=np.int64),
        means=matrix(extreme_floats, n_months),
        variances=matrix(extreme_floats, n_months),
        pairs=np.array(pairs, dtype=np.int64).reshape(-1, 3),
        t_stat=t_stat,
        dof=dof,
        critical_value=critical_value,
        reject=tested & matrix(st.booleans(), len(pairs), bool),
        tested=tested,
        rejection_by_shift=tuple(
            stats.ShiftRejection(k, n, draw(st.integers(0, n)))
            for k, n in zip(range(1, max_shift + 1), draw(st.lists(st.integers(0, 9), min_size=max_shift,
                                                                    max_size=max_shift)))
        ),
        skipped=dict(zip(("adf_price", "adf_return", "levene", "t_test"),
                         draw(st.lists(st.integers(0, 9), min_size=4, max_size=4)))),
        price_nonstationary_fraction=draw(st.none() | st.floats(0.0, 1.0)),
        return_stationary_fraction=draw(st.none() | st.floats(0.0, 1.0)),
        levene_rejection_fraction=draw(st.none() | st.floats(0.0, 1.0)),
    )


class TestReportWriter:
    """The report's own JSON text against ``json.dumps`` of the oracle's
    dicts, the text the report had before it wrote its own."""

    @given(report=reports())
    def test_text_matches_json_dumps_of_the_oracle(self, report):
        expected = oracle.report_json_dict(report)
        manifest = {"command": "stationarity", "inputs": {"panel.csv": "sha256:0"}}
        # the script writes the report at the top level, the CLI under "report"
        assert "".join(json_chunks(report.json_pieces)) == json.dumps(
            expected, sort_keys=True, indent=2) + "\n"
        assert "".join(json_chunks({"manifest": manifest, "report": report.json_pieces})) == json.dumps(
            {"manifest": manifest, "report": expected}, sort_keys=True, indent=2) + "\n"
        assert report.to_json_dict() == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("column", ["means", "variances", "t_stat", "dof", "critical_value"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_raises(self, panel, column, bad):
        report = monthly_stationarity_report(panel, max_shift=2)
        values = getattr(report, column).copy()
        values[-1, -1 if column in ("means", "variances") else np.flatnonzero(report.tested[-1])[-1]] = bad
        with pytest.raises(ValueError, match="is not valid JSON"):
            "".join(json_chunks(dataclasses.replace(report, **{column: values}).json_pieces))


# ties, signed zeros, infinities and NaN, among ordinary values
quartile_values = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324]) | st.floats(),
    min_size=1, max_size=12,
)


@given(values=quartile_values)
@example(values=[0.0, -0.0, -0.0, 0.0])
@example(values=[-0.0])
@example(values=[math.inf])
@example(values=[-math.inf, 1.0, math.inf])
@example(values=[2.0, 2.0, 2.0])
def test_quartiles_are_numpys_percentiles_bit_for_bit(values):
    values = np.array(values)
    # numpy's own interpolation meets inf - inf on some of these
    with np.errstate(invalid="ignore", over="ignore"):
        expected = [float(np.percentile(values, q)) for q in (25, 50, 75)]
    got = stats.quartiles(values)
    assert [math.isnan(x) for x in got] == [math.isnan(x) for x in expected]
    assert all(same_bits(x, y) for x, y in zip(got, expected) if not math.isnan(x))
