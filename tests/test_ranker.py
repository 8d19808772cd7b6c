"""Pairwise-win ranker: hand-traced values, invariants, block updates, and ranking order."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqrank.ranker as ranker_module
from seqrank import RankerState
from seqrank.ranker import rank_order

perf_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4
)


def normalised_m(state):
    """The likelihood ``update`` steps toward: ``m`` over its sum, uniform while ``m`` is 0."""
    return ranker_module._likelihood(state.m[None, :], np.empty((1, state.d)))[0]


def traced_state():
    state = RankerState(3, 0.5)
    state.update([0.3, 0.1, 0.2])
    return state


def searchsorted_update(m, p, r, tau):
    """One day of the recursion as written before block updates: ``(m, p)`` after ``r``.

    Win counts come from a binary search of the sorted row; a block update
    must reproduce every row of this, bit for bit.
    """
    d = len(r)
    order = np.argsort(r)
    ranked = r[order]
    wins = np.empty(d, dtype=np.intp)
    wins[order] = np.searchsorted(ranked, ranked, side="right")
    m = m * tau
    m += (1.0 - tau) * (wins / d)
    total = float(m.sum())
    q = m / total if total > 0.0 else np.full(d, 1.0 / d)
    p = tau * p + (1.0 - tau) * q
    p /= float(p.sum())
    return m, p


def matrix_reference(series, tau):
    """The d x d pairwise-win recursion whose column means the ranker keeps.

    ``R[i, j]`` decays toward the indicator ``r_j >= r_i``; yields ``R`` and
    the posterior after every step.
    """
    d = series.shape[1]
    R = np.zeros((d, d))
    p = np.full(d, 1.0 / d)
    for r in series:
        wins = (r[None, :] >= r[:, None]).astype(float)
        R *= tau
        R += (1.0 - tau) * wins
        col_mean = R.mean(axis=0)
        total = float(col_mean.sum())
        q = col_mean / total if total > 0.0 else np.full(d, 1.0 / d)
        p = tau * p + (1.0 - tau) * q
        p /= p.sum()
        yield R, p


def win_mean_bounds_and_sum(state, distinct=True):
    """Largest violations of the bounds on ``m`` and of its sum identity."""
    decayed = 1.0 - state.tau**state.t
    below = max(0.0, float((decayed / state.d - state.m).max()))
    above = max(0.0, float((state.m - decayed).max()))
    sum_err = abs(float(state.m.sum()) - decayed * (state.d + 1) / 2) if distinct else 0.0
    return max(below, above), sum_err


class TestInit:
    def test_uniform_prior(self):
        state = RankerState(3, 0.999)
        assert np.array_equal(state.p, np.full(3, 1.0 / 3.0))
        assert np.array_equal(state.m, np.zeros(3))
        assert np.array_equal(normalised_m(state), np.full(3, 1.0 / 3.0))
        assert state.t == 0

    def test_two_experts(self):
        assert np.array_equal(RankerState(2, 0.5).p, [0.5, 0.5])

    @pytest.mark.parametrize("d,tau", [(1, 0.9), (0, 0.9), (3, 0.0), (3, 1.5), (3, -0.1),
                                       (2.5, 0.9), ("3", 0.9), (None, 0.9),
                                       (3, float("nan")), (3, float("inf"))])
    def test_domain(self, d, tau):
        with pytest.raises(ValueError):
            RankerState(d, tau)

    def test_numpy_integer_d(self):
        state = RankerState(np.int64(3), 0.9)
        assert type(state.d) is int and state.d == 3
        assert state.p.shape == (3,)


class TestUpdate:
    def test_hand_trace_win_matrix(self):
        state = traced_state()
        expected_R = np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, 0.0, 0.5]])
        R, _ = next(matrix_reference(np.array([[0.3, 0.1, 0.2]]), 0.5))
        assert np.allclose(R, expected_R, atol=1e-15)
        assert np.allclose(state.m, [1 / 2, 1 / 6, 1 / 3], atol=1e-15)
        assert np.allclose(state.m, R.mean(axis=0), atol=1e-15)
        assert np.allclose(normalised_m(state), [1 / 2, 1 / 6, 1 / 3], atol=1e-15)

    def test_hand_trace_posterior(self):
        state = traced_state()
        assert np.allclose(state.p, [5 / 12, 1 / 4, 1 / 3], atol=1e-12)

    def test_all_tied_stays_uniform(self):
        state = RankerState(4, 0.7)
        for _ in range(5):
            state.update([2.0, 2.0, 2.0, 2.0])
            assert np.allclose(state.p, 0.25, atol=1e-14)
            assert np.allclose(normalised_m(state), 0.25, atol=1e-14)

    def test_tau_one_never_learns(self):
        state = RankerState(3, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            state.update(rng.normal(size=3))
            assert np.allclose(state.p, 1.0 / 3.0, atol=1e-14)

    def test_diagonal_geometric(self):
        tau = 0.9
        state = RankerState(3, tau)
        rng = np.random.default_rng(1)
        for _ in range(199):
            state.update(rng.normal(size=3))
            bound_err, sum_err = win_mean_bounds_and_sum(state)
            assert bound_err <= 1e-12
            assert sum_err < 1e-12

    @pytest.mark.parametrize("d", [2, 7, 250, 251])
    @pytest.mark.parametrize("kind", ["rounded", "few-levels", "signed-zeros", "all-equal"])
    def test_win_counts_match_the_pairwise_definition(self, d, kind):
        # after one update from m = 0, m is (1 - tau) c / d with
        # c_j = #{i : r_i <= r_j}, the O(d^2) count of the win matrix
        rng = np.random.default_rng(d)
        r = {
            "rounded": rng.normal(size=d).round(1),
            "few-levels": rng.integers(-2, 3, size=d).astype(float),
            "signed-zeros": rng.choice([-0.0, 0.0, 1.0, -1.0], size=d),
            "all-equal": np.full(d, 0.25),
        }[kind]
        tau = 0.9
        c = (r[:, None] <= r).sum(axis=0)
        state = RankerState(d, tau)
        state.update(r)
        assert state.m.tobytes() == ((1.0 - tau) * (c / d)).tobytes()

    def test_rejects_bad_input(self):
        state = RankerState(3, 0.9)
        with pytest.raises(ValueError):
            state.update([1.0, 2.0])
        with pytest.raises(ValueError):
            state.update([1.0, np.nan, 2.0])

    @pytest.mark.parametrize(
        "vec",
        [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0]] * 5, np.zeros((0, 3)), np.zeros((2, 1, 3)), 5.0, []],
        ids=["short", "long", "narrow-block", "no-rows", "3-d", "scalar", "empty"],
    )
    def test_rejects_wrong_shape(self, vec):
        with pytest.raises(ValueError, match="shape"):
            RankerState(3, 0.9).update(vec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            RankerState(3, 0.9).update([1.0, bad, 2.0])

    def test_rejected_update_changes_nothing(self):
        state = RankerState(3, 0.9)
        rng = np.random.default_rng(6)
        for _ in range(5):
            assert state.update(rng.normal(size=3)).tobytes() == state.p.tobytes()
        m, p = state.m.copy(), state.p.copy()
        # the NaN sits in the call's last row block
        late_nan = rng.normal(size=(3 * ranker_module._BLOCK_ROWS + 1, 3))
        late_nan[-1, 2] = np.nan
        bad_inputs = ([1.0, 2.0], [1.0, np.inf, 2.0], np.zeros((0, 3)), np.zeros((4, 2)),
                      np.zeros((1, 4, 3)), late_nan)
        for vec in bad_inputs:
            with pytest.raises(ValueError):
                state.update(vec)
        assert state.t == 5
        assert m.tobytes() == state.m.tobytes()
        assert p.tobytes() == state.p.tobytes()

    def test_returns_new_arrays_shaped_like_the_input(self):
        state = RankerState(4, 0.9)
        rng = np.random.default_rng(8)
        day = state.update(rng.normal(size=4))
        block = state.update(rng.normal(size=(5, 4)).tolist())
        assert day.shape == (4,) and block.shape == (5, 4) and state.t == 6
        assert block[-1].tobytes() == state.p.tobytes()
        assert not np.shares_memory(block, state.p) and not np.shares_memory(day, state.p)
        block[...] = 0.0
        assert state.p.sum() == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 260),
        tau=st.one_of(st.sampled_from([1.0, 0.5, 0.999]), st.floats(0.0, 1.0, exclude_min=True)),
        sizes=st.lists(st.integers(1, 130), min_size=1, max_size=3),
        kind=st.sampled_from(["normal", "tie-heavy", "signed-zeros", "mixed"]),
    )
    def test_block_update_equals_row_updates(self, seed, d, tau, sizes, kind):
        rng = np.random.default_rng(seed)
        series = rng.normal(size=(sum(sizes), d))
        if kind == "tie-heavy":
            series = rng.integers(-2, 3, size=series.shape).astype(float)
        elif kind == "signed-zeros":
            series = rng.choice([-0.0, 0.0, 1.0], size=series.shape)
        elif kind == "mixed":
            series = np.where(rng.random(series.shape) < 0.5, rng.choice([-0.0, 0.0], size=series.shape), series)
        blocked, daily = RankerState(d, tau), RankerState(d, tau)
        m, p = np.zeros(d), np.full(d, 1.0 / d)
        start = 0
        for size in sizes:
            posterior = blocked.update(series[start : start + size])
            assert posterior.shape == (size, d)
            for row, r in zip(posterior, series[start : start + size]):
                assert row.tobytes() == daily.update(r).tobytes()
                m, p = searchsorted_update(m, p, r, tau)
                assert row.tobytes() == p.tobytes()
            start += size
            assert blocked.m.tobytes() == daily.m.tobytes() == m.tobytes()
            assert blocked.p.tobytes() == daily.p.tobytes()
            assert blocked.t == daily.t == start

    def test_drift_logs_one_line_per_update(self, caplog, monkeypatch):
        state = RankerState(3, 0.9)
        rows = np.random.default_rng(9).normal(size=(64, 3))
        with caplog.at_level(logging.WARNING, logger="seqrank.ranker"):
            state.update(rows)
            assert caplog.records == []
            # a prior that does not sum to 1 drifts on the first step only
            state.p = np.array([0.5, 0.5, 0.5])
            state.update(rows)
            monkeypatch.setattr(ranker_module, "_RENORM_LOG_TOLERANCE", -1.0)
            state.update(rows[:10])
        assert len(caplog.records) == 2
        first, every = (record.getMessage() for record in caplog.records)
        assert first.startswith("posterior sum drifted on 1 of 64 steps from step 65; largest +")
        assert first.endswith("at step 65")
        assert every.startswith("posterior sum drifted on 10 of 10 steps from step 129; largest ")

        # one call over four row blocks that drifts in the first and the third
        # still logs one line, with the call's own step numbers
        caplog.clear()
        monkeypatch.setattr(ranker_module, "_RENORM_LOG_TOLERANCE", 1e-12)
        likelihood, blocks = ranker_module._likelihood, []

        def skewed(m, out):
            q = likelihood(m, out)
            blocks.append(len(q))
            if len(blocks) == 3:
                q[5] *= 10.0  # the step toward q sums to 1 - tau 10 times over
            return q

        monkeypatch.setattr(ranker_module, "_likelihood", skewed)
        size = ranker_module._BLOCK_ROWS
        state.p = np.array([0.5, 0.5, 0.5])
        with caplog.at_level(logging.WARNING, logger="seqrank.ranker"):
            state.update(np.random.default_rng(10).normal(size=(3 * size + 8, 3)))
        assert blocks == [size, size, size, 8]
        assert [record.getMessage() for record in caplog.records] == [
            f"posterior sum drifted on 2 of {3 * size + 8} steps from step 139; "
            f"largest +9.000e-01 at step {138 + 2 * size + 6}"
        ]

    def test_series_update_peaks_near_its_posterior(self):
        # the paper's scale in one call: the returned posterior and one row
        # block's temporaries, not a second series-sized matrix
        series = np.random.default_rng(11).normal(size=(2500, 250))
        RankerState(250, 0.999).update(series[:100])  # first-call allocations outside the count
        tracemalloc.start()
        try:
            RankerState(250, 0.999).update(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * series.nbytes

    @given(vectors=st.lists(perf_vectors, min_size=1, max_size=30))
    def test_conservation_and_bounds(self, vectors):
        state = RankerState(4, 0.95)
        for vec in vectors:
            state.update(vec)
            assert abs(state.p.sum() - 1.0) < 1e-9
            assert abs(normalised_m(state).sum() - 1.0) < 1e-12
            assert state.p.min() >= 0.0
            assert win_mean_bounds_and_sum(state, distinct=False)[0] <= 1e-12

    @given(vec=perf_vectors, scale=st.floats(min_value=0.1, max_value=50),
           shift=st.floats(min_value=-100, max_value=100))
    def test_positive_affine_invariance(self, vec, scale, shift):
        a, b = RankerState(4, 0.9), RankerState(4, 0.9)
        a.update(vec)
        b.update([scale * v + shift for v in vec])
        # the win indicator sees identical orderings unless the affine map
        # rounds two nearby values together; tolerate that as approximate
        if np.array_equal(
            np.sign(np.subtract.outer(vec, vec)),
            np.sign(np.subtract.outer([scale * v + shift for v in vec],
                                      [scale * v + shift for v in vec])),
        ):
            assert np.array_equal(a.p, b.p)
            assert np.array_equal(a.rank(), b.rank())

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(42)
        series = rng.normal(size=(50, 5))
        perm = np.array([3, 0, 4, 1, 2])
        base = RankerState(5, 0.98)
        permuted = RankerState(5, 0.98)
        for row in series:
            base.update(row)
            permuted.update(row[perm])
        assert np.allclose(permuted.p, base.p[perm], atol=1e-12)
        assert np.array_equal(perm[permuted.rank()], base.rank())

    def test_monotone_dominance(self):
        rng = np.random.default_rng(11)
        state = RankerState(6, 0.99)
        for _ in range(100):
            r = rng.normal(size=6)
            r[2] = r.max() + 0.5
            state.update(r)
            assert state.rank()[0] == 2
            assert state.p[2] > np.delete(state.p, 2).max()


class TestMatrixReference:
    @pytest.mark.parametrize(
        "series",
        [
            np.random.default_rng(3).standard_normal((2000, 50)),
            # integers in a narrow range tie on nearly every step
            np.random.default_rng(4).integers(-3, 4, size=(2000, 50)).astype(float),
        ],
        ids=["continuous", "integer-ties"],
    )
    def test_matches_matrix_recursion(self, series):
        state = RankerState(series.shape[1], 0.99)
        worst_p = worst_m = 0.0
        for (R, p), row in zip(matrix_reference(series, 0.99), series):
            state.update(row)
            worst_p = max(worst_p, float(np.abs(state.p - p).max()))
            worst_m = max(worst_m, float(np.abs(state.m - R.mean(axis=0)).max()))
            assert np.array_equal(state.rank(), np.argsort(-p, kind="stable"))
        assert worst_p <= 1e-14
        assert worst_m <= 1e-14


class TestRank:
    def test_hand_trace_order(self):
        assert np.array_equal(traced_state().rank(), [0, 2, 1])

    def test_uniform_ties_identity(self):
        assert np.array_equal(RankerState(5, 0.9).rank(), np.arange(5))

    def test_unique_max(self):
        state = RankerState(3, 0.9)
        state.p = np.array([0.1, 0.8, 0.1])
        assert np.array_equal(state.rank(), [1, 0, 2])

    def test_block_order_is_each_row_ranked(self):
        state = RankerState(6, 0.9)
        series = np.random.default_rng(10).integers(0, 3, size=(40, 6)).astype(float)
        orders = rank_order(state.update(series))
        replay = RankerState(6, 0.9)
        for row, order in zip(series, orders):
            replay.update(row)
            assert np.array_equal(order, replay.rank())
