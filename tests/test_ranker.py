"""Pairwise-win ranker: hand-traced values, invariants, and serialisation."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqrank import RankerState

from conftest import MISSING

perf_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4
)


def traced_state():
    return RankerState(3, 0.5).update([0.3, 0.1, 0.2])


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
        assert np.array_equal(state.q, np.full(3, 1.0 / 3.0))
        assert state.t == 0

    def test_two_experts(self):
        assert np.array_equal(RankerState(2, 0.5).p, [0.5, 0.5])

    @pytest.mark.parametrize("d,tau", [(1, 0.9), (0, 0.9), (3, 0.0), (3, 1.5), (3, -0.1)])
    def test_domain(self, d, tau):
        with pytest.raises(ValueError):
            RankerState(d, tau)


class TestUpdate:
    def test_hand_trace_win_matrix(self):
        state = traced_state()
        expected_R = np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, 0.0, 0.5]])
        R, _ = next(matrix_reference(np.array([[0.3, 0.1, 0.2]]), 0.5))
        assert np.allclose(R, expected_R, atol=1e-15)
        assert np.allclose(state.m, [1 / 2, 1 / 6, 1 / 3], atol=1e-15)
        assert np.allclose(state.m, R.mean(axis=0), atol=1e-15)
        assert np.allclose(state.q, [1 / 2, 1 / 6, 1 / 3], atol=1e-15)

    def test_hand_trace_posterior(self):
        state = traced_state()
        assert np.allclose(state.p, [5 / 12, 1 / 4, 1 / 3], atol=1e-12)

    def test_all_tied_stays_uniform(self):
        state = RankerState(4, 0.7)
        for _ in range(5):
            state.update([2.0, 2.0, 2.0, 2.0])
            assert np.allclose(state.p, 0.25, atol=1e-14)
            assert np.allclose(state.q, 0.25, atol=1e-14)

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

    def test_rejects_bad_input(self):
        state = RankerState(3, 0.9)
        with pytest.raises(ValueError):
            state.update([1.0, 2.0])
        with pytest.raises(ValueError):
            state.update([1.0, np.nan, 2.0])

    @given(vectors=st.lists(perf_vectors, min_size=1, max_size=30))
    def test_conservation_and_bounds(self, vectors):
        state = RankerState(4, 0.95)
        for vec in vectors:
            state.update(vec)
            assert abs(state.p.sum() - 1.0) < 1e-9
            assert abs(state.q.sum() - 1.0) < 1e-12
            assert state.p.min() >= 0.0
            assert win_mean_bounds_and_sum(state, distinct=False)[0] <= 1e-12

    @given(vec=perf_vectors, scale=st.floats(min_value=0.1, max_value=50),
           shift=st.floats(min_value=-100, max_value=100))
    def test_positive_affine_invariance(self, vec, scale, shift):
        a = RankerState(4, 0.9).update(vec)
        b = RankerState(4, 0.9).update([scale * v + shift for v in vec])
        # the win indicator sees identical orderings unless the affine map
        # rounds two nearby values together; tolerate that as approximate
        if np.array_equal(
            np.sign(np.subtract.outer(vec, vec)),
            np.sign(np.subtract.outer([scale * v + shift for v in vec],
                                      [scale * v + shift for v in vec])),
        ):
            assert np.array_equal(a.p, b.p)
            assert np.array_equal(a.rank().order, b.rank().order)

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
        assert np.array_equal(perm[permuted.rank().order], base.rank().order)

    def test_monotone_dominance(self):
        rng = np.random.default_rng(11)
        state = RankerState(6, 0.99)
        for _ in range(100):
            r = rng.normal(size=6)
            r[2] = r.max() + 0.5
            state.update(r)
            ranked = state.rank()
            assert ranked.order[0] == 2
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
            assert np.array_equal(state.rank().order, np.argsort(-p, kind="stable"))
        assert worst_p <= 1e-14
        assert worst_m <= 1e-14


class TestRank:
    def test_hand_trace_order(self):
        assert np.array_equal(traced_state().rank().order, [0, 2, 1])

    def test_uniform_ties_identity(self):
        assert np.array_equal(RankerState(5, 0.9).rank().order, np.arange(5))

    def test_unique_max(self):
        state = RankerState(3, 0.9)
        state.p = np.array([0.1, 0.8, 0.1])
        assert np.array_equal(state.rank().order, [1, 0, 2])


class TestSerialisation:
    def test_round_trip_resumes_identically(self):
        rng = np.random.default_rng(5)
        series = rng.normal(size=(100, 4))
        full = RankerState(4, 0.99)
        for row in series:
            full.update(row)
        half = RankerState(4, 0.99)
        for row in series[:50]:
            half.update(row)
        resumed = RankerState.from_json_dict(json.loads(json.dumps(half.to_json_dict())))
        for row in series[50:]:
            resumed.update(row)
        assert resumed.t == full.t
        assert np.array_equal(resumed.p, full.p)
        assert np.array_equal(resumed.m, full.m)

    def test_snapshot_keys(self):
        payload = traced_state().to_json_dict()
        assert set(payload) == {"d", "tau", "t", "win_mean", "posterior"}

    def test_loaded_state_owns_its_arrays(self):
        series = np.random.default_rng(7).normal(size=(20, 4))
        source = RankerState(4, 0.9)
        for row in series[:10]:
            source.update(row)
        payload = {**source.to_json_dict(), "win_mean": source.m, "posterior": source.p}
        before = {name: payload[name].copy() for name in ("win_mean", "posterior")}
        loaded = RankerState.from_json_dict(payload)
        for row in series[10:]:
            loaded.update(row)
        for name, value in before.items():
            assert np.array_equal(payload[name], value), name

    def test_shape_validation(self):
        payload = RankerState(3, 0.9).to_json_dict()
        payload["posterior"] = [0.5, 0.5]
        with pytest.raises(ValueError, match="posterior must have shape"):
            RankerState.from_json_dict(payload)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("win_mean", [0.5, 0.5], "win_mean must have shape"),
            ("posterior", [0.5, float("nan"), 0.5], "posterior contains non-finite"),
            ("win_mean", [0.1, float("inf"), 0.1], "win_mean contains non-finite"),
            ("posterior", [0.6, 0.6, -0.2], "posterior must be non-negative"),
            ("posterior", [0.5, 0.3, 0.3], "posterior must sum to 1"),
            ("win_mean", [0.1, 1.5, 0.1], r"win_mean must lie in \[0, 1\]"),
            ("win_mean", [0.1, -0.1, 0.1], r"win_mean must lie in \[0, 1\]"),
            ("t", -1, "t must be >= 0"),
            ("t", 3.9, "t must be an integer, got 3.9"),
            ("t", True, "t must be an integer, got True"),
            ("posterior", MISSING, "posterior is missing"),
        ],
    )
    def test_snapshot_validation(self, field, value, message):
        payload = traced_state().to_json_dict()
        if value is MISSING:
            del payload[field]
        else:
            payload[field] = value
        with pytest.raises(ValueError, match=message):
            RankerState.from_json_dict(payload)
