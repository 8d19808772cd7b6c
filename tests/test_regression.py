"""Recursive-vs-batch equivalence, the general-recursion oracle, and state hygiene.

The forecaster steps on return streams: each step pairs the lagged input
``(1, r_{s-1})`` (with ``r_0 = 0``) with the target ``r_s``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqrank import (
    CurdsWheyState,
    JumpDiffusionConfig,
    batch_ridge,
    batch_shrinkage,
    simulate_jump_diffusion,
)
from seqrank.regression import _FLUSH_STEPS

from regression_oracle import GeneralCurdsWhey, precise_forecasts, weighted_gram, weighted_ridge


def ar_stream(d, n, seed, noise=0.5, mapping=None):
    """``n`` returns of the stable VAR(1) ``r_s = A (1, r_{s-1}) + noise``, from ``r_0 = 0``."""
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=0.4 / np.sqrt(d + 1), size=(d, d + 1)) if mapping is None else mapping
    rets = np.empty((n, d))
    r = np.zeros(d)
    for s in range(n):
        r = A @ np.concatenate([[1.0], r]) + noise * rng.normal(size=d)
        rets[s] = r
    return rets


def run_stream(state, rets):
    """Feed returns through the state; returns the lagged design, the targets and the ``y_hat`` rows."""
    rets = np.asarray(rets, dtype=float)
    lagged = np.column_stack([np.ones(len(rets)), np.vstack([state.y_prev, rets[:-1]])])
    y_hats = np.array([state.step(r).y_hat for r in rets])
    return lagged, rets, y_hats


def market_returns(d, n, seed):
    """Returns of a jump-diffusion panel with the benchmark's settings."""
    return simulate_jump_diffusion(
        JumpDiffusionConfig(drift=0.0002, volatility=0.012, jump_intensity=0.03, jump_mean=-0.01,
                            jump_stdev=0.03, cross_correlation=0.25, n_steps=n + 1, n_assets=d,
                            seed=seed, spread=0.001)
    ).returns


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rel(got, want):
    """``|got - want| / |want|`` in the Frobenius norm; 0 when both are zero."""
    diff = np.linalg.norm(np.asarray(got) - np.asarray(want))
    return 0.0 if diff == 0.0 else diff / np.linalg.norm(want)


class TestInit:
    def test_prior_matrices(self):
        state = CurdsWheyState(2, 1.0, 0.999)
        assert np.array_equal(state.P, np.eye(3))
        assert np.array_equal(state.theta, np.zeros((2, 3)))
        assert np.array_equal(state.phi, np.zeros((2, 2)))
        assert np.array_equal(state.y_prev, [0.0, 0.0])
        assert (state.t, state.p_resets, state.q_resets) == (0, 0, 0)

    def test_prior_scales_with_penalty(self):
        state = CurdsWheyState(2, 4.0, 0.999)
        assert np.array_equal(state.P, np.eye(3) / 4.0)

    def test_no_stage_two_surrogate(self):
        state = CurdsWheyState(2, 1.0, 0.999)
        assert not hasattr(state, "Q")
        assert not hasattr(state, "x_prev")

    @pytest.mark.parametrize("d,lam,tau", [(0, 1.0, 0.9), (2, 0.0, 0.9), (2, -1.0, 0.9),
                                           (2, 1.0, 0.0), (2, 1.0, 1.5),
                                           (2.5, 1.0, 0.9), ("2", 1.0, 0.9), (-1, 1.0, 0.9),
                                           (2, float("nan"), 0.9), (2, 1.0, float("nan")),
                                           (2, 1.0, -0.1)])
    def test_domain(self, d, lam, tau):
        with pytest.raises(ValueError):
            CurdsWheyState(d, lam, tau)

    @pytest.mark.parametrize("ridge_lambda", [float("inf"), float("nan")])
    def test_rejects_non_finite_penalty(self, ridge_lambda):
        # an infinite penalty makes the prior P zero: every step would reset it
        with pytest.raises(ValueError, match="ridge_lambda must be positive and finite"):
            CurdsWheyState(2, ridge_lambda, 0.9)

    def test_numpy_integer_d(self):
        state = CurdsWheyState(np.int32(2), 1.0, 0.9)
        assert type(state.d) is int and state.d == 2
        assert state.theta.shape == (2, 3)


class TestStep:
    def test_zero_returns_keep_zero_coefficients(self):
        state = CurdsWheyState(2, 1.0, 1.0)
        forecast = state.step([0.0, 0.0])
        assert np.array_equal(state.theta, np.zeros((2, 3)))
        assert np.array_equal(forecast.y_hat, np.zeros(2))
        assert np.array_equal(forecast.y_tilde, np.zeros(2))

    def test_three_step_trace_matches_accumulated_solve(self):
        # independent oracle: theta' = (lam*I + sum x x')^{-1} (sum x y') per step
        state = CurdsWheyState(1, 1.0, 1.0)
        gram = np.eye(2)
        moment = np.zeros((2, 1))
        r_prev = 0.0
        for r in (1.0, 2.0, 0.5):
            x = np.array([1.0, r_prev])
            state.step([r])
            gram += np.outer(x, x)
            moment += np.outer(x, [r])
            expected = np.linalg.solve(gram, moment).T
            assert np.allclose(state.theta, expected, atol=1e-12)
            r_prev = r

    def test_input_validation(self):
        state = CurdsWheyState(2, 1.0, 0.9)
        with pytest.raises(ValueError, match="shape"):
            state.step([1.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="shape"):
            state.step([0.1])
        with pytest.raises(ValueError, match="shape"):
            state.step([[0.1, 0.2]])
        with pytest.raises(ValueError, match="non-finite"):
            state.step([np.inf, 0.2])
        assert state.t == 0

    @pytest.mark.parametrize("r", [[0.1], [1.0, 0.1, 0.2], [[0.1, 0.2]], 0.5, []],
                             ids=["short", "long", "row", "scalar", "empty"])
    def test_rejects_wrong_shape(self, r):
        with pytest.raises(ValueError, match="shape"):
            CurdsWheyState(2, 1.0, 0.9).step(r)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            CurdsWheyState(2, 1.0, 0.9).step([0.1, bad])

    @pytest.mark.parametrize("n", [0, 5, _FLUSH_STEPS, _FLUSH_STEPS + 3])
    def test_rejected_step_changes_nothing(self, n):
        # n steps leave 0, 5, 0 and 3 rows pending
        rets = ar_stream(3, n + 1, seed=12)
        state = CurdsWheyState(3, 1.0, 0.99)
        twin = CurdsWheyState(3, 1.0, 0.99)
        for r in rets[:n]:
            state.step(r)
            twin.step(r)
        for r in ([0.1, 0.2], [0.1, np.nan, 0.2]):
            with pytest.raises(ValueError):
                state.step(r)
        assert state.t == n
        for name in ("theta", "P", "phi", "y_prev"):
            assert same_bits(getattr(state, name), getattr(twin, name)), name
        assert same_bits(state.step(rets[n]).y_tilde, twin.step(rets[n]).y_tilde)

    @pytest.mark.parametrize("n", [1, _FLUSH_STEPS, _FLUSH_STEPS + 1])
    def test_y_prev_is_the_last_return(self, n):
        rets = ar_stream(2, n, seed=13)
        state = CurdsWheyState(2, 1.0, 0.99)
        for r in rets:
            state.step(r)
        assert state.t == n
        assert same_bits(state.y_prev, rets[-1])


class TestBatchEquivalence:
    @pytest.mark.parametrize("d,n", [(2, 50), (5, 200)])
    def test_theta_and_p_match_batch(self, d, n):
        state = CurdsWheyState(d, 1.0, 1.0)
        X, Y, _ = run_stream(state, ar_stream(d, n, seed=d * 1000 + n))
        theta_batch = batch_ridge(X, Y, 1.0)
        assert rel(state.theta, theta_batch.T) < 1e-6
        assert rel(state.P, np.linalg.inv(X.T @ X + np.eye(d + 1))) < 1e-6

    def test_recursive_phi_matches_batch(self):
        d, n = 3, 200
        state = CurdsWheyState(d, 1.0, 1.0)
        _, Y, Y_hat = run_stream(state, ar_stream(d, n, seed=7))
        # the shrinkage stage pairs each target with the next prediction;
        # its first pair (zero target) is a no-op
        phi_batch = batch_shrinkage(Y[:-1], Y_hat[1:], 1.0)
        assert rel(state.phi, phi_batch.T) < 1e-5

    def test_forecast_matches_batch_composition(self):
        d, n = 3, 200
        rets = ar_stream(d, n, seed=13)
        state = CurdsWheyState(d, 1.0, 1.0)
        X, _, Y_hat = run_stream(state, rets[:-1])
        last = state.step(rets[-1])
        X = np.vstack([X, np.concatenate([[1.0], rets[-2]])])
        Y_hat = np.vstack([Y_hat, last.y_hat])
        theta_batch = batch_ridge(X, rets, 1.0).T
        phi_batch = batch_shrinkage(rets[:-1], Y_hat[1:], 1.0).T
        x_last = np.concatenate([[1.0], rets[-1]])
        assert np.allclose(last.y_hat, theta_batch @ x_last, atol=1e-6)
        assert np.allclose(last.y_tilde, phi_batch @ theta_batch @ x_last, atol=1e-6)


class TestAgainstGeneralRecursion:
    """The blocked forecaster against the old general recursion with its own ``Q``."""

    # the largest relative forecast error seen over 2 500 steps at d = 50,
    # tau in {0.95, 0.99, 0.999}, was 4.4e-14. The asymmetric downdate
    # (G' a) G in place of H' H passes 1e-12 on day 313 of this panel at
    # tau = 0.95 and first changes a day's order on day 699, so 750 days
    # catch it on both counts.
    TOLERANCE = 1e-12
    MARKET_DAYS = 750

    @pytest.mark.parametrize("tau", [0.95, 0.99, 0.999])
    def test_market_panel_forecasts_and_orders(self, tau):
        d = 50
        state = CurdsWheyState(d, 1.0, tau)
        reference = GeneralCurdsWhey(d, 1.0, tau)
        for day, r in enumerate(market_returns(d, self.MARKET_DAYS, seed=5)):
            got = state.step(r)
            want = reference.step_return(r)
            assert rel(got.y_hat, want.y_hat) < self.TOLERANCE, day
            assert rel(got.y_tilde, want.y_tilde) < self.TOLERANCE, day
            order = np.argsort(got.y_tilde, kind="stable")
            assert np.array_equal(order, np.argsort(want.y_tilde, kind="stable")), day
        assert state.p_resets == reference.p_resets == reference.q_resets == 0
        for name in ("theta", "P", "phi"):
            assert rel(getattr(state, name), getattr(reference, name)) < self.TOLERANCE, name

    @staticmethod
    def assert_close(got, want, tolerance):
        """Elementwise ``|got - want| <= tolerance * (1 + |want|)``.

        The drawn returns are of unit size, so a forecast near zero is a
        cancellation of unit-sized terms and is compared absolutely.
        """
        want = np.asarray(want)
        assert np.all(np.abs(got - want) <= tolerance * (1.0 + np.abs(want)))

    @staticmethod
    def deviation(got, want):
        """Largest ``|got - want| / (1 + |want|)`` over both stages' forecasts."""
        return max(
            float(np.max(np.abs(got.y_hat - want.y_hat) / (1.0 + np.abs(want.y_hat)))),
            float(np.max(np.abs(got.y_tilde - want.y_tilde) / (1.0 + np.abs(want.y_tilde)))),
        )

    # Where the old recursion is itself inaccurate, no other arithmetic can
    # agree with it to 1e-12: at lambda = 1e-3 it is up to 1.3e-10 from
    # 40-digit arithmetic, and the forecaster with Q derived but every
    # update applied in place each step is up to 3.5e-11 from it. There the
    # stream is held to the old recursion's own accuracy: the largest ratio
    # of the two recursions' errors against 40-digit arithmetic seen in
    # 3 000 draws was 6.9, and 7.5 for that unblocked forecaster.
    ACCURACY_RATIO = 16.0

    @given(data=st.data())
    def test_small_streams(self, data):
        d = data.draw(st.integers(1, 8), label="d")
        # down to the shortest window that covers the d + 1 regressors,
        # 1 / (1 - tau) = d + 1, where c grows by up to 2 a step
        tau = data.draw(st.floats(d / (d + 1), 1.0, exclude_min=True), label="tau")
        ridge_lambda = data.draw(st.sampled_from([1e-3, 0.5, 1.0, 40.0]), label="lambda")
        # past _FLUSH_STEPS, so a full block is stepped through
        n = data.draw(st.integers(1, 2 * _FLUSH_STEPS + 5), label="n")
        values = st.one_of(st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([0.0, -0.0]))
        rets = [data.draw(st.lists(values, min_size=d, max_size=d)) for _ in range(n)]
        state = CurdsWheyState(d, ridge_lambda, tau)
        reference = GeneralCurdsWhey(d, ridge_lambda, tau)
        got = [state.step(r) for r in rets]
        want = [reference.step_return(r) for r in rets]
        assert state.p_resets == reference.p_resets == reference.q_resets == 0
        if max(map(self.deviation, got, want)) <= self.TOLERANCE:
            return
        precise = precise_forecasts(rets, ridge_lambda, tau)
        error = max(map(self.deviation, got, precise))
        reference_error = max(map(self.deviation, want, precise))
        assert error <= self.ACCURACY_RATIO * reference_error

    # P shrinks fast against its last flushed value under a weak prior and
    # c grows fast under a short window; held as pending rows, such steps
    # cancelled S down to P / c and lost 5e-12 on 32 zero returns then a one
    # at lambda = 1e-3 and 4e-8 at tau = 0.55, lambda = 1
    @pytest.mark.parametrize(
        "d,ridge_lambda,tau,rets",
        [
            (1, 1e-3, 0.906, [[0.0]] * 32 + [[1.0], [0.5], [0.0]]),
            (2, 1e-3, 0.7, ar_stream(2, 69, seed=2)),
            (1, 1.0, 0.55, ar_stream(1, 69, seed=1)),
            (2, 1.0, 0.7, ar_stream(2, 69, seed=2)),
        ],
    )
    def test_fast_shrinking_p(self, d, ridge_lambda, tau, rets):
        state = CurdsWheyState(d, ridge_lambda, tau)
        reference = GeneralCurdsWhey(d, ridge_lambda, tau)
        for r in rets:
            assert self.deviation(state.step(r), reference.step_return(r)) <= self.TOLERANCE

    def test_indefinite_p(self):
        # rounding after a huge return can leave P indefinite with a positive
        # diagonal; a step whose scale is then negative has a downdate with
        # no real square root, which is applied at once as the old recursion
        # applies it. P = [[1, 2], [2, 1]] against x = (1, -2) gives scale
        # 1 - 3 / tau.
        P = [[1.0, 2.0], [2.0, 1.0]]
        state = CurdsWheyState(1, 1.0, 0.99)
        state._S[...] = P
        state._resync()
        state._x[0, 1:] = state._x[2, 1:] = state._y[0] = -2.0
        reference = GeneralCurdsWhey(1, 1.0, 0.99)
        # Q is P's Schur complement, 1 - 2 * 2 / 1
        reference.P, reference.Q = np.array(P), np.array([[-3.0]])
        reference.x_prev, reference.y_prev = np.array([1.0, -2.0]), np.array([-2.0])
        for r in ar_stream(1, 40, seed=4):
            got = state.step(r)
            want = reference.step_return(r)
            assert self.deviation(got, want) <= self.TOLERANCE
            assert np.isfinite(state.P).all()

    # 1e8 collapses a P diagonal below the reset floor in one step
    large = st.one_of(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1e8, -1e8]),
    )

    @given(data=st.data())
    def test_small_streams_through_resets(self, data):
        d = data.draw(st.integers(1, 8), label="d")
        tau = data.draw(st.floats(d / (d + 1), 1.0, exclude_min=True), label="tau")
        ridge_lambda = data.draw(st.sampled_from([1e-3, 0.5, 1.0, 40.0]), label="lambda")
        n = data.draw(st.integers(1, 2 * _FLUSH_STEPS + 5), label="n")
        rets = [data.draw(st.lists(self.large, min_size=d, max_size=d)) for _ in range(n)]
        state = CurdsWheyState(d, ridge_lambda, tau)
        reference = GeneralCurdsWhey(d, ridge_lambda, tau)
        comparable, large_seen = True, False
        for r in rets:
            # a 1e8 return along a direction in which P is already singular
            # meets rounding of P scaled by 1e16, so resets are compared only
            # while the old recursion's P has stayed positive definite by
            # more than rounding of its largest eigenvalue. Against a bare
            # sign test, the old recursion's own P and Q reset on different
            # days (d = 3, tau = 0.9296875, lambda = 1e-3, returns
            # (0, 0, 1e8), (1e8, 1e8, 0), (-1e8, -1e8, 0), (0, 0, 0): P
            # resets on the last step, Q does not; before it, P's smallest
            # eigenvalue is 5.6e-17 of its largest)
            eigenvalues = np.linalg.eigvalsh(reference.P)
            floor = (d + 1) * np.finfo(float).eps * eigenvalues[-1]
            comparable = comparable and eigenvalues[0] > floor
            resets = state.p_resets
            got = state.step(r)
            want = reference.step_return(r)
            assert np.isfinite(got.y_hat).all() and np.isfinite(got.y_tilde).all()
            P = state.P
            assert np.isfinite(P).all() and same_bits(P, P.T)
            if state.p_resets > resets:
                assert np.array_equal(P, np.eye(d + 1) / ridge_lambda)
            if comparable:
                assert state.p_resets == reference.p_resets == reference.q_resets
            # after a 1e8 return the forecasts are products of 1e8 with
            # rounding, not of the data
            large_seen = large_seen or bool(np.any(np.abs(r) == 1e8))
            if comparable and not large_seen:
                self.assert_close(got.y_hat, want.y_hat, self.TOLERANCE)
                self.assert_close(got.y_tilde, want.y_tilde, self.TOLERANCE)

    def test_p_reset_resets_derived_q(self):
        rng = np.random.default_rng(8)
        d = 4
        rets = rng.normal(size=(40, d))
        rets[3, 2] = 1e8
        state = CurdsWheyState(d, 1.0, 0.95)
        reference = GeneralCurdsWhey(d, 1.0, 0.95)
        for day, r in enumerate(rets):
            got = state.step(r)
            want = reference.step_return(r)
            if day == 4:
                # the 1e8 return is the lagged input of day 4's update; the old
                # recursion resets its own Q on the same day, and the derived
                # Q restarts from the prior with P
                assert state.p_resets == reference.p_resets == reference.q_resets == 1
                assert np.array_equal(state.P, np.eye(d + 1))
            if day < 3:
                self.assert_close(got.y_tilde, want.y_tilde, self.TOLERANCE)
            assert np.isfinite(got.y_tilde).all()
        assert (state.p_resets, state.q_resets) == (1, 0)

    def test_resets_agree_at_a_weak_prior(self):
        # a 1e8 return collapses a P diagonal to a few rounding units of the
        # prior's 1 / ridge_lambda; against an absolute floor, rounding
        # decided the reset at lambda = 1e-3, and the two recursions reset on
        # different days in about one such stream in seven. With the floor
        # scaled to the prior, about one in 6 000 still disagrees, by the
        # singular-P case that test_small_streams_through_resets describes
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            tau = float(rng.uniform(d / (d + 1), 1.0))
            rets = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 70)), d))
            large = rng.random(rets.shape) < 0.15
            rets[large] = rng.choice([0.0, -0.0, 1e8, -1e8], size=int(large.sum()))
            state = CurdsWheyState(d, 1e-3, tau)
            reference = GeneralCurdsWhey(d, 1e-3, tau)
            # compared while the old recursion's P stays positive definite,
            # as in test_small_streams_through_resets
            for r in rets:
                if not np.linalg.eigvalsh(reference.P).min() > 0.0:
                    break
                state.step(r)
                reference.step_return(r)
                assert state.p_resets == reference.p_resets == reference.q_resets


class TestBlockedUpdates:
    def test_step_allocates_no_matrix(self):
        d = 64
        rets = np.random.default_rng(9).normal(scale=0.01, size=(3 + _FLUSH_STEPS + 2, d))
        state = CurdsWheyState(d, 1.0, 0.999)
        for r in rets[:3]:
            state.step(r)
        peaks = []
        tracemalloc.start()
        try:
            for r in rets[3:]:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                state.step(r)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        # the steps cover a flush, which must write into preallocated scratch
        assert len(peaks) > _FLUSH_STEPS
        assert max(peaks) < d * d * 8

    def test_reading_matrices_changes_nothing(self):
        rets = ar_stream(3, 90, seed=1)
        reader = CurdsWheyState(3, 1.0, 0.99)
        twin = CurdsWheyState(3, 1.0, 0.99)
        for day, r in enumerate(rets):
            got = reader.step(r)
            want = twin.step(r)
            assert same_bits(got.y_tilde, want.y_tilde), day
            for name in ("theta", "P", "phi", "y_prev"):
                first = getattr(reader, name)
                first[...] = np.nan  # a read is a copy
                assert np.isfinite(getattr(reader, name)).all(), name
        for name in ("theta", "P", "phi", "y_prev"):
            assert same_bits(getattr(reader, name), getattr(twin, name)), name

    @pytest.mark.parametrize("name", ["theta", "P", "phi", "y_prev"])
    def test_readback_is_a_fresh_array(self, name):
        # 5 rows pending, so theta, P and phi are base plus pending rows
        state = CurdsWheyState(3, 1.0, 0.99)
        for r in ar_stream(3, _FLUSH_STEPS + 5, seed=14):
            state.step(r)
        first, second = getattr(state, name), getattr(state, name)
        assert first is not second and not np.shares_memory(first, second)
        for internal in vars(state).values():
            if isinstance(internal, np.ndarray):
                assert not np.shares_memory(first, internal)

    @pytest.mark.parametrize("tau", [0.5, 0.9, 0.99])
    def test_p_exactly_symmetric_at_each_step(self, tau):
        # at tau = 0.5 the forgetting window is shorter than d + 1 regressors
        rng = np.random.default_rng(3)
        state = CurdsWheyState(4, 1.0, tau)
        for _ in range(100):
            forecast = state.step(rng.normal(scale=0.01, size=4))
            P = state.P
            assert same_bits(P, P.T)
            assert np.isfinite(P).all() and np.isfinite(forecast.y_tilde).all()

    def test_matrices_stay_symmetric_and_finite_on_market_like_data(self):
        panel = simulate_jump_diffusion(
            JumpDiffusionConfig(volatility=0.015, jump_intensity=0.05, jump_stdev=0.03,
                                n_steps=10_000, n_assets=5, seed=21)
        )
        state = CurdsWheyState(5, 1.0, 0.999)
        for r in panel.returns:
            forecast = state.step(r)
            assert np.isfinite(forecast.y_tilde).all()
            P = state.P
            assert same_bits(P, P.T)
        assert state.p_resets == 0
        assert np.linalg.eigvalsh(state.P).min() > 0.0


class TestWeightedBatchEquivalence:
    """At tau < 1 both stages track a ridge with pair weights tau^(n-s) and prior tau^n lambda I."""

    # the largest relative error seen over d in {2, 5}, tau in {0.95, 0.999}
    # and lambda in {0.1, 10} on 300 steps was 3e-15
    TOLERANCE = 1e-10

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("tau", [0.95, 0.999])
    @pytest.mark.parametrize("ridge_lambda", [0.1, 10.0])
    def test_both_stages_match_weighted_ridge(self, d, tau, ridge_lambda):
        state = CurdsWheyState(d, ridge_lambda, tau)
        X, Y, Y_hat = run_stream(state, ar_stream(d, 300, seed=d * 31 + int(ridge_lambda)))
        # stage two pairs each previous target (zero on the first step) with y_hat
        lagged_targets = X[:, 1:]
        assert rel(state.theta, weighted_ridge(X, Y, ridge_lambda, tau).T) < self.TOLERANCE
        assert rel(state.P, np.linalg.inv(weighted_gram(X, ridge_lambda, tau))) < self.TOLERANCE
        phi_batch = weighted_ridge(lagged_targets, Y_hat, ridge_lambda, tau).T
        assert rel(state.phi, phi_batch) < self.TOLERANCE


class TestForgetting:
    def test_tracks_second_regime(self):
        rng = np.random.default_rng(3)
        d, n = 3, 400
        A1 = rng.normal(scale=0.3, size=(d, d + 1))
        A2 = rng.normal(scale=0.3, size=(d, d + 1))
        first = ar_stream(d, n // 2, seed=4, noise=0.3, mapping=A1)
        second = ar_stream(d, n // 2, seed=5, noise=0.3, mapping=A2)
        state = CurdsWheyState(d, 1.0, 0.99)
        run_stream(state, first)
        run_stream(state, second)
        assert np.linalg.norm(state.theta - A2) < np.linalg.norm(state.theta - A1)


class TestBatchSolvers:
    def test_zero_targets(self):
        X = np.ones((10, 1))
        assert np.array_equal(batch_ridge(X, np.zeros((10, 2)), 1.0), np.zeros((1, 2)))

    def test_heavy_penalty_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=(30, 2))
        theta = batch_ridge(X, Y, 1e12)
        assert np.abs(theta).max() < 1e-6

    def test_exact_recovery_with_tiny_penalty(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        truth = rng.normal(size=(3, 4))
        Y = X @ truth
        theta = batch_ridge(X, Y, 1e-8)
        assert np.abs(theta - truth).max() < 1e-5

    def test_shrinkage_self_prediction_is_identity(self):
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(200, 4))
        phi = batch_shrinkage(Y, Y, 1e-10)
        assert np.abs(phi - np.eye(4)).max() < 1e-6

    def test_shrinkage_zero_predictions(self):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(40, 3))
        assert np.abs(batch_shrinkage(Y, np.zeros_like(Y), 1.0)).max() == 0.0

    def test_solve_matches_explicit_inverse(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(60, 4))
        Y_hat = rng.normal(size=(60, 4))
        fast = batch_shrinkage(Y, Y_hat, 0.5)
        slow = np.linalg.inv(Y.T @ Y + 0.5 * np.eye(4)) @ Y.T @ Y_hat
        assert np.abs(fast - slow).max() < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            batch_ridge(np.ones((5, 2)), np.ones(5), 0.0)
        with pytest.raises(ValueError):
            batch_ridge(np.ones((5, 2)), np.ones(4), 1.0)

    @pytest.mark.parametrize("ridge_lambda", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_penalty(self, ridge_lambda):
        with pytest.raises(ValueError, match="ridge_lambda must be positive and finite"):
            batch_ridge(np.ones((5, 2)), np.ones(5), ridge_lambda)

    def test_needs_an_observation(self):
        with pytest.raises(ValueError, match="at least one observation"):
            batch_ridge(np.ones((0, 2)), np.ones((0, 1)), 1.0)

    def test_one_dimensional_target_is_one_column(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        theta = batch_ridge(X, y, 0.5)
        assert theta.shape == (3, 1)
        assert same_bits(theta, batch_ridge(X, y[:, None], 0.5))
