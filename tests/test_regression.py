"""Recursive-vs-batch equivalence, shrinkage oracles, and state hygiene."""

import json
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

from conftest import MISSING
from regression_oracle import oracle_step, weighted_gram, weighted_ridge


def linear_stream(d, n, seed, noise=0.01, mapping=None):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d + 1)) if mapping is None else mapping
    xs, ys = [], []
    for _ in range(n):
        x = np.concatenate([[1.0], rng.normal(scale=0.5, size=d)])
        ys.append(A @ x + noise * rng.normal(size=d))
        xs.append(x)
    return xs, ys


def run_stream(state, xs, ys):
    """Feed pairs through the state, returning the lagged design it trained on."""
    lagged, targets, y_hats = [], [], []
    for x, y in zip(xs, ys):
        lagged.append(state.x_prev.copy())
        targets.append(np.asarray(y, dtype=float))
        forecast = state.step(x, y)
        y_hats.append(forecast.y_hat.copy())
    return np.array(lagged), np.array(targets), np.array(y_hats)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_steps_match_oracle(d, ridge_lambda, tau, xs, ys):
    """Step a state and the pre-in-place oracle side by side; compare every bit after each step."""
    state = CurdsWheyState(d, ridge_lambda, tau)
    reference = CurdsWheyState(d, ridge_lambda, tau)
    for x, y in zip(xs, ys):
        got = state.step(x, y)
        want = oracle_step(reference, x, y)
        assert same_bits(got.y_hat, want.y_hat)
        assert same_bits(got.y_tilde, want.y_tilde)
        for name in ("theta", "P", "phi", "Q", "x_prev", "y_prev"):
            assert same_bits(getattr(state, name), getattr(reference, name)), name
        assert (state.t, state.p_resets, state.q_resets) == (reference.t, reference.p_resets, reference.q_resets)
        assert same_bits(state.P, state.P.T)
        assert same_bits(state.Q, state.Q.T)
    return state


class TestInit:
    def test_prior_matrices(self):
        state = CurdsWheyState(2, 1.0, 0.999)
        assert np.array_equal(state.P, np.eye(3))
        assert np.array_equal(state.Q, np.eye(2))
        assert np.array_equal(state.theta, np.zeros((2, 3)))
        assert np.array_equal(state.phi, np.zeros((2, 2)))
        assert np.array_equal(state.x_prev, [1.0, 0.0, 0.0])

    def test_prior_scales_with_penalty(self):
        state = CurdsWheyState(2, 4.0, 0.999)
        assert np.array_equal(state.P, np.eye(3) / 4.0)

    def test_fresh_forecast_is_zero(self):
        state = CurdsWheyState(3, 1.0, 0.9)
        forecast = state.forecast([1.0, 0.2, -0.1, 0.3])
        assert np.array_equal(forecast.y_hat, np.zeros(3))
        assert np.array_equal(forecast.y_tilde, np.zeros(3))

    def test_identity_shrinkage_passes_first_stage_through(self):
        state = CurdsWheyState(3, 1.0, 0.9)
        state.theta = np.arange(12, dtype=float).reshape(3, 4)
        state.phi = np.eye(3)
        forecast = state.forecast([1.0, 0.5, -0.5, 0.25])
        assert np.array_equal(forecast.y_tilde, forecast.y_hat)

    @pytest.mark.parametrize("d,lam,tau", [(0, 1.0, 0.9), (2, 0.0, 0.9), (2, -1.0, 0.9),
                                           (2, 1.0, 0.0), (2, 1.0, 1.5)])
    def test_domain(self, d, lam, tau):
        with pytest.raises(ValueError):
            CurdsWheyState(d, lam, tau)


class TestStep:
    def test_zero_target_keeps_zero_coefficients(self):
        state = CurdsWheyState(2, 1.0, 1.0)
        forecast = state.step([1.0, 0.0, 0.0], [0.0, 0.0])
        assert np.array_equal(state.theta, np.zeros((2, 3)))
        assert np.array_equal(forecast.y_hat, np.zeros(2))

    def test_two_step_trace_matches_accumulated_solve(self):
        # independent oracle: theta' = (lam*I + sum x x')^{-1} (sum x y) per step
        state = CurdsWheyState(1, 1.0, 1.0)
        pairs = [([1.0, 0.0], [1.0]), ([1.0, 1.0], [2.0]), ([1.0, -0.5], [0.5])]
        gram = np.eye(2)
        moment = np.zeros((2, 1))
        for x, y in pairs:
            xp = state.x_prev.copy()
            state.step(x, y)
            gram += np.outer(xp, xp)
            moment += np.outer(xp, y)
            expected = np.linalg.solve(gram, moment).T
            assert np.allclose(state.theta, expected, atol=1e-12)

    def test_input_validation(self):
        state = CurdsWheyState(2, 1.0, 0.9)
        with pytest.raises(ValueError, match="leading 1"):
            state.step([0.5, 0.1, 0.2], [0.0, 0.0])
        with pytest.raises(ValueError, match="shape"):
            state.step([1.0, 0.1], [0.0, 0.0])
        with pytest.raises(ValueError, match="shape"):
            state.step([1.0, 0.1, 0.2], [0.0])
        with pytest.raises(ValueError, match="non-finite"):
            state.step([1.0, np.inf, 0.2], [0.0, 0.0])


class TestBatchEquivalence:
    @pytest.mark.parametrize("d,n", [(2, 50), (5, 200)])
    def test_theta_and_p_match_batch(self, d, n):
        xs, ys = linear_stream(d, n, seed=d * 1000 + n)
        state = CurdsWheyState(d, 1.0, 1.0)
        X, Y, _ = run_stream(state, xs, ys)
        theta_batch = batch_ridge(X, Y, 1.0)
        rel = np.linalg.norm(state.theta - theta_batch.T) / np.linalg.norm(theta_batch)
        assert rel < 1e-6
        P_batch = np.linalg.inv(X.T @ X + np.eye(d + 1))
        assert np.linalg.norm(state.P - P_batch) / np.linalg.norm(P_batch) < 1e-6

    def test_recursive_phi_matches_batch(self):
        d, n = 3, 200
        xs, ys = linear_stream(d, n, seed=7)
        state = CurdsWheyState(d, 1.0, 1.0)
        _, Y, Y_hat = run_stream(state, xs, ys)
        # the shrinkage stage pairs each target with the next prediction;
        # its first pair (zero target) is a no-op
        phi_batch = batch_shrinkage(Y[:-1], Y_hat[1:], 1.0)
        rel = np.linalg.norm(state.phi - phi_batch.T) / np.linalg.norm(phi_batch)
        assert rel < 1e-5

    def test_forecast_matches_batch_composition(self):
        d, n = 3, 200
        xs, ys = linear_stream(d, n, seed=13)
        state = CurdsWheyState(d, 1.0, 1.0)
        X, Y, Y_hat = run_stream(state, xs, ys)
        theta_batch = batch_ridge(X, Y, 1.0).T
        phi_batch = batch_shrinkage(Y[:-1], Y_hat[1:], 1.0).T
        probe = np.concatenate([[1.0], np.linspace(-0.2, 0.2, d)])
        got = state.forecast(probe).y_tilde
        want = phi_batch @ theta_batch @ probe
        assert np.allclose(got, want, atol=1e-6)


class TestInPlaceStep:
    """The in-place step against the fresh-array, re-symmetrising oracle."""

    # 1e8 collapses a P or Q diagonal below the reset floor in one step
    values = st.one_of(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1e8, -1e8]),
    )

    @given(data=st.data())
    def test_bit_identical_to_oracle(self, data):
        d = data.draw(st.integers(1, 8), label="d")
        tau = data.draw(st.floats(0.9, 1.0, exclude_min=True), label="tau")
        ridge_lambda = data.draw(st.sampled_from([1e-3, 0.5, 1.0, 40.0]), label="lambda")
        n = data.draw(st.integers(1, 10), label="n")
        rows = st.lists(self.values, min_size=d, max_size=d)
        xs = [[1.0] + data.draw(rows) for _ in range(n)]
        ys = [data.draw(rows) for _ in range(n)]
        assert_steps_match_oracle(d, ridge_lambda, tau, xs, ys)

    def test_bit_identical_through_resets(self):
        rng = np.random.default_rng(8)
        d, n = 4, 12
        xs = [np.concatenate([[1.0], rng.normal(size=d)]) for _ in range(n)]
        ys = [rng.normal(size=d) for _ in range(n)]
        xs[3][2] = 1e8
        ys[6][1] = -1e8
        xs[7][1:] = -0.0
        ys[8][:] = -0.0
        state = assert_steps_match_oracle(d, 1.0, 0.95, xs, ys)
        assert state.p_resets > 0
        assert state.q_resets > 0

    def test_step_allocates_no_matrix(self):
        d = 64
        rng = np.random.default_rng(9)
        xs = [np.concatenate([[1.0], rng.normal(scale=0.01, size=d)]) for _ in range(4)]
        ys = [rng.normal(scale=0.01, size=d) for _ in range(4)]
        state = CurdsWheyState(d, 1.0, 0.999)
        for x, y in zip(xs[:3], ys[:3]):
            state.step(x, y)
        tracemalloc.start()
        try:
            state.step(xs[3], ys[3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8


class TestWeightedBatchEquivalence:
    """At tau < 1 both stages track a ridge with pair weights tau^(n-s) and prior tau^n lambda I."""

    # the largest relative error seen over d in {2, 5}, tau in {0.95, 0.99,
    # 0.999}, lambda in {0.1, 1, 10} and n in {50, 300} was 1.5e-14
    TOLERANCE = 1e-10

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("tau", [0.95, 0.999])
    @pytest.mark.parametrize("ridge_lambda", [0.1, 10.0])
    def test_both_stages_match_weighted_ridge(self, d, tau, ridge_lambda):
        xs, ys = linear_stream(d, 300, seed=d * 31 + int(ridge_lambda))
        state = CurdsWheyState(d, ridge_lambda, tau)
        X, Y, Y_hat = run_stream(state, xs, ys)
        # stage two pairs each previous target (zero on the first step) with y_hat
        lagged_targets = np.vstack([np.zeros(d), Y[:-1]])

        def rel(got, want):
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        assert rel(state.theta, weighted_ridge(X, Y, ridge_lambda, tau).T) < self.TOLERANCE
        assert rel(state.P, np.linalg.inv(weighted_gram(X, ridge_lambda, tau))) < self.TOLERANCE
        phi_batch = weighted_ridge(lagged_targets, Y_hat, ridge_lambda, tau).T
        assert rel(state.phi, phi_batch) < self.TOLERANCE


class TestForgetting:
    def test_tracks_second_regime(self):
        rng = np.random.default_rng(3)
        d, n = 3, 400
        A1 = rng.normal(size=(d, d + 1))
        A2 = rng.normal(size=(d, d + 1))
        state = CurdsWheyState(d, 1.0, 0.99)
        first, second = [], []
        for t in range(n):
            x = np.concatenate([[1.0], rng.normal(size=d)])
            A = A1 if t < n // 2 else A2
            y = A @ x + 0.01 * rng.normal(size=d)
            state.step(x, y)
            (first if t < n // 2 else second).append((x, y))
        B1 = batch_ridge(np.array([x for x, _ in first]), np.array([y for _, y in first]), 1.0).T
        B2 = batch_ridge(np.array([x for x, _ in second]), np.array([y for _, y in second]), 1.0).T
        assert np.linalg.norm(state.theta - B2) < np.linalg.norm(state.theta - B1)


class TestHygiene:
    def test_forecast_is_side_effect_free(self):
        xs, ys = linear_stream(2, 30, seed=1)
        state = CurdsWheyState(2, 1.0, 0.99)
        run_stream(state, xs, ys)
        snapshot = json.dumps(state.to_json_dict(), sort_keys=True)
        probe = [1.0, 0.05, -0.02]
        first = state.forecast(probe)
        for _ in range(5):
            again = state.forecast(probe)
            assert np.array_equal(again.y_hat, first.y_hat)
            assert np.array_equal(again.y_tilde, first.y_tilde)
        assert json.dumps(state.to_json_dict(), sort_keys=True) == snapshot

    def test_step_forecast_consistency(self):
        xs, ys = linear_stream(3, 40, seed=2)
        state = CurdsWheyState(3, 1.0, 0.995)
        for x, y in zip(xs, ys):
            stepped = state.step(x, y)
            readback = state.forecast(x)
            assert np.array_equal(stepped.y_hat, readback.y_hat)
            assert np.array_equal(stepped.y_tilde, readback.y_tilde)

    def test_symmetry_and_finiteness_on_market_like_data(self):
        panel = simulate_jump_diffusion(
            JumpDiffusionConfig(volatility=0.015, jump_intensity=0.05, jump_stdev=0.03,
                                n_steps=10_000, n_assets=5, seed=21)
        )
        rets = panel.returns
        state = CurdsWheyState(5, 1.0, 0.999)
        x = np.empty(6)
        x[0] = 1.0
        for i in range(rets.shape[0]):
            x[1:] = rets[i]
            forecast = state.step(x, rets[i])
            assert same_bits(state.P, state.P.T)
            assert same_bits(state.Q, state.Q.T)
            assert np.isfinite(forecast.y_tilde).all()
        assert state.p_resets == 0
        assert state.q_resets == 0
        assert np.linalg.eigvalsh(state.P).min() > 0.0
        assert np.linalg.eigvalsh(state.Q).min() > 0.0

    def test_serialisation_round_trip_resumes_identically(self):
        xs, ys = linear_stream(2, 80, seed=4)
        full = CurdsWheyState(2, 1.0, 0.999)
        run_stream(full, xs, ys)
        half = CurdsWheyState(2, 1.0, 0.999)
        run_stream(half, xs[:40], ys[:40])
        resumed = CurdsWheyState.from_json_dict(json.loads(json.dumps(half.to_json_dict())))
        run_stream(resumed, xs[40:], ys[40:])
        assert resumed.t == full.t
        assert np.array_equal(resumed.theta, full.theta)
        assert np.array_equal(resumed.P, full.P)
        assert np.array_equal(resumed.phi, full.phi)
        assert np.array_equal(resumed.Q, full.Q)

    def test_loaded_state_owns_its_arrays(self):
        xs, ys = linear_stream(2, 20, seed=6)
        source = CurdsWheyState(2, 1.0, 0.99)
        run_stream(source, xs[:10], ys[:10])
        names = ("theta", "P", "phi", "Q", "x_prev", "y_prev")
        payload = {**source.to_json_dict(), **{name: getattr(source, name) for name in names}}
        before = {name: payload[name].copy() for name in names}
        loaded = CurdsWheyState.from_json_dict(payload)
        run_stream(loaded, xs[10:], ys[10:])
        for name in names:
            assert same_bits(payload[name], before[name]), name

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("theta", [[0.0, 0.0, 0.0]], "theta must have shape"),
            ("P", [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]], "P contains non-finite"),
            ("phi", [[0.0, float("inf")], [0.0, 0.0]], "phi contains non-finite"),
            ("Q", [[1.0, 0.0], [0.0, float("-inf")]], "Q contains non-finite"),
            ("theta", [[0.0, float("nan"), 0.0]] * 2, "theta contains non-finite"),
            ("x_prev", [1.0, float("nan"), 0.0], "x_prev contains non-finite"),
            ("y_prev", [float("inf"), 0.0], "y_prev contains non-finite"),
            ("t", -1, "t must be >= 0"),
            ("p_resets", -2, "p_resets must be >= 0"),
            ("q_resets", -1, "q_resets must be >= 0"),
            ("P", [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "P must be symmetric"),
            ("Q", [[1.0, -0.0], [0.0, 1.0]], "Q must be symmetric"),
            ("x_prev", [0.5, 0.0, 0.0], "x_prev must carry a leading 1, got 0.5"),
            ("t", 2.5, "t must be an integer, got 2.5"),
            ("d", True, "d must be an integer, got True"),
            ("theta", MISSING, "theta is missing"),
        ],
    )
    def test_snapshot_validation(self, field, value, message):
        payload = CurdsWheyState(2, 1.0, 0.999).to_json_dict()
        if value is MISSING:
            del payload[field]
        else:
            payload[field] = value
        with pytest.raises(ValueError, match=message):
            CurdsWheyState.from_json_dict(payload)


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
