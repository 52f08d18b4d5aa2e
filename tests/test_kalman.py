"""Filter core: predict/update against independent oracles plus invariants."""

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

import oracles
from habdf import (
    ContractViolationError,
    DegenerateGeometryError,
    GaussianState,
    LinearModel,
    build_cv_model,
    build_track_model,
    kf_predict,
    kf_update,
)
from habdf import kalman
from habdf.kalman import COND_LIMIT, _BlockState, _check_factor, _cholesky


def random_model(rng, n, p):
    A = rng.normal(0, 0.5, (n, n)) + np.eye(n)
    C = rng.normal(0, 1, (p, n))
    Lw = rng.normal(0, 0.4, (n, n))
    Lv = rng.normal(0, 0.4, (p, p))
    Rww = Lw @ Lw.T + 0.1 * np.eye(n)
    Rvv = Lv @ Lv.T + 0.1 * np.eye(p)
    return LinearModel(A, C, Rww, Rvv)


def random_state(rng, n):
    L = rng.normal(0, 1, (n, n))
    return GaussianState(rng.normal(0, 5, n), L @ L.T + 0.5 * np.eye(n))


class TestGaussianState:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ContractViolationError):
            GaussianState([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite_cov(self):
        with pytest.raises(ContractViolationError):
            GaussianState([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nonfinite_mean(self):
        with pytest.raises(ContractViolationError):
            GaussianState([np.nan, 0.0], np.eye(2))

    def test_symmetrizes_within_tolerance(self):
        cov = np.array([[1.0, 0.3 + 1e-12], [0.3, 1.0]])
        s = GaussianState([0.0, 0.0], cov)
        assert np.array_equal(s.cov, s.cov.T)

    @pytest.mark.parametrize("n", [2, 8])
    def test_cov_that_overflows_when_symmetrized_is_refused(self, n):
        # m + m.T overflows past about 9e307; it used to store an inf
        # covariance (n = 2) or fail inside eigvalsh (n = 8).
        with pytest.raises(ContractViolationError, match="cov overflows when symmetrized"):
            GaussianState(np.zeros(n), 9e307 * np.eye(n))


class TestBlockState:
    """A block state holds positions, rates and the axis block (p00, p01, p11);
    its mean and covariance are built on first read: the concatenation, and
    P2 (x) I_k laid out entry by entry on +0.0 elsewhere. np.kron agrees up to
    the sign of zero, since it writes p01 * 0.0 off the diagonals."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        block=st.tuples(*[st.floats(-1e6, 1e6, allow_subnormal=True)] * 3),
    )
    def test_mean_and_cov_equal_the_explicit_layout_bit_for_bit(self, k, seed, block):
        rng = np.random.default_rng(seed)
        m0, m1 = rng.normal(0, 100, k), rng.normal(0, 5, k)
        p00, p01, p11 = block
        state = _BlockState(m0, m1, block)
        assert "mean" not in vars(state) and "cov" not in vars(state)
        want, d = np.zeros((2 * k, 2 * k)), np.arange(k)
        want[d, d], want[d, k + d], want[k + d, d], want[k + d, k + d] = p00, p01, p01, p11
        assert np.concatenate((m0, m1)).tobytes() == state.mean.tobytes()
        assert want.tobytes() == state.cov.tobytes()
        assert np.array_equal(np.kron([[p00, p01], [p01, p11]], np.eye(k)), state.cov)
        assert state.mean is state.mean and state.cov is state.cov
        assert isinstance(state, GaussianState) and state.dim == 2 * k

    def test_negative_zero_keeps_its_sign_in_mean_and_cov(self):
        state = _BlockState(np.array([-0.0]), np.array([0.0]), (-0.0, -0.0, 0.0))
        assert np.signbit(state.mean).tolist() == [True, False]
        assert np.signbit(state.cov).tolist() == [[True, True], [True, False]]

    @pytest.mark.parametrize("read_first", [False, True])
    def test_survives_deepcopy_and_pickle(self, read_first):
        state = _BlockState(np.array([1.0, 2.0]), np.array([0.5, -0.5]), (4.0, 1.0, 2.0))
        if read_first:
            state.cov
        for twin in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert type(twin) is _BlockState
            assert twin.P == state.P
            assert np.array_equal(twin.m0, state.m0) and np.array_equal(twin.m1, state.m1)
            assert np.array_equal(twin.mean, state.mean)
            assert np.array_equal(twin.cov, state.cov)

    def test_predict_reads_block_states_like_their_explicit_form(self):
        model = build_cv_model(2, 0.5, 2.0, 9.0)
        state = _BlockState(np.array([1.0, -3.0]), np.array([2.0, 0.25]), (40.0, 3.0, 7.0))
        got = kf_predict(state, model)
        want = kf_predict(GaussianState(state.mean, state.cov), model)
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.cov, want.cov)


class TestLinearModel:
    def test_rejects_nonpsd_noise(self):
        with pytest.raises(ContractViolationError):
            LinearModel(np.eye(2), np.eye(2), -np.eye(2), np.eye(2))

    def test_rejects_noise_that_overflows_when_symmetrized(self):
        with pytest.raises(ContractViolationError, match="Rww overflows when symmetrized"):
            LinearModel(np.eye(1), np.eye(1), [[9e307]], np.eye(1))


class TestPredict:
    def test_identity_dynamics_is_identity(self):
        model = LinearModel(np.eye(3), np.eye(3), np.zeros((3, 3)), np.eye(3))
        state = GaussianState([1.0, -2.0, 3.0], np.diag([1.0, 2.0, 3.0]))
        out = kf_predict(state, model)
        assert np.allclose(out.mean, state.mean)
        assert np.allclose(out.cov, state.cov)

    def test_constant_velocity_euler_step(self):
        model = build_cv_model(1, 1.0, 0.0, 1.0)
        out = kf_predict(GaussianState([0.0, 1.0], np.eye(2)), model)
        assert np.allclose(out.mean, [1.0, 1.0])

    def test_ten_steps_match_recursion_oracle(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 4, 2)
        state = random_state(rng, 4)
        m, P = state.mean.copy(), state.cov.copy()
        for _ in range(10):
            state = kf_predict(state, model)
            m, P = oracles.naive_predict(m, P, model.A, model.Rww)
        assert np.allclose(state.mean, m, atol=1e-12, rtol=1e-12)
        assert np.allclose(state.cov, P, atol=1e-12, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = build_cv_model(1, 1.0, 1.0, 1.0)
        with pytest.raises(ContractViolationError):
            kf_predict(GaussianState([0.0, 0.0, 0.0], np.eye(3)), model)


class TestUpdate:
    def test_near_exact_measurement_pulls_mean_to_y(self):
        model = LinearModel(np.eye(2), np.eye(2), np.zeros((2, 2)), 1e-12 * np.eye(2))
        state = GaussianState([0.0, 0.0], np.eye(2))
        post, _, _ = kf_update(state, model, [4.0, -1.0])
        assert np.allclose(post.mean, [4.0, -1.0], atol=1e-6)

    def test_scalar_halving_gain(self):
        model = LinearModel(np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1))
        state = GaussianState([0.0], np.eye(1))
        post, innov, S = kf_update(state, model, [2.0])
        assert post.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert innov[0] == pytest.approx(2.0)
        assert S[0, 0] == pytest.approx(2.0)

    def test_fifty_updates_match_inverse_oracle(self):
        rng = np.random.default_rng(7)
        model = build_track_model(1.0, 0.5, 9.0)
        state = GaussianState(rng.normal(0, 10, 8), 100.0 * np.eye(8))
        m, P = state.mean.copy(), state.cov.copy()
        for _ in range(50):
            y = rng.normal(0, 20, 4)
            state = kf_predict(state, model)
            m, P = oracles.naive_predict(m, P, model.A, model.Rww)
            state, _, _ = kf_update(state, model, y)
            m, P = oracles.naive_update(m, P, model.C, model.Rvv, y)
            assert np.allclose(state.mean, m, atol=1e-9, rtol=1e-9)
            assert np.allclose(state.cov, P, atol=1e-9, rtol=1e-9)

    def test_singular_innovation_raises_with_condition(self):
        model = LinearModel(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]),
                            np.zeros((2, 2)), np.zeros((2, 2)))
        state = GaussianState([0.0, 0.0], np.eye(2))
        with pytest.raises(DegenerateGeometryError) as exc:
            kf_update(state, model, [1.0, 1.0])
        assert exc.value.condition > 1e12 or not np.isfinite(exc.value.condition)

    def test_near_singular_stacked_update_still_refused(self):
        # Two copies of one row: S has eigenvalues 2e7 and 1e-6 (cond 2e13).
        # S still factors, so only the diagonal-ratio check can refuse it.
        C, P, R = np.array([[1.0], [1.0]]), np.array([[1e7]]), 1e-6 * np.eye(2)
        np.linalg.cholesky(C @ P @ C.T + R)
        model = LinearModel(np.eye(1), C, np.zeros((1, 1)), R)
        with pytest.raises(DegenerateGeometryError) as exc:
            kf_update(GaussianState([0.0], P), model, [1.0, 1.0])
        assert exc.value.condition > 1e12

    @pytest.mark.parametrize("n, p, copies", [(2, 1, 1), (8, 4, 1), (8, 4, 3), (6, 2, 5)])
    def test_equals_joseph_form_written_out_bit_for_bit(self, n, p, copies):
        # The update reuses C P, the innovation and a cached identity; the
        # result must equal the textbook sequence, product for product.
        rng = np.random.default_rng(n * 100 + p * 10 + copies)
        base = random_model(rng, n, p)
        C = np.vstack([base.C] * copies)
        R = np.diag(rng.uniform(0.1, 10.0, p * copies))
        model = LinearModel(base.A, C, base.Rww, R)
        state = random_state(rng, n)
        for _ in range(5):
            state = kf_predict(state, model)
            y = C @ state.mean + rng.normal(0, 3, C.shape[0])
            m, P = state.mean, state.cov
            innovation = y - C @ m
            S = C @ P @ C.T + R
            S = 0.5 * (S + S.T)
            K = cho_solve(cho_factor(S, lower=True), C @ P).T
            I_KC = np.eye(n) - K @ C
            cov = I_KC @ P @ I_KC.T + K @ R @ K.T

            post, got_innovation, got_S = kf_update(state, model, y)
            assert np.array_equal(got_innovation, innovation)
            assert np.array_equal(got_S, S)
            assert np.array_equal(post.mean, m + K @ innovation)
            assert np.array_equal(post.cov, 0.5 * (cov + cov.T))
            state = post

    def test_finite_measurement_whose_sum_overflows_is_accepted_without_warning(self):
        # The sum (and y . y) overflows to inf, so the scalar test fails and the
        # array test decides: every entry is finite, so the update runs.
        model = LinearModel(np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2))
        state = GaussianState([0.0, 0.0], np.eye(2))
        y = np.array([1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post, innovation, _ = kf_update(state, model, y)
        assert np.array_equal(innovation, y)
        np.testing.assert_allclose(post.mean, y / 2, rtol=1e-12)

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, np.inf],
                                     [1e200, np.nan]])
    def test_nonfinite_measurement_refused_with_the_same_message(self, bad):
        model = LinearModel(np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ContractViolationError,
                           match="^measurement contains non-finite entries$"):
            kf_update(GaussianState([0.0, 0.0], np.eye(2)), model, bad)

    @pytest.mark.parametrize("seed", range(6))
    def test_posterior_equals_the_potrf_then_potrs_route_bit_for_bit(self, seed):
        # posv runs potrf then potrs; the gain, and so every posterior bit, must
        # equal the two calls made one after the other.
        rng = np.random.default_rng(seed)
        for n, p, copies in ((2, 1, 1), (8, 4, 3), (8, 4, 8), (5, 3, 2)):
            base = random_model(rng, n, p)
            C = np.vstack([base.C] * copies)
            R = np.diag(rng.uniform(1e-3, 1e3, p * copies))
            model = LinearModel(base.A, C, base.Rww, R)
            state = kf_predict(random_state(rng, n), model)
            y = C @ state.mean + rng.normal(0, 3, C.shape[0])
            m, P = state.mean, state.cov
            S = C @ P @ C.T + R
            S = 0.5 * (S + S.T)
            L, info = dpotrf(S, lower=1)
            assert info == 0
            K = dpotrs(L, C @ P, lower=1)[0].T
            I_KC = np.eye(n) - K @ C
            cov = I_KC @ P @ I_KC.T + K @ R @ K.T
            post = kf_update(state, model, y)[0]
            assert post.mean.tobytes() == (m + K @ (y - C @ m)).tobytes()
            assert post.cov.tobytes() == (0.5 * (cov + cov.T)).tobytes()

    @staticmethod
    def _refused_alike(state, model, y):
        """kf_update's error equals _check_factor's at COND_LIMIT on one S: message and cond."""
        S = model.C @ state.cov @ model.C.T + model.Rvv
        S = 0.5 * (S + S.T)
        with pytest.raises(DegenerateGeometryError) as want:
            _check_factor(S, *dpotrf(S, lower=1), COND_LIMIT)
        with pytest.raises(DegenerateGeometryError) as got:
            kf_update(state, model, y)
        assert (str(got.value), got.value.condition) == (str(want.value), want.value.condition)
        return got.value

    def test_not_positive_definite_innovation_is_refused_as_by_cholesky(self):
        # A trusted model can carry an indefinite Rvv; S = diag(-1, 2) fails to factor.
        model = kalman._trusted(LinearModel, A=np.eye(2), C=np.eye(2),
                                Rww=np.zeros((2, 2)), Rvv=np.diag([-2.0, 1.0]))
        err = self._refused_alike(GaussianState([0.0, 0.0], np.eye(2)), model, [1.0, 1.0])
        assert err.condition == pytest.approx(2.0, rel=1e-12)

    def test_factor_ratio_past_cond_limit_is_refused_as_by_cholesky(self):
        # S = diag(1e-7, 1e6) factors; only the squared diagonal ratio, 1e13, refuses it.
        model = LinearModel(np.eye(2), np.eye(2), np.zeros((2, 2)), np.diag([1e-7, 1e6]))
        err = self._refused_alike(GaussianState([0.0, 0.0], np.zeros((2, 2))), model, [1.0, 1.0])
        assert COND_LIMIT < err.condition < np.inf

    def test_nan_carrying_innovation_is_refused_as_by_cholesky(self):
        R = np.eye(4)
        R[2, 1] = R[1, 2] = np.nan
        model = kalman._trusted(LinearModel, A=np.eye(4), C=np.eye(4),
                                Rww=np.zeros((4, 4)), Rvv=R)
        err = self._refused_alike(GaussianState(np.zeros(4), np.eye(4)), model, np.ones(4))
        assert err.condition == np.inf

    @pytest.mark.parametrize("at", range(4))
    def test_nan_on_the_factor_diagonal_is_refused(self, monkeypatch, at):
        # As for _cholesky: a factor with info 0 but a NaN on its diagonal.
        L = np.diag([2.0, 3.0, 4.0, 5.0])
        L[at, at] = np.nan
        monkeypatch.setattr(kalman, "dposv", lambda S, b, lower: (L.copy(), b.copy(), 0))
        model = LinearModel(np.eye(4), np.eye(4), np.zeros((4, 4)),
                            np.diag([3.0, 8.0, 15.0, 24.0]))
        with pytest.raises(DegenerateGeometryError) as exc:
            kf_update(GaussianState(np.zeros(4), np.eye(4)), model, np.ones(4))
        assert exc.value.condition == np.linalg.cond(np.diag([4.0, 9.0, 16.0, 25.0]))

    def test_update_never_inflates_observed_covariance(self):
        rng = np.random.default_rng(3)
        model = LinearModel(np.eye(3), np.eye(3), 0.1 * np.eye(3), 2.0 * np.eye(3))
        state = random_state(rng, 3)
        post, _, _ = kf_update(state, model, rng.normal(0, 5, 3))
        assert np.trace(post.cov) <= np.trace(state.cov) + 1e-12


class TestCholesky:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=-6.0, max_value=6.0), st.integers(min_value=0, max_value=2**32 - 1))
    def test_lower_factor_matches_numpy_up_to_cond_1e10(self, n, log_cond, log_scale, seed):
        S = oracles.spd_with_cond(np.random.default_rng(seed), n, log_cond, log_scale)
        want = np.linalg.cholesky(S)
        # Only the lower triangle is ever read. The two LAPACK builds may
        # round differently; 1e-8 of the largest entry is far above that.
        np.testing.assert_allclose(np.tril(_cholesky(S)), want, rtol=0.0,
                                   atol=1e-8 * np.abs(want).max())

    def test_indefinite_raises_with_finite_condition(self):
        with pytest.raises(DegenerateGeometryError) as exc:
            _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.condition == pytest.approx(3.0, rel=1e-12)

    def test_nan_raises_degenerate_geometry(self):
        S = np.eye(4)
        S[2, 1] = S[1, 2] = np.nan
        with pytest.raises(DegenerateGeometryError) as exc:
            _cholesky(S)
        # No condition number exists for a matrix with NaN entries.
        assert exc.value.condition == np.inf

    @pytest.mark.parametrize("at", range(4))
    def test_nan_on_the_factor_diagonal_is_refused_at_every_position(self, monkeypatch, at):
        # OpenBLAS can return a NaN factor with info 0. The ratio test's min and
        # max skip a NaN that does not come first; the refusal must not.
        S = np.diag([4.0, 9.0, 16.0, 25.0])
        L = np.diag([2.0, 3.0, 4.0, 5.0])
        L[at, at] = np.nan
        monkeypatch.setattr(kalman, "dpotrf", lambda S, lower: (L.copy(), 0))
        for factor in (lambda: _cholesky(S), lambda: _check_factor(S, L.copy(), 0, COND_LIMIT)):
            with pytest.raises(DegenerateGeometryError) as exc:
                factor()
            assert exc.value.condition == np.linalg.cond(S)

    def test_factor_ratio_above_limit_raises_with_finite_condition(self):
        S = np.diag([1e-7, 1e6])  # squared diagonal ratio 1e13
        _cholesky(S)  # no limit: factors
        with pytest.raises(DegenerateGeometryError) as exc:
            _check_factor(S, *dpotrf(S, lower=1), COND_LIMIT)
        assert COND_LIMIT < exc.value.condition < np.inf


class TestOneDimAgainstGridFilter:
    def test_twenty_step_means_match_grid_recursion(self):
        a, q, c, r = 0.97, 0.08, 1.0, 0.4
        rng = np.random.default_rng(21)
        ys = rng.normal(0, 1.0, 20)
        model = LinearModel([[a]], [[c]], [[q]], [[r]])
        state = GaussianState([0.5], [[1.0]])
        means = []
        for y in ys:
            state = kf_predict(state, model)
            state, _, _ = kf_update(state, model, [y])
            means.append(state.mean[0])
        grid = oracles.grid_filter_means(a, q, c, r, 0.5, 1.0, ys)
        assert np.allclose(means, grid, atol=1e-3)


class TestBuildModels:
    def test_position_gains_velocity_coupling(self):
        model = build_track_model(dt=1.0)
        assert model.A[0, 4] == 1.0
        assert model.A.shape == (8, 8)

    def test_zero_accel_var_gives_zero_process_noise(self):
        model = build_track_model(dt=1.0, accel_var=0.0)
        assert np.array_equal(model.Rww, np.zeros((8, 8)))

    def test_process_noise_matches_dwna_oracle(self):
        for n_axes, dt, av in [(1, 1.0, 1.0), (4, 1.0, 1.0), (2, 0.3, 2.5)]:
            model = build_cv_model(n_axes, dt, av, 1.0)
            assert np.allclose(model.Rww, oracles.dwna_cov(n_axes, dt, av),
                               atol=1e-15, rtol=1e-12)

    def test_measurement_selects_positions(self):
        model = build_track_model(meas_var=25.0)
        x = np.arange(8.0)
        assert np.array_equal(model.C @ x, x[:4])
        assert np.array_equal(model.Rvv, 25.0 * np.eye(4))

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ContractViolationError):
            build_cv_model(1, 0.0, 1.0, 1.0)
        with pytest.raises(ContractViolationError):
            build_cv_model(1, -1.0, 1.0, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("dt, accel_var, meas_var", [
        (1.0, 1.0, 25.0), (0.3, 2.5, 9.0), (1.0 / 30.0, 0.0, 0.5), (2.5, 1e-3, 1e4),
    ])
    def test_matrices_equal_explicit_layout_bit_for_bit(self, k, dt, accel_var, meas_var):
        # Written entry by entry in the positions-first layout; the DWNA noise
        # is accel_var * g_a * g_b with g = (dt^2 / 2, dt).
        n = 2 * k
        g = (0.5 * dt * dt, dt)
        A, C, Rww = np.zeros((n, n)), np.zeros((k, n)), np.zeros((n, n))
        for i in range(k):
            axis = (i, k + i)
            A[i, i] = A[k + i, k + i] = 1.0
            A[i, k + i] = dt
            C[i, i] = 1.0
            for a in range(2):
                for b in range(2):
                    Rww[axis[a], axis[b]] = accel_var * (g[a] * g[b])
        model = build_cv_model(k, dt, accel_var, meas_var)
        want = (A, C, Rww, meas_var * np.eye(k))
        for got, expected in zip((model.A, model.C, model.Rww, model.Rvv), want):
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_cv_model_arrays_are_read_only(self):
        model = build_track_model()
        for a in (model.A, model.C, model.Rww, model.Rvv):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_overflowing_process_noise_is_a_contract_error(self):
        with np.errstate(all="ignore"), pytest.raises(ContractViolationError, match="Rww"):
            build_cv_model(1, 1e80, 1.0, 1.0)


@st.composite
def model_and_state(draw):
    n_axes = draw(st.integers(min_value=1, max_value=3))
    dt = draw(st.floats(min_value=0.1, max_value=2.0))
    av = draw(st.floats(min_value=0.0, max_value=5.0))
    mv = draw(st.floats(min_value=0.1, max_value=50.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = 2 * n_axes
    L = rng.normal(0, 1, (n, n))
    state = GaussianState(rng.normal(0, 10, n), L @ L.T + 0.5 * np.eye(n))
    return build_cv_model(n_axes, dt, av, mv), state, rng


class TestInvariantProperties:
    @settings(max_examples=60, deadline=None)
    @given(model_and_state())
    def test_predict_update_preserves_symmetry_and_psd(self, bundle):
        model, state, rng = bundle
        tol = 1e-9
        for _ in range(5):
            state = kf_predict(state, model)
            y = model.C @ state.mean + rng.normal(0, 3, model.meas_dim)
            state, _, _ = kf_update(state, model, y)
            scale = max(1.0, float(np.abs(state.cov).max()))
            assert np.allclose(state.cov, state.cov.T, atol=tol * scale)
            assert np.linalg.eigvalsh(state.cov).min() >= -tol * scale


@st.composite
def stacked_center_update(draw):
    # The fusion centre's stacked shape: m copies of the track C, noise
    # diag(r_i I_4) with r_i over 1e-3..1e3, prior covariance cond up to 1e10.
    m = draw(st.integers(min_value=1, max_value=8))
    r = [10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)) for _ in range(m)]
    log_cond = draw(st.floats(min_value=0.0, max_value=10.0))
    log_scale = draw(st.floats(min_value=-6.0, max_value=4.0 - log_cond))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = build_track_model()
    C = np.vstack([base.C] * m)
    R = np.diag(np.repeat(r, base.meas_dim))
    model = LinearModel(base.A, C, base.Rww, R)
    state = GaussianState(rng.normal(0, 100, 8), oracles.spd_with_cond(rng, 8, log_cond, log_scale))
    y = C @ state.mean + rng.normal(0, 10, C.shape[0])
    return model, state, y


class TestStackedUpdateOracle:
    @settings(max_examples=100, deadline=None)
    @given(stacked_center_update())
    def test_matches_inverse_oracle(self, bundle):
        model, state, y = bundle
        post, _, _ = kf_update(state, model, y)
        mean, cov = oracles.naive_update(state.mean, state.cov, model.C, model.Rvv, y)
        # cond(S) stays below ~1e8 here, so both solves agree far inside 1e-6.
        assert np.allclose(post.mean, mean, rtol=1e-6, atol=1e-6)
        assert np.allclose(post.cov, cov, rtol=0.0, atol=1e-6 * np.abs(state.cov).max())


def _tiny(**kw):
    """LinearModel arguments of a 2-state, 1-output model, with ``kw`` replacing some."""
    return {"A": np.eye(2), "C": np.ones((1, 2)), "Rww": np.eye(2), "Rvv": np.eye(1), **kw}


class TestRefusals:
    """Each public check refuses its own bad input with its own message. The
    filter builds per-frame values with no check at all, which is only safe
    while these checks hold at the public constructors and functions."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: GaussianState(np.zeros(2), np.zeros(2)),
                     r"cov must be a 2-D array, got ndim=1", id="cov-not-2d"),
        pytest.param(lambda: GaussianState(np.zeros(2), np.zeros((2, 3))),
                     r"cov must be square, got \(2, 3\)", id="cov-not-square"),
        pytest.param(lambda: GaussianState(np.zeros((2, 1)), np.eye(2)),
                     r"mean must be 1-D, got ndim=2", id="mean-not-1d"),
        pytest.param(lambda: GaussianState(np.zeros(3), np.eye(2)),
                     r"cov shape \(2, 2\) does not match mean length 3", id="cov-vs-mean"),
        pytest.param(lambda: LinearModel(**_tiny(A=np.zeros((2, 3)))),
                     r"A must be square, got \(2, 3\)", id="A-not-square"),
        pytest.param(lambda: LinearModel(**_tiny(C=np.ones((1, 3)))),
                     r"C cols 3 != state dim 2", id="C-cols"),
        pytest.param(lambda: LinearModel(**_tiny(Rww=np.eye(3))),
                     r"Rww shape \(3, 3\) != \(2, 2\)", id="Rww-shape"),
        pytest.param(lambda: LinearModel(**_tiny(Rvv=np.eye(2))),
                     r"Rvv shape \(2, 2\) != \(1, 1\)", id="Rvv-shape"),
        pytest.param(lambda: kf_update(GaussianState(np.zeros(3), np.eye(3)),
                                       LinearModel(**_tiny()), [1.0]),
                     r"state dim 3 != model state dim 2", id="update-state-dim"),
        pytest.param(lambda: kf_update(GaussianState(np.zeros(2), np.eye(2)),
                                       LinearModel(**_tiny()), [1.0, 2.0]),
                     r"measurement shape \(2,\) != \(1,\)", id="measurement-shape"),
        pytest.param(lambda: build_cv_model(0, 1.0, 1.0, 1.0),
                     r"n_axes must be an integer >= 1, got 0", id="n-axes"),
        pytest.param(lambda: build_cv_model(1, 1.0, -1.0, 1.0),
                     r"accel_var must be >= 0 and finite, got -1.0", id="accel-var"),
    ])
    def test_bad_input_is_refused_naming_its_check(self, call, message):
        with pytest.raises(ContractViolationError, match=message):
            call()
