"""Reliability scoring: distances, sigmoid penalty, calibration, staleness."""

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrtrs
from scipy.special import expit

import oracles
from habdf import (
    ContractViolationError,
    DegenerateGeometryError,
    Expert,
    ExpertConfig,
    ExpertReport,
    GaussianState,
    LinearModel,
    build_cv_model,
    build_track_model,
    chi2_xi,
    kf_predict,
    kf_update,
    local_weight,
    mahalanobis,
    mahalanobis_diag,
)
from habdf.experts import _W_HI, _W_LO, _BlockReport
from habdf.kalman import _BlockState, _cholesky


class TestMahalanobis:
    def test_identity_cov_is_euclidean(self):
        assert mahalanobis([3.0, 4.0], [0.0, 0.0], np.eye(2)) == pytest.approx(5.0, abs=1e-12)

    def test_diagonal_cov_standardizes(self):
        d = mahalanobis([2.0, 1.0], [0.0, 0.0], np.diag([4.0, 1.0]))
        assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_correlated_cov_matches_inverse_oracle(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        d = mahalanobis([1.0, 1.0], [0.0, 0.0], C)
        assert d == pytest.approx(0.816496580927726, abs=1e-12)
        q = np.array([1.0, 1.0])
        assert d == pytest.approx(float(np.sqrt(q @ np.linalg.inv(C) @ q)), abs=1e-12)

    def test_zero_iff_at_mean(self):
        assert mahalanobis([1.0, 2.0], [1.0, 2.0], np.eye(2)) == 0.0
        assert mahalanobis([1.0, 2.0], [1.0, 2.1], np.eye(2)) > 0.0

    def test_singular_cov_raises(self):
        with pytest.raises(DegenerateGeometryError):
            mahalanobis([1.0, 0.0], [0.0, 0.0], np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_ignores_cond_limit(self):
        # cond 1e13 is past kf_update's COND_LIMIT; the distance stays exact.
        d = mahalanobis([1e-3, 2e3], [0.0, 0.0], np.diag([1e-7, 1e6]))
        assert d == pytest.approx(np.sqrt(14.0), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=-6.0, max_value=6.0), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_inverse_oracle_up_to_cond_1e10(self, p, log_cond, log_scale, seed):
        rng = np.random.default_rng(seed)
        cov = oracles.spd_with_cond(rng, p, log_cond, log_scale)
        q = rng.normal(0, 1, p) * 10.0 ** (0.5 * log_scale)
        expect = float(np.sqrt(q @ np.linalg.inv(cov) @ q))
        # Either form loses up to cond * eps ~ 2e-6 relative at cond 1e10.
        assert mahalanobis(q, np.zeros(p), cov) == pytest.approx(expect, rel=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=-6.0, max_value=6.0), st.integers(min_value=0, max_value=2**32 - 1))
    def test_equals_norm_of_whitened_residual_bit_for_bit(self, p, log_cond, log_scale, seed):
        rng = np.random.default_rng(seed)
        cov = oracles.spd_with_cond(rng, p, log_cond, log_scale)
        y, mu = rng.normal(0, 100, p), rng.normal(0, 100, p)
        z = dtrtrs(_cholesky(cov), y - mu, lower=1)[0]
        assert mahalanobis(y, mu, cov) == float(np.linalg.norm(z))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(0, 3, 3)
        L = rng.normal(0, 1, (3, 3))
        C = L @ L.T + 0.5 * np.eye(3)
        Q, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
        base = mahalanobis(q, np.zeros(3), C)
        rotated = mahalanobis(Q @ q, np.zeros(3), Q @ C @ Q.T)
        assert rotated == pytest.approx(base, abs=1e-9, rel=1e-9)


class TestMahalanobisDiag:
    def test_per_component_sum(self):
        d = mahalanobis_diag([2.0, 1.0], [0.0, 0.0], [4.0, 1.0])
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_zero_residual(self):
        assert mahalanobis_diag([1.0, 2.0], [1.0, 2.0], [4.0, 1.0]) == 0.0

    def test_single_component_equals_exact_form(self):
        approx = mahalanobis_diag([5.0], [0.0], [25.0])
        exact = mahalanobis([5.0], [0.0], [[25.0]])
        assert approx == pytest.approx(1.0, abs=1e-12)
        assert approx == pytest.approx(exact, abs=1e-12)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ContractViolationError):
            mahalanobis_diag([1.0], [0.0], [0.0])
        with pytest.raises(ContractViolationError):
            mahalanobis_diag([1.0], [0.0], [-1.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_upper_bounds_exact_on_diagonal_covs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        q = rng.normal(0, 5, n)
        c = rng.uniform(0.1, 10.0, n)
        approx = mahalanobis_diag(q, np.zeros(n), c)
        exact = mahalanobis(q, np.zeros(n), np.diag(c))
        assert approx >= exact - 1e-12


class TestLocalWeight:
    def test_midpoint_exact(self):
        for xi in (0.5, 1.0, 3.0802, 7.0):
            assert local_weight(xi, xi) == pytest.approx(0.5, abs=1e-12)

    def test_analytic_three_quarters_point(self):
        xi = 2.0
        assert local_weight(xi + np.log(3.0), xi) == pytest.approx(0.75, abs=1e-12)

    def test_nominal_floor_value(self):
        assert local_weight(0.0, 3.0802) == pytest.approx(0.0439, abs=1e-4)
        assert local_weight(0.0, 3.0802) == pytest.approx(0.04393141434084288, abs=1e-12)

    def test_stays_inside_open_interval_under_saturation(self):
        assert 0.0 < local_weight(0.0, 800.0) < 1.0
        assert 0.0 < local_weight(800.0, 1.0) < 1.0

    def test_negative_md_rejected(self):
        with pytest.raises(ContractViolationError):
            local_weight(-0.1, 1.0)

    @pytest.mark.parametrize("num", [float, np.float64])
    def test_guards_hold_for_python_and_numpy_scalars(self, num):
        for md, xi in ((np.nan, 1.0), (-0.1, 1.0), (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)):
            with pytest.raises(ContractViolationError):
                local_weight(num(md), num(xi))
        # An infinite distance is a valid, maximally distrusted reading.
        assert local_weight(num(np.inf), num(1.0)) == float(np.nextafter(1.0, 0.0))

    @staticmethod
    def clamped_expit(md, xi):
        # The scipy form the Python-float sigmoid replaced, with the same clamp.
        return min(max(float(expit(md - xi)), _W_LO), _W_HI)

    @settings(max_examples=300, deadline=None)
    @given(d=st.floats(min_value=-800.0, max_value=800.0), base=st.floats(0.0, 50.0))
    @example(d=-709.78, base=0.0)
    @example(d=-709.79, base=0.0)
    @example(d=709.78, base=0.0)
    @example(d=709.79, base=3.0)
    @example(d=-800.0, base=0.0)
    def test_equals_clamped_expit_bit_for_bit(self, d, base):
        # md - xi spans [-800, 800], past math.exp's overflow at about 709.78.
        md = base + max(d, 0.0)
        xi = md - d
        assert local_weight(md, xi).hex() == self.clamped_expit(md, xi).hex()

    def test_equals_clamped_expit_on_a_grid_and_at_infinite_md(self):
        # md - xi = d exactly: md = d, xi = 0 for d >= 0; md = 0, xi = -d below.
        for d in np.linspace(-800.0, 800.0, 16001).tolist():
            md, xi = max(d, 0.0), max(-d, 0.0)
            assert local_weight(md, xi).hex() == self.clamped_expit(md, xi).hex(), d
        for xi in (1e-3, 3.08, 709.78, 1e300):
            assert local_weight(math.inf, xi) == self.clamped_expit(math.inf, xi) == _W_HI

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=0.01, max_value=30.0),
           st.floats(min_value=1e-6, max_value=5.0))
    def test_monotone_in_md(self, md, xi, step):
        lo, hi = local_weight(md, xi), local_weight(md + step, xi)
        assert hi >= lo
        # strict where float64 can still resolve the sigmoid slope
        if abs(md - xi) <= 12.0 and abs(md + step - xi) <= 12.0 and step >= 1e-3:
            assert hi > lo


class TestChi2Xi:
    def test_frozen_quantile_roots(self):
        assert chi2_xi(4, 0.95) == pytest.approx(3.0802, abs=1e-4)
        assert chi2_xi(1, 0.6827) == pytest.approx(1.0000, abs=1e-4)
        assert chi2_xi(2, 0.95) == pytest.approx(2.4477, abs=1e-4)

    def test_matches_gamma_cdf_oracle(self):
        for dof, conf in [(1, 0.6827), (2, 0.95), (4, 0.95), (4, 0.5), (9, 0.99)]:
            assert chi2_xi(dof, conf) == pytest.approx(
                oracles.chi2_quantile_sqrt(dof, conf), abs=1e-9)

    def test_equals_scipy_stats_chi2_ppf_bit_for_bit(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(0)
        conf = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 200), rng.uniform(0.0, 1.0, 196),
                               [1e-300, 1e-12, 0.5, np.nextafter(1.0, 0.0)]])
        dof = np.arange(1, 65)
        want = np.sqrt(chi2.ppf(conf[None, :], dof[:, None]))
        got = np.array([[chi2_xi(int(d), float(c)) for c in conf] for d in dof])
        assert np.array_equal(got, want)

    def test_bad_confidence_rejected(self):
        for conf in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ContractViolationError):
                chi2_xi(4, conf)

    def test_bad_dof_rejected(self):
        with pytest.raises(ContractViolationError):
            chi2_xi(0, 0.95)


class TestExpertReportContract:
    STATE = _BlockState(np.zeros(1), np.zeros(1), (1.0, 0.0, 1.0))

    def test_rejects_out_of_range_weight(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ContractViolationError, match="w_M must lie in"):
                ExpertReport(self.STATE, np.zeros(1), np.eye(1), 0.0, bad, 0)

    def test_rejects_negative_md(self):
        with pytest.raises(ContractViolationError, match="md must be finite and >= 0"):
            ExpertReport(self.STATE, np.zeros(1), np.eye(1), -1.0, 0.5, 0)

    @pytest.mark.parametrize("md", [np.inf, np.nan])
    def test_rejects_nonfinite_md(self, md):
        with pytest.raises(ContractViolationError, match="md must be finite and >= 0"):
            ExpertReport(self.STATE, np.zeros(1), np.eye(1), md, 0.5, 0)

    def test_rejects_a_plain_posterior_naming_expert_step(self):
        # The fusion centre reads a posterior's positions m0, which only the
        # block state an expert keeps carries.
        state = GaussianState(self.STATE.mean, self.STATE.cov)
        with pytest.raises(ContractViolationError,
                           match="reports come from Expert.step, .* got a GaussianState"):
            ExpertReport(state, np.zeros(1), np.eye(1), 0.0, 0.5, 0)
        assert ExpertReport(self.STATE, np.zeros(1), np.eye(1), 0.0, 0.5, 0).posterior is self.STATE


class TestBlockStateReports:
    """On a CV model the expert keeps block states, first and reset states
    included, and builds its reports without re-validating them."""

    def test_every_state_is_a_block_state_from_the_first_reading_on(self):
        model = build_cv_model(2, 1.0, 0.5, 4.0)
        exp = Expert(model, ExpertConfig(xi=chi2_xi(2, 0.95)), init_var=50.0, stale_after=2)
        for y in ([1.0, 2.0], None, None, [1.5, 2.5], [2.0, 3.0]):
            rep = exp.step(y)
            assert type(rep) is _BlockReport and type(rep.posterior) is _BlockState
            assert exp.state is rep.posterior

    def test_report_survives_deepcopy_and_pickle(self):
        exp = Expert(build_track_model())
        exp.step([100.0, 80.0, 40.0, 30.0])
        rep = exp.step([101.0, 81.0, 40.0, 30.0])
        for twin in (copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
            assert type(twin.posterior) is _BlockState
            assert (twin.md, twin.w_M, twin.frame) == (rep.md, rep.w_M, rep.frame)
            assert np.array_equal(twin.posterior.mean, rep.posterior.mean)
            assert np.array_equal(twin.posterior.cov, rep.posterior.cov)
            assert np.array_equal(twin.innovation_cov, rep.innovation_cov)

    def test_lazy_innovation_cov_is_s_times_identity_through_copies(self):
        exp = Expert(build_track_model())
        exp.step([100.0, 80.0, 40.0, 30.0])
        exp.step(None)
        rep = exp.step([103.0, 79.0, 41.0, 30.5])
        s = rep.s
        assert "innovation_cov" not in vars(rep)  # built on first read only
        unread = [copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))]
        want = s * np.eye(4)
        assert rep.innovation_cov.tobytes() == want.tobytes()
        assert rep.innovation_cov is rep.innovation_cov
        read = [copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))]
        for twin in unread + read:
            assert type(twin) is _BlockReport and twin.s == s
            assert twin.innovation_cov.tobytes() == want.tobytes()
        # The public constructor still takes the matrix itself.
        plain_rep = ExpertReport(rep.posterior, rep.predicted_meas, want, rep.md, rep.w_M, 2)
        assert plain_rep.innovation_cov is want

    @pytest.mark.parametrize("first, init_var", [
        ([np.nan, 1.0, 2.0, 3.0], 1e4),
        ([1.0, 1.0, 2.0, 3.0], 1e308),
        ([np.nan, 1.0, 2.0, 3.0], 1e308),
    ])
    def test_bad_first_state_is_refused_as_gaussian_state_refuses_it(self, first, init_var):
        # The expert builds its first block state without a 2k x 2k matrix;
        # it refuses exactly what the public GaussianState refuses of the
        # mean C^T y and covariance init_var I, with the same message.
        model = build_track_model()
        with pytest.raises(ContractViolationError) as want:
            GaussianState(model.C.T @ np.array(first), init_var * np.eye(8))
        exp = Expert(model, init_var=init_var)
        with pytest.raises(ContractViolationError, match=f"^{re.escape(str(want.value))}$"):
            exp.step(first)
        assert exp.state is None and exp.frame == -1


class TestExpertStep:
    def test_silent_before_first_measurement(self):
        exp = Expert(build_track_model())
        assert exp.step(None) is None
        assert exp.step(None) is None

    def test_first_measurement_anchors_state(self):
        exp = Expert(build_track_model(), init_var=100.0)
        rep = exp.step([10.0, 20.0, 30.0, 40.0])
        assert rep is not None
        assert rep.frame == 0
        assert np.allclose(exp.state.mean[:4], rep.posterior.mean[:4])

    def test_measurement_at_prediction_gets_minimum_penalty(self):
        model = build_cv_model(1, 1.0, 0.0, 1.0)
        cfg = ExpertConfig(xi=chi2_xi(1, 0.95))
        exp = Expert(model, cfg, init_var=4.0)
        exp.step([0.0])
        pred = kf_predict(exp.state, model)
        rep = exp.step([float(pred.mean[0])])
        assert rep.md == pytest.approx(0.0, abs=1e-12)
        assert rep.w_M == pytest.approx(1.0 / (1.0 + np.exp(cfg.xi)), abs=1e-12)

    def test_ten_sigma_outlier_heavily_penalized(self):
        model = build_cv_model(1, 1.0, 0.0, 1.0)
        exp = Expert(model, ExpertConfig(xi=3.08), init_var=4.0)
        exp.step([0.0])
        pred = kf_predict(exp.state, model)
        S = model.C @ pred.cov @ model.C.T + model.Rvv
        y = float(pred.mean[0] + 10.0 * np.sqrt(S[0, 0]))
        rep = exp.step([y])
        assert rep.md == pytest.approx(10.0, abs=1e-9)
        assert rep.w_M > 0.99

    def test_coasting_penalty_grows_while_world_moves(self):
        model = build_cv_model(1, 1.0, 0.5, 1.0)
        exp = Expert(model, ExpertConfig(xi=chi2_xi(1, 0.95)))
        exp.step([0.0])
        exp.step([5.0])
        exp.step([10.0])  # velocity estimate now clearly positive
        reports = [exp.step(None) for _ in range(5)]
        mds = [r.md for r in reports]
        ws = [r.w_M for r in reports]
        assert all(r.frame == 3 + i for i, r in enumerate(reports))
        assert mds[-1] > mds[0]
        assert ws[-1] > ws[0]

    def test_reacquisition_after_staleness_resets_covariance(self):
        model = build_cv_model(1, 1.0, 0.1, 1.0)
        exp = Expert(model, ExpertConfig(xi=1.96), init_var=1e4, stale_after=3)
        for y in ([0.0], [0.1], [0.2], [0.1]):
            exp.step(y)
        settled_var = exp.state.cov[0, 0]
        assert settled_var < 10.0
        for _ in range(3):
            exp.step(None)
        rep = exp.step([0.3])
        assert rep is not None
        # fresh measurement dominated the reopened prior
        assert abs(exp.state.mean[0] - 0.3) < 0.05

    def test_short_gap_keeps_covariance_history(self):
        model = build_cv_model(1, 1.0, 0.1, 1.0)
        exp = Expert(model, ExpertConfig(xi=1.96), init_var=1e4, stale_after=10)
        for y in ([0.0], [0.1], [0.2], [0.1]):
            exp.step(y)
        exp.step(None)
        exp.step([0.2])
        assert exp.state.cov[0, 0] < 10.0


class TestOwnedReading:
    def test_coast_scores_the_reading_given_not_the_callers_reused_buffer(self):
        # A caller may fill one buffer per frame. The expert keeps the reading
        # it was given, so overwriting the buffer before a coast changes nothing.
        model = build_cv_model(2, 1.0, 0.5, 1.0)
        exp, twin, buf = Expert(model), Expert(model), np.zeros(2)
        readings = ([0.0, 0.0], [1.0, 2.0], [2.0, 4.0])
        for y in readings:
            buf[:] = y
            exp.step(buf)
            twin.step(list(y))
        buf[:] = [500.0, -500.0]
        got, want = exp.step(None), twin.step(None)
        assert exp.last_meas is not buf and np.array_equal(exp.last_meas, readings[-1])
        assert (got.md, got.w_M) == (want.md, want.w_M)


class TestAtomicExpertStep:
    """A bare expert whose step raises is left exactly as before the call."""

    @pytest.mark.parametrize("bad, message", [
        ([np.nan, 2.0, 3.0, 4.0], "non-finite input to mahalanobis"),
        ([1e308, 2.0, 3.0, 4.0], "md must be finite"),
        ([1.0, 2.0, 3.0], "y and mu must be matching vectors"),
    ])
    def test_bad_reading_leaves_every_field_and_later_steps_untouched(self, bad, message):
        model = build_track_model(meas_var=9.0)
        exp, twin = Expert(model), Expert(model)
        good = [np.array([100.0, 80.0, 40.0, 30.0]) + t for t in range(5)]
        for y in (good[0], good[1], None):
            exp.step(y)
            twin.step(y)
        state, last_meas, misses, frame = exp.state, exp.last_meas, exp.misses, exp.frame
        assert misses == 1

        with np.errstate(all="ignore"), pytest.raises(ContractViolationError, match=message):
            exp.step(np.array(bad))

        assert exp.state is state and exp.last_meas is last_meas
        assert exp.misses == misses and exp.frame == frame
        for y in good[2:]:
            got, want = exp.step(y), twin.step(y)
            assert (got.frame, got.md, got.w_M) == (want.frame, want.md, want.w_M)
            assert np.array_equal(got.posterior.mean, want.posterior.mean)
            assert np.array_equal(got.posterior.cov, want.posterior.cov)

    @pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], [[1.0, 2.0, 3.0, 4.0]], 5.0])
    def test_wrong_length_first_reading_leaves_expert_unstarted(self, bad):
        exp = Expert(build_track_model())
        with pytest.raises(ContractViolationError, match="y and mu must be matching vectors"):
            exp.step(bad)
        assert exp.state is None and exp.last_meas is None
        assert exp.misses == 0 and exp.frame == -1
        assert exp.step([1.0, 2.0, 3.0, 4.0]).frame == 0


def plain(model):
    """The same matrices as a general LinearModel, which carries no axis block."""
    return LinearModel(model.A, model.B, model.C, model.Rww, model.Rvv)


def public_step(model, config, init_var, stale_after, expert, y):
    """One frame of Expert.step written out with the public functions on the
    general LinearModel ``model``: kf_predict, then mahalanobis, then
    kf_update, each called on its own, from ``expert``'s state, last reading
    and miss count. Returns None before the first reading, else (md, w_M, mu,
    S, predicted state, posterior)."""
    state = expert.state
    if state is None:
        if y is None:
            return None
        state = GaussianState(model.C.T @ y, init_var * np.eye(model.state_dim))
    elif y is not None and expert.misses >= stale_after:
        state = GaussianState(state.mean, init_var * np.eye(model.state_dim))
    pred = kf_predict(state, model)
    mu = model.C @ pred.mean
    S = model.C @ pred.cov @ model.C.T + model.Rvv
    S = 0.5 * (S + S.T)
    md = mahalanobis(expert.last_meas if y is None else y, mu, S)
    post = pred if y is None else kf_update(pred, model, y)[0]
    return md, local_weight(md, config.xi), mu, S, pred, post


class TestClosedFormStep:
    """Expert.step filters a build_cv_model model's 2x2 axis block in closed
    form. Each frame it agrees with public_step on the same matrices as a
    general LinearModel, started from the closed form's own state, to within
    stated tolerances: md and w_M within 1e-9 relative (md also within 1e-11
    absolute, for a reading at the prediction), and means, covariances and
    innovation covariances within 1e-11 of their largest entry. The predicted
    reading is measured against the largest entry of the predicted state it
    sums, since that sum can cancel far below its terms. Against the
    explicit-inverse, non-Joseph oracle, means agree within 1e-11 and
    covariances within 1e-9 of their largest entry. The public path restarts
    every frame, so each frame checks one step, not rounding carried over
    from earlier frames."""

    STALE = 3

    @staticmethod
    def near(got, want, tol, base=None):
        base = want if base is None else base
        return np.abs(got - want).max() <= tol * np.abs(base).max()

    @pytest.mark.parametrize("k", [1, 4])
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dt=st.sampled_from([0.1, 1.0, 2.5]),
        gaps=st.lists(st.integers(0, 2 * STALE), min_size=2, max_size=20),
        outlier_sigma=st.floats(0.0, 50.0),
    )
    @example(seed=10931, dt=2.5, gaps=[0, 0, 0, 0, 0, 1, 0, 5, 5, 6, 0, 2, 3, 3, 2, 0, 0, 0, 0, 0],
             outlier_sigma=27.0)
    @example(seed=41, dt=2.5, gaps=[0, 0, 0, 0, 2, 0, 6, 0, 3, 4, 5, 6, 2, 0, 1],
             outlier_sigma=6.0)
    def test_agrees_with_public_path_and_naive_oracle(self, k, seed, dt, gaps, outlier_sigma):
        model = build_cv_model(k, dt, 0.5, 9.0)
        general = plain(model)
        config = ExpertConfig(xi=chi2_xi(k, 0.95))
        rng = np.random.default_rng(seed)
        gaps = list(gaps)  # an @example's list is shared by every parametrization
        gaps[len(gaps) // 2] = self.STALE + 1  # one gap past stale_after
        start, rate = np.array([300.0, 200.0, 80.0, 60.0])[:k], rng.normal(0.0, 2.0, k)
        readings = []
        for gap in gaps:
            readings += [None] * gap
            y = start + rate * dt * len(readings) + rng.normal(0.0, 3.0, k)
            readings.append(y + outlier_sigma * 3.0 * rng.standard_normal(k))

        exp = Expert(model, config, init_var=1e4, stale_after=self.STALE)
        for frame, y in enumerate(readings):
            want = public_step(general, config, 1e4, self.STALE, exp, y)
            got = exp.step(y)
            if want is None:
                assert got is None
                continue
            md, w_M, mu, S, pred, post = want
            assert got.frame == frame
            assert got.md == pytest.approx(md, rel=1e-9, abs=1e-11)
            assert got.w_M == pytest.approx(w_M, rel=1e-9)
            assert self.near(got.predicted_meas, mu, 1e-11, pred.mean)
            assert self.near(got.innovation_cov, S, 1e-11)
            assert self.near(got.posterior.mean, post.mean, 1e-11)
            assert self.near(got.posterior.cov, post.cov, 1e-11)
            assert np.array_equal(got.posterior.cov, got.posterior.cov.T)
            if y is not None:
                mean, cov = oracles.naive_update(pred.mean, pred.cov, general.C, general.Rvv, y)
                assert self.near(got.posterior.mean, mean, 1e-11)
                assert self.near(got.posterior.cov, cov, 1e-9)

    def test_the_expert_calls_no_matrix_function(self, monkeypatch):
        import habdf.experts
        import habdf.kalman

        def refuse(*args):
            raise AssertionError("matrix path called")

        for module, name in ((habdf.kalman, "kf_predict"), (habdf.kalman, "kf_update"),
                             (habdf.experts, "kf_update"), (habdf.experts, "mahalanobis")):
            monkeypatch.setattr(module, name, refuse)
        exp = Expert(build_track_model(), stale_after=1)
        for y in ([1.0, 2.0, 3.0, 4.0], None, [1.5, 2.0, 3.0, 4.0], [1.6, 2.0, 3.0, 4.0]):
            assert exp.step(y) is not None

    @pytest.mark.parametrize("third", [[3.0], None])
    def test_collapsed_covariance_raises_degenerate_geometry_as_the_public_path(self, third):
        # No process or measurement noise: the covariance collapses to 0 after
        # two updates, so the third frame's innovation variance is 0. The
        # public path on the same state refuses that frame too.
        model = build_cv_model(1, 1.0, 0.0, 0.0)
        config = ExpertConfig(xi=chi2_xi(1, 0.95))
        exp = Expert(model, config)
        exp.step([1.0])
        exp.step([2.0])
        assert not exp.state.cov.any()
        with pytest.raises(DegenerateGeometryError):
            public_step(plain(model), config, 1e4, math.inf, exp, third)
        state, last_meas, misses, frame = exp.state, exp.last_meas, exp.misses, exp.frame
        with pytest.raises(DegenerateGeometryError):
            exp.step(third)
        assert exp.state is state and exp.last_meas is last_meas
        assert exp.misses == misses and exp.frame == frame


class TestCalibration:
    def test_nominal_flag_rate_near_design_point(self):
        """Simulating the model's own dynamics, the md > xi rate sits near
        1 - confidence once the filter settles."""
        model = build_track_model(dt=1.0, accel_var=0.25, meas_var=9.0)
        cfg = ExpertConfig(xi=chi2_xi(4, 0.95))
        exp = Expert(model, cfg, init_var=100.0)
        rng = np.random.default_rng(7)
        x = np.zeros(8)
        Lw = np.linalg.cholesky(model.Rww + 1e-12 * np.eye(8))
        flags = []
        exp.step(model.C @ x + rng.normal(0, 3.0, 4))
        for t in range(140):
            x = model.A @ x + Lw @ rng.normal(0, 1, 8)
            y = model.C @ x + rng.normal(0, 3.0, 4)
            rep = exp.step(y)
            if t >= 40:
                flags.append(rep.md > cfg.xi)
        rate = np.mean(flags)
        assert 0.03 <= rate <= 0.07


class TestRefusals:
    """Each public check refuses its own bad input with its own message; the
    expert's reports skip them, so they must hold here."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: mahalanobis([0.0, 0.0], [0.0, 0.0], np.eye(3)),
                     r"cov shape \(3, 3\) does not match vector length 2", id="cov-shape"),
        pytest.param(lambda: mahalanobis([0.0, 0.0], [0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
                     r"non-finite input to mahalanobis", id="cov-nonfinite"),
        pytest.param(lambda: mahalanobis_diag([0.0, 0.0], [0.0, 0.0], [1.0]),
                     r"mismatched shapes: y \(2,\), mu \(2,\), cov_diag \(1,\)", id="diag-shapes"),
        pytest.param(lambda: mahalanobis_diag([np.nan, 0.0], [0.0, 0.0], [1.0, 1.0]),
                     r"non-finite input to mahalanobis_diag", id="diag-nonfinite"),
        pytest.param(lambda: ExpertConfig(xi=0.0),
                     r"xi must be positive and finite, got 0.0", id="xi"),
        pytest.param(lambda: Expert(build_track_model(), stale_after=0),
                     r"stale_after must be >= 1, got 0", id="stale-after"),
    ])
    def test_bad_input_is_refused_naming_its_check(self, call, message):
        with pytest.raises(ContractViolationError, match=message):
            call()
