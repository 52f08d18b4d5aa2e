"""Fusion center: adaptive noise, stacked updates, exclusion behavior."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from habdf import (
    BoundingBox,
    ContractViolationError,
    DegenerateGeometryError,
    Expert,
    ExpertReport,
    FusionCenter,
    FusedEstimate,
    FusionConfig,
    GaussianState,
    HabdfError,
    InsufficientDetectorsError,
    LinearModel,
    Pipeline,
    VoteConfig,
    adapt_rvv,
    build_cv_model,
    build_track_model,
    consensus_distance,
    kf_predict,
    kf_update,
    make_pipeline,
)
from habdf import fusion
from habdf.kalman import COND_LIMIT, _BlockState, _cholesky

W_HI = float(np.nextafter(1.0, 0.0))


def make_report(model, meas, frame=0, w_M=0.1, md=0.5):
    """Hand-built expert report whose posterior sits exactly at ``meas``."""
    meas = np.asarray(meas, dtype=float)
    post = _BlockState(meas, np.zeros_like(meas), (1.0, 0.0, 1.0))
    return ExpertReport(post, meas, 1.0, md, w_M, frame)


def plain(model):
    """The same matrices as a general LinearModel, which carries no axis block."""
    return LinearModel(model.A, model.C, model.Rww, model.Rvv)


class TestAdaptRvv:
    def test_plain_arithmetic(self):
        assert adapt_rvv(1.0, 0.5) == pytest.approx(1.5, abs=1e-12)
        assert adapt_rvv(3.0, 0.9, gamma=2.0, delta=10.0) == pytest.approx(15.0, abs=1e-12)

    def test_floor_engages_at_zero_weights(self):
        assert adapt_rvv(0.0, 0.0, cov_floor=1e-6) == 1e-6

    def test_monotone_in_both_weights(self):
        base = adapt_rvv(1.0, 0.5)
        assert adapt_rvv(1.5, 0.5) >= base
        assert adapt_rvv(1.0, 0.7) >= base

    def test_contract_violations(self):
        with pytest.raises(ContractViolationError):
            adapt_rvv(-1.0, 0.5)
        with pytest.raises(ContractViolationError):
            adapt_rvv(1.0, 1.5)
        with pytest.raises(ContractViolationError):
            adapt_rvv(1.0, 0.5, gamma=0.0)
        with pytest.raises(ContractViolationError):
            adapt_rvv(1.0, 0.5, cov_floor=0.0)

    @pytest.mark.parametrize("num", [float, np.float64])
    def test_guards_hold_for_python_and_numpy_scalars(self, num):
        for bad in (np.nan, np.inf, -1.0):
            for args in ((bad, 0.5, 1.0, 1.0, 1e-6), (1.0, bad, 1.0, 1.0, 1e-6),
                         (1.0, 0.5, bad, 1.0, 1e-6), (1.0, 0.5, 1.0, bad, 1e-6),
                         (1.0, 0.5, 1.0, 1.0, bad)):
                with pytest.raises(ContractViolationError):
                    adapt_rvv(*map(num, args))


class TestFusionConfig:
    def test_scalar_gains_broadcast(self):
        g, d = FusionConfig(gamma=2.0, delta=3.0).gains(4)
        assert np.array_equal(g, [2.0] * 4)
        assert np.array_equal(d, [3.0] * 4)

    def test_per_detector_gains_kept(self):
        g, d = FusionConfig(gamma=(1.0, 2.0, 3.0), delta=4.0).gains(3)
        assert np.array_equal(g, [1.0, 2.0, 3.0])
        assert np.array_equal(d, [4.0] * 3)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ContractViolationError):
            FusionConfig(gamma=(1.0, 0.0, 1.0)).gains(3)

    @pytest.mark.parametrize("gamma, delta", [
        (2.0, 3.0), ((1.0, 2.0, 3.0), 4.0), (np.float64(2.0), np.array([1.0, 2.0, 3.0])),
        (np.array(5.0), [1, 2, 3]),
    ])
    def test_gains_come_back_as_lists_of_python_floats(self, gamma, delta):
        g, d = FusionConfig(gamma=gamma, delta=delta).gains(3)
        assert type(g) is list and type(d) is list and len(g) == len(d) == 3
        assert all(type(v) is float for v in g + d)
        assert g == np.broadcast_to(np.asarray(gamma, dtype=float), 3).tolist()
        assert d == np.broadcast_to(np.asarray(delta, dtype=float), 3).tolist()

    @pytest.mark.parametrize("field, value, count", [
        ("gamma", (1.0, 2.0), 2), ("delta", (1.0,), 1), ("gamma", [[1.0, 2.0, 3.0]] * 2, 6),
    ])
    def test_gain_of_the_wrong_length_is_refused(self, field, value, count):
        cfg = FusionConfig(**{field: value})
        with pytest.raises(ContractViolationError,
                           match=rf"^{field} has {count} entries for 3 detectors$"):
            cfg.gains(3)
        with pytest.raises(ContractViolationError, match=f"^{field} has {count} entries"):
            make_pipeline(3, build_track_model(), cfg)

    # The refusal names each term that, put back to its default 1, keeps the
    # scale finite; when none does, every term above 1.
    @pytest.mark.parametrize("gamma, delta, vote, named, got", [
        (1e308, 1.0, VoteConfig(), "gamma overflows", "1e+308"),
        ((1.0, 1e308, 1.0), 1.0, VoteConfig(), "gamma overflows", "1e+308"),
        (1.0, 1.7e308, VoteConfig(0.0, 1e307), "omega and delta overflow", "1e+307 and 1.7e+308"),
        (6e307, 1.0, VoteConfig(0.0, 1.5), "gamma and omega overflow", "6e+307 and 1.5"),
        (2.0, 1.0, VoteConfig(1e308, 0.0), "gamma and omega0 overflow", "2.0 and 1e+308"),
        (1.0, 1e308, VoteConfig(1e308, 0.0), "omega0 and delta overflow", "1e+308 and 1e+308"),
        ((1.0, 1.0, 3.0), 1.0, VoteConfig(1.0, 5e307), "gamma and omega overflow", "3.0 and 5e+307"),
        (2.0, 1e308, VoteConfig(4e307, 4e307), "gamma and omega0 and omega and delta overflow",
         "2.0 and 4e+307 and 4e+307 and 1e+308"),
    ])
    def test_gain_whose_largest_noise_scale_overflows_is_refused(self, gamma, delta, vote, named,
                                                                got):
        cfg = FusionConfig(gamma=gamma, delta=delta, vote=vote)
        with pytest.raises(ContractViolationError) as info:
            cfg.gains(3)
        assert str(info.value) == (f"{named} the largest noise scale gamma * "
                                   f"(omega0 + 2 * omega) + delta, got {got}")
        assert info.value.names == tuple(named.rpartition(" ")[0].split(" and "))
        # The first detector whose scale overflows: 0 for scalar gains.
        assert info.value.detector == {(1.0, 1e308, 1.0): 1, (1.0, 1.0, 3.0): 2}.get(gamma, 0)

    def test_largest_finite_noise_scale_is_accepted(self):
        # gamma * (omega0 + 2 * omega) + delta = 1e308 * 1.0 + 1.0 stays finite.
        g, d = FusionConfig(gamma=1e308, vote=VoteConfig(0.0, 0.5)).gains(3)
        assert g == [1e308] * 3 and math.isfinite(adapt_rvv(1.0, W_HI, g[0], d[0]))


class TestFusionCenterBasics:
    def test_needs_three_detectors(self):
        with pytest.raises(InsufficientDetectorsError):
            FusionCenter(build_track_model(), 2)

    @pytest.mark.parametrize("init_var, message", [
        (0.0, "init_var must be > 0 and finite, got 0.0"),
        (1e308, r"init_var overflows 2 \* init_var, got 1e\+308"),
    ], ids=["zero", "overflowing"])
    def test_bad_init_var_is_refused_at_construction(self, init_var, message):
        # The first state's init_var I would overflow when GaussianState
        # symmetrizes it; the centre refuses the setting before any frame.
        with pytest.raises(ContractViolationError, match=f"^{message}$") as info:
            FusionCenter(build_track_model(), 3, init_var=init_var)
        assert info.value.names == ("init_var",)

    def test_returns_none_until_anything_seen(self):
        center = FusionCenter(build_track_model(), 3)
        assert center.step([None] * 3, [None] * 3) is None

    def test_mismatched_lengths_rejected(self):
        center = FusionCenter(build_track_model(), 3)
        with pytest.raises(ContractViolationError):
            center.step([None] * 2, [None] * 3)

    def test_identical_boxes_fuse_to_that_box(self):
        model = build_track_model(dt=1.0, accel_var=0.1, meas_var=4.0)
        center = FusionCenter(model, 3)
        box = np.array([120.0, 90.0, 40.0, 30.0])
        reports = [make_report(model, box, w_M=0.1) for _ in range(3)]
        est = center.step(reports, [box] * 3)
        assert not est.coasting
        assert np.allclose(model.C @ est.state.mean, box, atol=1e-9)
        # same weights on every detector
        assert len(set(est.w_d)) == 1
        assert len({round(s, 12) for s in est.rvv_scale}) == 1

    def test_coasting_flagged_when_all_absent(self):
        model = build_track_model()
        center = FusionCenter(model, 3)
        box = np.array([10.0, 10.0, 5.0, 5.0])
        center.step([make_report(model, box)] * 3, [box] * 3)
        est = center.step([None] * 3, [None] * 3)
        assert est.coasting
        assert np.isnan(est.rvv_scale).all()

    def test_lone_detector_gets_no_peer_penalty(self):
        model = build_track_model()
        center = FusionCenter(model, 3, FusionConfig(vote=VoteConfig(1.0, 2.0, 50.0)))
        box = np.array([10.0, 10.0, 5.0, 5.0])
        est = center.step([None, make_report(model, box), None], [None, box, None])
        w = est.w_d[1]
        assert w == pytest.approx(1.0 + 2.0 * (1.0 + np.tanh(-50.0)), abs=1e-12)


class TestGeneralModelRefused:
    """Experts and the centre filter a build_cv_model model's axis block, so
    every entry point refuses a model without one, naming build_cv_model:
    even the same matrices as a general LinearModel."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda m: Expert(m), id="expert"),
        pytest.param(lambda m: FusionCenter(m, 3), id="centre"),
        pytest.param(lambda m: make_pipeline(3, m), id="make-pipeline"),
        pytest.param(lambda m: make_pipeline(3, [build_track_model(), m, build_track_model()]),
                     id="make-pipeline-one-of-three"),
        pytest.param(lambda m: Pipeline([m] * 3), id="pipeline"),
    ])
    def test_plain_copy_of_a_cv_model_is_refused(self, build):
        model = build_track_model(meas_var=9.0)
        build(model)
        with pytest.raises(ContractViolationError, match="build_cv_model"):
            build(plain(model))

    def test_identity_model_is_refused(self):
        model = LinearModel(np.eye(4), np.eye(4), np.eye(4), np.eye(4))
        for build in (Expert, lambda m: FusionCenter(m, 3), lambda m: make_pipeline(3, m)):
            with pytest.raises(ContractViolationError, match="build_cv_model models only"):
                build(model)


class TestBlockStatePositions:
    """The centre takes each present detector's positions from its report's
    block state m0. Replayed frame by frame with the public functions on the
    same matrices as a general LinearModel, projecting each posterior as
    C @ mean, the fused state agrees bit for bit: kf_predict from the centre's
    previous state (its first state built from the projected positions' mean),
    then kf_update on the stacked C with the centre's noise block diag(rvv)."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 8]))
    def test_fused_state_equals_the_public_path_on_projected_positions(self, seed, n):
        rng = np.random.default_rng(seed)
        model = build_track_model(meas_var=9.0)
        general = plain(model)
        center = FusionCenter(model, n)
        for frame in range(8):
            meas, reports = [], []
            for _ in range(n):
                if rng.random() < 0.2:
                    meas.append(None)
                    reports.append(None)
                    continue
                m0 = np.array([300.0, 200.0, 80.0, 60.0]) + rng.normal(0, 20, 4)
                p00, p11 = rng.uniform(1, 50, 2)
                post = _BlockState(m0, rng.normal(0, 2, 4),
                                   (p00, rng.uniform(-0.9, 0.9) * np.sqrt(p00 * p11), p11))
                meas.append(m0 + rng.normal(0, 3, 4))
                reports.append(ExpertReport(post, m0, 1.0, 1.0, rng.uniform(0.01, 0.99), frame))
            prior = center.state
            est = center.step(reports, meas)
            present = [i for i, y in enumerate(meas) if y is not None]
            if prior is None and not present:
                assert est is None
                continue
            w_m = [math.nan if r is None else r.w_M for r in reports]
            assert est.w_M.tobytes() == np.array(w_m).tobytes()
            parts = [general.C @ reports[i].posterior.mean for i in present]
            if prior is None:
                prior = GaussianState(general.C.T @ np.mean(parts, axis=0), 1e4 * np.eye(8))
            want = kf_predict(prior, general)
            if present:
                R = np.diag(np.repeat(est.rvv_scale[present], 4))
                stacked = LinearModel(general.A, np.vstack([general.C] * len(present)),
                                      general.Rww, R)
                want = kf_update(want, stacked, np.concatenate(parts))[0]
            assert est.coasting == (not present)
            assert est.state.mean.tobytes() == want.mean.tobytes()
            assert est.state.cov.tobytes() == want.cov.tobytes()


class TestStackedNoiseBlock:
    """The centre builds its noise block as the identity's columns scaled by
    each present detector's rvv, repeated p times. That block, and the fused
    posterior, equal kf_update on a public model with an explicit np.diag
    block, bit for bit, with ragged presence and rvv on the floor."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 8, 32]),
           floor=st.booleans())
    def test_noise_block_and_posterior_equal_an_explicit_diag_model(self, seed, n, floor):
        rng = np.random.default_rng(seed)
        cfg = (FusionConfig(vote=VoteConfig(0.0, 0.01, 20.0), gamma=0.1, delta=0.01,
                            cov_floor=0.5) if floor else FusionConfig())
        pipe = make_pipeline(n, build_track_model(meas_var=9.0), cfg, init_var=100.0)
        calls, on_floor = [], []

        def recording_update(pred, model, y):
            calls.append((pred, model, y))
            return kf_update(pred, model, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fusion, "kf_update", recording_update)
            truth = np.array([300.0, 200.0, 80.0, 60.0])
            for _ in range(12):
                truth = truth + [2.0, -1.0, 0.1, 0.0]
                meas = [None if rng.random() < 0.2 else truth + rng.normal(0, 5, 4)
                        for _ in range(n)]
                calls.clear()
                est = pipe.step(meas)
                if est is None or est.coasting:
                    assert not calls
                    continue
                (pred, stacked, y), = calls
                present = [i for i, m in enumerate(meas) if m is not None]
                R = np.diag(np.repeat(est.rvv_scale[present], 4))
                assert stacked.Rvv.tobytes() == R.tobytes()
                explicit = LinearModel(stacked.A, stacked.C, stacked.Rww, R)
                want = kf_update(pred, explicit, y)[0]
                assert est.state.mean.tobytes() == want.mean.tobytes()
                assert est.state.cov.tobytes() == want.cov.tobytes()
                on_floor.append(min(est.rvv_scale[present]) == 0.5)
        assert on_floor and all(on_floor) == floor


class TestTrustedFields:
    """Per-frame values are built with kalman._trusted, which takes any
    keyword. Each must hold exactly its dataclass's fields, so a misspelled
    one fails here rather than as a missing attribute later."""

    def test_every_per_frame_value_holds_exactly_its_fields(self):
        pipe = make_pipeline(3, build_track_model(meas_var=9.0), init_var=100.0)
        names = {cls: {f.name for f in fields(cls)}
                 for cls in (FusedEstimate, GaussianState, ExpertReport, LinearModel)}
        models, reports = [], []

        def recording_update(pred, stacked, y):
            models.append(stacked)
            return kf_update(pred, stacked, y)

        def recording_step(reps, meas, step=pipe.center.step):
            reports.extend(r for r in reps if r is not None)
            return step(reps, meas)

        rng = np.random.default_rng(3)
        truth = np.array([300.0, 200.0, 80.0, 60.0])
        frames = [[truth + rng.normal(0, 5, 4) for _ in range(3)] for _ in range(4)]
        frames[2] = [None, frames[2][1], None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fusion, "kf_update", recording_update)
            mp.setattr(pipe.center, "step", recording_step)
            ests = [pipe.step(meas) for meas in frames + [[None] * 3]]
        assert ests[-1].coasting and len(models) == 4 and len(reports) == 15
        for est in ests:
            assert type(est) is FusedEstimate and vars(est).keys() == names[FusedEstimate]
            assert type(est.state) is GaussianState
            assert vars(est.state).keys() == names[GaussianState]
        for stacked in models:
            assert type(stacked) is LinearModel and vars(stacked).keys() == names[LinearModel]
        for rep in reports:
            post = vars(rep.posterior)
            assert type(rep) is ExpertReport and type(rep.posterior) is _BlockState
            assert vars(rep).keys() == names[ExpertReport]
            assert post.keys() == {"m0", "m1", "P"}


class TestStackedOracleEquivalence:
    def test_equal_weights_match_stacked_update_oracle(self):
        model = build_track_model(dt=1.0, accel_var=0.5, meas_var=4.0)
        center = FusionCenter(model, 3, FusionConfig(gamma=1.0, delta=1.0))
        rng = np.random.default_rng(17)
        prior_mean = rng.normal(0, 20, 8)
        prior_cov = 50.0 * np.eye(8)
        center.state = GaussianState(prior_mean, prior_cov)

        box = np.array([100.0, 50.0, 40.0, 30.0])
        boxes = [box.copy() for _ in range(3)]   # coincident: equal w_d
        reports = [make_report(model, b, w_M=0.25) for b in boxes]
        est = center.step(reports, boxes)

        s = est.rvv_scale[0]
        assert all(r == pytest.approx(s, abs=1e-12) for r in est.rvv_scale)
        pm, pc = oracles.naive_predict(prior_mean, prior_cov, model.A, model.Rww)
        C_stack = np.vstack([model.C] * 3)
        y_stack = np.concatenate(boxes)
        m, P = oracles.naive_update(pm, pc, C_stack, s * np.eye(12), y_stack)
        assert np.allclose(est.state.mean, m, atol=1e-9, rtol=1e-9)
        assert np.allclose(est.state.cov, P, atol=1e-9, rtol=1e-9)

    def test_single_present_detector_matches_one_sensor_oracle(self):
        model = build_track_model(dt=1.0, accel_var=0.5, meas_var=4.0)
        cfg = FusionConfig(gamma=2.0, delta=3.0, vote=VoteConfig(1.0, 1.0, 50.0))
        center = FusionCenter(model, 3, cfg)
        rng = np.random.default_rng(23)
        prior_mean = rng.normal(0, 20, 8)
        prior_cov = 30.0 * np.eye(8)
        center.state = GaussianState(prior_mean, prior_cov)

        box = np.array([80.0, 60.0, 20.0, 10.0])
        rep = make_report(model, box, w_M=0.3)
        est = center.step([None, rep, None], [None, box, None])

        w_d = 1.0 + (1.0 + np.tanh(-50.0))
        s = 2.0 * w_d + 3.0 * 0.3
        assert est.rvv_scale[1] == pytest.approx(s, abs=1e-12)
        pm, pc = oracles.naive_predict(prior_mean, prior_cov, model.A, model.Rww)
        m, P = oracles.naive_update(pm, pc, model.C, s * np.eye(4), box)
        assert np.allclose(est.state.mean, m, atol=1e-9, rtol=1e-9)
        assert np.allclose(est.state.cov, P, atol=1e-9, rtol=1e-9)

    def test_offset_detector_with_saturated_weights_barely_pulls(self):
        model = build_track_model(dt=1.0, accel_var=0.5, meas_var=4.0)
        cfg = FusionConfig(gamma=1.0, delta=1.0, vote=VoteConfig(1.0, 500.0, 30.0))
        center = FusionCenter(model, 3, cfg)
        prior_mean = np.zeros(8)
        prior_mean[:4] = [100.0, 100.0, 40.0, 30.0]
        prior_cov = 1e4 * np.eye(8)
        center.state = GaussianState(prior_mean, prior_cov)

        good = np.array([100.0, 100.0, 40.0, 30.0])
        rogue = good + np.array([200.0, 0.0, 0.0, 0.0])
        reports = [
            make_report(model, good, w_M=0.05),
            make_report(model, good, w_M=0.05),
            make_report(model, rogue, w_M=W_HI, md=50.0),
        ]
        est = center.step(reports, [good, good, rogue])

        pm, pc = oracles.naive_predict(prior_mean, prior_cov, model.A, model.Rww)
        scales = est.rvv_scale
        # closed-form weighted answer using only the two agreeing detectors
        two_box = oracles.wls_mean(pm, pc, [model.C, model.C], scales[:2], [good, good])
        fused_box = model.C @ est.state.mean
        assert np.all(np.abs(fused_box - model.C @ two_box) < 1.0)
        # and exact agreement with the three-block least-squares solution
        full = oracles.wls_mean(pm, pc, [model.C] * 3, scales, [good, good, rogue])
        assert np.allclose(est.state.mean, full, atol=1e-9)


class TestMonotoneDistrust:
    def test_raising_w_m_never_pulls_toward_that_detector(self):
        model = build_track_model(dt=1.0, accel_var=0.5, meas_var=4.0)
        rng = np.random.default_rng(31)
        prior_mean = np.zeros(8)
        prior_mean[:4] = [50.0, 50.0, 20.0, 20.0]
        boxes = [
            np.array([50.0, 50.0, 20.0, 20.0]),
            np.array([55.0, 48.0, 21.0, 19.0]),
            np.array([90.0, 80.0, 25.0, 25.0]),
        ]
        for w_lo, w_hi in [(0.1, 0.5), (0.3, 0.9), (0.05, W_HI)]:
            dists = []
            for w in (w_lo, w_hi):
                center = FusionCenter(model, 3)
                center.state = GaussianState(prior_mean, 100.0 * np.eye(8))
                reports = [
                    make_report(model, boxes[0], w_M=0.1),
                    make_report(model, boxes[1], w_M=0.1),
                    make_report(model, boxes[2], w_M=w),
                ]
                est = center.step(reports, boxes)
                dists.append(np.linalg.norm(model.C @ est.state.mean - boxes[2]))
            assert dists[1] >= dists[0] - 1e-12


class TestExclusionLimit:
    def test_saturated_detector_matches_fusion_without_it(self):
        model = build_track_model(dt=1.0, accel_var=0.5, meas_var=4.0)
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            gains = tuple(1e9 if i == n - 1 else 1.0 for i in range(n))
            cfg = FusionConfig(gamma=gains, delta=gains,
                               vote=VoteConfig(1.0, 1.0, 50.0))
            prior_mean = np.zeros(8)
            prior_mean[:4] = rng.uniform(50, 400, 4)
            prior_cov = rng.uniform(20, 200) * np.eye(8)
            boxes = [prior_mean[:4] + rng.normal(0, 3, 4) for _ in range(n - 1)]
            boxes.append(prior_mean[:4] + rng.uniform(150, 300, 4))  # saturates w_d
            reports = [make_report(model, b, w_M=0.2) for b in boxes[:-1]]
            reports.append(make_report(model, boxes[-1], w_M=W_HI, md=99.0))

            with_it = FusionCenter(model, n, cfg)
            with_it.state = GaussianState(prior_mean, prior_cov)
            est_a = with_it.step(reports, boxes)

            without = FusionCenter(model, n, cfg)
            without.state = GaussianState(prior_mean, prior_cov)
            est_b = without.step(reports[:-1] + [None], boxes[:-1] + [None])

            rel = np.abs(est_a.state.mean - est_b.state.mean) / (
                1.0 + np.abs(est_b.state.mean))
            assert np.all(rel < 1e-3)


class TestPipeline:
    def test_three_detectors_build_three_experts_and_center(self):
        pipe = make_pipeline(3, build_track_model())
        assert len(pipe.experts) == 3
        assert pipe.center.n_detectors == 3
        assert pipe.n_detectors == 3

    @pytest.mark.parametrize("n", [2, -1])
    def test_too_few_detectors_rejected_naming_the_count_passed(self, n):
        # Refused before [model] * n, which would turn -1 into an empty bank.
        with pytest.raises(InsufficientDetectorsError,
                           match=f"^majority voting needs at least 3 detectors, got {n}$"):
            make_pipeline(n, build_track_model())

    @pytest.mark.parametrize("n", [2, 0])
    @pytest.mark.parametrize("build", [
        pytest.param(lambda m, n: consensus_distance([BoundingBox(0.0, 0.0, 1.0, 1.0)] * n, 0),
                     id="consensus_distance"),
        pytest.param(lambda m, n: FusionCenter(m, n), id="center"),
        pytest.param(lambda m, n: Pipeline([m] * n), id="pipeline"),
        pytest.param(lambda m, n: make_pipeline(n, m), id="make_pipeline"),
    ])
    def test_every_owner_of_the_minimum_refuses_alike(self, build, n):
        # One check, so each refusal comes before the caller indexes or builds
        # anything: an empty model list or box list never reaches models[0].
        with pytest.raises(InsufficientDetectorsError,
                           match=f"^majority voting needs at least 3 detectors, got {n}$"):
            build(build_track_model(), n)

    def test_model_list_length_must_match(self):
        with pytest.raises(ContractViolationError):
            make_pipeline(3, [build_track_model()] * 4)

    def test_mixed_model_dims_rejected(self):
        models = [build_track_model(), build_track_model(), build_cv_model(1, 1.0, 1.0, 1.0)]
        with pytest.raises(ContractViolationError,
                           match=r"models may differ only in meas_var, but model 2 has .*k=1\)"):
            make_pipeline(3, models)

    @pytest.mark.parametrize("i, model", [
        (1, build_cv_model(1, 5.0, 1.0, 4.0)), (2, build_cv_model(1, 1.0, 2.0, 4.0)),
    ], ids=["dt", "accel_var"])
    def test_models_with_other_dynamics_rejected(self, i, model):
        # The centre predicts with model 0's A and Rww, so every expert must too.
        models = [build_cv_model(1, 1.0, 1.0, 4.0)] * 3
        models[i] = model
        with pytest.raises(ContractViolationError,
                           match=rf"models may differ only in meas_var, but model {i} has "):
            make_pipeline(3, models)

    def test_models_may_differ_in_meas_var(self):
        models = [build_cv_model(1, 1.0, 1.0, v) for v in (4.0, 9.0, 0.5)]
        pipe = make_pipeline(3, models)
        assert [e._block.r for e in pipe.experts] == [4.0, 9.0, 0.5]

    def test_nominal_run_keeps_noise_scales_tame(self):
        """Five healthy detectors: no adapted scale strays past 2x its
        run-median."""
        model = build_track_model(dt=1.0, accel_var=0.25, meas_var=9.0)
        pipe = make_pipeline(5, model, FusionConfig(gamma=1.0, delta=1.0))
        rng = np.random.default_rng(3)
        truth = np.array([200.0, 150.0, 60.0, 40.0])
        vel = np.array([1.0, 0.5, 0.0, 0.0])
        scales = []
        for t in range(100):
            boxes = [truth + vel * t + rng.normal(0, 3, 4) for _ in range(5)]
            est = pipe.step(boxes)
            scales.append(est.rvv_scale)
        scales = np.array(scales[10:])
        for i in range(5):
            med = np.median(scales[:, i])
            assert scales[:, i].max() <= 2.0 * med
            assert scales[:, i].min() >= 1e-6

    def test_fused_covariance_stays_psd_and_scales_floored(self):
        model = build_track_model(dt=1.0, accel_var=1.0, meas_var=9.0)
        cfg = FusionConfig(gamma=1.0, delta=1.0, cov_floor=1e-6)
        pipe = make_pipeline(3, model, cfg)
        rng = np.random.default_rng(13)
        for t in range(50):
            boxes = [
                None if rng.random() < 0.2 else rng.uniform(0, 300, 4)
                for _ in range(3)
            ]
            est = pipe.step(boxes)
            if est is None:
                continue
            eigs = np.linalg.eigvalsh(est.state.cov)
            scale = max(1.0, float(np.abs(est.state.cov).max()))
            assert eigs.min() >= -1e-9 * scale
            for r in est.rvv_scale:
                if not np.isnan(r):
                    assert r >= cfg.cov_floor

    def test_weight_arrays_follow_ragged_presence(self):
        """32 detectors, each absent a third of the time and the last four
        silent until frame 10: w_d and rvv_scale are NaN exactly where a
        detector is absent, and w_M only until its expert's first reading."""
        n = 32
        pipe = make_pipeline(n, build_track_model(meas_var=9.0))
        rng = np.random.default_rng(8)
        truth = np.array([200.0, 150.0, 60.0, 40.0])
        seen = np.zeros(n, dtype=bool)
        for t in range(20):
            present = rng.random(n) > 1 / 3
            present[0] = True
            present[n - 4:] &= t >= 10
            seen |= present
            est = pipe.step([truth + t + rng.normal(0, 3, 4) if p else None for p in present])
            for arr in (est.w_d, est.w_M, est.rvv_scale):
                assert arr.shape == (n,)
            assert np.array_equal(np.isnan(est.w_d), ~present)
            assert np.array_equal(np.isnan(est.rvv_scale), ~present)
            assert np.array_equal(np.isnan(est.w_M), ~seen)
            assert (est.rvv_scale[present] > 0).all()
            assert ((est.w_M[seen] > 0) & (est.w_M[seen] < 1)).all()


class TestPipelineInputs:
    """Pipeline.step hands readings on as given; Expert.step and
    FusionCenter.step each convert them."""

    @staticmethod
    def frames(n_frames, seed=5):
        rng = np.random.default_rng(seed)
        truth = np.array([120.0, 90.0, 40.0, 30.0])
        return [
            [None if rng.random() < 0.25 else truth + t + rng.normal(0, 3, 4) for _ in range(3)]
            for t in range(n_frames)
        ]

    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_reading_count_refused_unchanged(self, count):
        pipe = make_pipeline(3, build_track_model(meas_var=9.0))
        for boxes in self.frames(6):
            pipe.step(boxes)
        before = [(e.state, e.last_meas, e.misses, e.frame) for e in pipe.experts]
        center = (pipe.center.state, pipe.center.frame)

        boxes = [np.array([120.0, 90.0, 40.0, 30.0])] * count
        with pytest.raises(ContractViolationError, match="expected 3 measurements"):
            pipe.step(boxes)

        for e, (state, last_meas, misses, frame) in zip(pipe.experts, before):
            assert e.state is state and e.last_meas is last_meas
            assert (e.misses, e.frame) == (misses, frame)
        assert pipe.center.state is center[0] and pipe.center.frame == center[1] == 5

    @pytest.mark.parametrize("convert", [list, tuple, lambda y: BoundingBox(*y)],
                             ids=["list", "tuple", "box"])
    def test_other_reading_types_give_identical_estimates(self, convert):
        model = build_track_model(meas_var=9.0)
        cfg = FusionConfig(vote=VoteConfig(omega0=1.0, omega=20.0, lam=50.0))
        arrays, others = make_pipeline(3, model, cfg), make_pipeline(3, model, cfg)
        for boxes in self.frames(50):
            want = arrays.step(boxes)
            got = others.step([None if y is None else convert(y) for y in boxes])
            if want is None:
                assert got is None
                continue
            assert (got.frame, got.coasting) == (want.frame, want.coasting)
            assert np.array_equal(got.state.mean, want.state.mean)
            assert np.array_equal(got.state.cov, want.state.cov)
            weights = [np.stack((e.w_d, e.w_M, e.rvv_scale)) for e in (got, want)]
            assert np.array_equal(*weights, equal_nan=True)
            for a, b in zip(others.experts, arrays.experts):
                assert np.array_equal(a.state.mean, b.state.mean)
                assert np.array_equal(a.state.cov, b.state.cov)


class TestAtomicStep:
    """A frame that raises leaves the pipeline as if it had never been fed."""

    @staticmethod
    def frames(n_frames):
        rng = np.random.default_rng(21)
        truth = np.array([100.0, 80.0, 40.0, 30.0])
        return [[truth + t + rng.normal(0, 3, 4) for _ in range(3)] for t in range(n_frames)]

    @pytest.mark.parametrize("detector", [0, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_failed_frame_rolls_back_every_clock_and_state(self, bad, detector):
        model = build_track_model(meas_var=9.0)
        cfg = FusionConfig(vote=VoteConfig(omega0=1.0, omega=20.0, lam=50.0))
        pipe, clean = make_pipeline(3, model, cfg), make_pipeline(3, model, cfg)
        good = self.frames(5)
        for boxes in good[:3]:
            pipe.step(boxes)
            clean.step(boxes)
        before = [(e.state, e.last_meas, e.misses) for e in pipe.experts]
        center_state = pipe.center.state

        faulty = list(good[3])
        faulty[detector] = np.array([bad, 100.0, 50.0, 40.0])
        with np.errstate(all="ignore"), pytest.raises(ContractViolationError):
            pipe.step(faulty)

        assert [e.frame for e in pipe.experts] == [pipe.center.frame] * 3 == [2] * 3
        for e, (state, last_meas, misses) in zip(pipe.experts, before):
            assert e.state is state and e.last_meas is last_meas and e.misses == misses
        assert pipe.center.state is center_state
        for boxes in good[3:]:
            got, want = pipe.step(boxes), clean.step(boxes)
            assert got.frame == want.frame
            assert np.array_equal(got.state.mean, want.state.mean)
            assert np.array_equal(got.state.cov, want.state.cov)
            for name in ("w_d", "w_M", "rvv_scale"):
                assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)

    @pytest.mark.parametrize("started", [3, 0], ids=["started", "unstarted"])
    @pytest.mark.parametrize("bad", ["abcd", [1, [2, 3], 3, 4]], ids=["text", "ragged"])
    def test_malformed_reading_is_refused_unchanged(self, bad, started):
        model = build_track_model(meas_var=9.0)
        pipe, twin = make_pipeline(3, model), make_pipeline(3, model)
        good = self.frames(started + 2)
        for boxes in good[:started]:
            pipe.step(boxes)
            twin.step(boxes)
        before = [(e.state, e.last_meas, e.misses, e.frame) for e in pipe.experts]
        center = (pipe.center.state, pipe.center.frame)

        faulty = list(good[started])
        faulty[1] = bad
        with pytest.raises(HabdfError, match="reading is not numeric"):
            pipe.step(faulty)

        for e, (state, last_meas, misses, frame) in zip(pipe.experts, before):
            assert e.state is state and e.last_meas is last_meas
            assert (e.misses, e.frame) == (misses, frame)
        assert pipe.center.state is center[0] and pipe.center.frame == center[1] == started - 1
        for boxes in good[started:]:
            got, want = pipe.step(boxes), twin.step(boxes)
            assert got.frame == want.frame
            assert np.array_equal(got.state.mean, want.state.mean)
            assert np.array_equal(got.state.cov, want.state.cov)
            for name in ("w_d", "w_M", "rvv_scale"):
                assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
            for a, b in zip(pipe.experts, twin.experts):
                assert np.array_equal(a.state.mean, b.state.mean)
                assert np.array_equal(a.state.cov, b.state.cov)

    def test_failed_first_frame_leaves_pipeline_unstarted(self):
        pipe = make_pipeline(3, build_track_model())
        boxes = self.frames(1)[0]
        boxes[1] = np.array([np.nan, 100.0, 50.0, 40.0])
        with pytest.raises(ContractViolationError):
            pipe.step(boxes)
        assert all(e.state is None and e.frame == -1 for e in pipe.experts)
        assert pipe.center.state is None and pipe.center.frame == -1

    def test_wrong_length_first_reading_leaves_pipeline_unstarted(self):
        pipe = make_pipeline(3, build_track_model())
        boxes = self.frames(1)[0]
        boxes[0] = np.array([100.0, 80.0, 40.0])
        with pytest.raises(ContractViolationError, match="y and mu must be matching vectors"):
            pipe.step(boxes)
        assert all(e.state is None and e.frame == -1 for e in pipe.experts)
        assert pipe.center.state is None and pipe.center.frame == -1
        assert pipe.step(self.frames(1)[0]).frame == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("detector", [0, 2])
    def test_infinite_first_reading_leaves_pipeline_unstarted(self, bad, detector):
        # Refused by the expert's finiteness test, with no warning first.
        pipe = make_pipeline(3, build_track_model())
        boxes = self.frames(1)[0]
        boxes[detector] = np.array([100.0, bad, 50.0, 40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="^mean contains non-finite entries$"):
                pipe.step(boxes)
        assert all(e.state is None and e.last_meas is None and e.frame == -1
                   for e in pipe.experts)
        assert pipe.center.state is None and pipe.center.frame == -1
        assert pipe.step(self.frames(1)[0]).frame == 0

    def test_overflowing_init_var_is_refused_at_construction(self):
        # init_var I would overflow when symmetrized; the setting is refused
        # once, before any pipeline exists to step.
        with pytest.raises(ContractViolationError,
                           match=r"^init_var overflows 2 \* init_var, got 1e\+308$") as info:
            make_pipeline(3, build_track_model(), init_var=1e308)
        assert info.value.names == ("init_var",)

    def test_cond_limit_refuses_update_frames_only(self):
        # The first frame pins the centre's positions to about rvv / 3 and
        # leaves its rates near init_var. Each coast then adds about the rate
        # variance to the position variance, and after 400 coasts the stacked
        # innovation covariance factors, but its squared diagonal ratio is past
        # COND_LIMIT. A coast makes no update and passes; an update frame is
        # refused by the centre after every expert has stepped, and rolls back.
        model = build_track_model()
        boxes = [np.array([100.0, 80.0, 40.0, 30.0])] * 3
        pipe = make_pipeline(3, model, init_var=1e8)
        pipe.step(boxes)
        for _ in range(400):
            est = pipe.step([None] * 3)
            assert est.coasting and np.isfinite(est.w_M).all()

        before = [(e.state, e.last_meas, e.misses, e.frame) for e in pipe.experts]
        center_state = pipe.center.state
        updates = []

        def recording_update(pred, stacked, y):
            updates.append((pred, stacked))
            return kf_update(pred, stacked, y)

        with pytest.MonkeyPatch.context() as mp, pytest.raises(DegenerateGeometryError):
            mp.setattr(fusion, "kf_update", recording_update)
            pipe.step(boxes)
        (pred, stacked), = updates
        S = stacked.C @ pred.cov @ stacked.C.T + stacked.Rvv
        d = _cholesky(S).diagonal()
        assert (d.max() / d.min()) ** 2 > COND_LIMIT
        for e, (state, last_meas, misses, frame) in zip(pipe.experts, before):
            assert e.state is state and e.last_meas is last_meas
            assert (e.misses, e.frame) == (misses, frame) == (400, 400)
        assert pipe.center.state is center_state and pipe.center.frame == 400
        assert pipe.step([None] * 3).frame == 401


class TestAtomicCenterStep:
    """A bare FusionCenter.step that raises leaves the center as it was."""

    BOX = [100.0, 80.0, 40.0, 30.0]

    def test_wrong_report_count_leaves_clock_and_state(self):
        model = build_track_model()
        fc, twin = FusionCenter(model, 3), FusionCenter(model, 3)
        reports = [make_report(model, self.BOX)] * 3
        with pytest.raises(ContractViolationError, match="expected 3 reports"):
            fc.step(reports[:2], [self.BOX] * 2)
        assert fc.frame == -1 and fc.state is None

        fc.step(reports, [self.BOX] * 3)
        twin.step(reports, [self.BOX] * 3)
        state = fc.state
        with pytest.raises(ContractViolationError, match="expected 3 reports"):
            fc.step(reports, [self.BOX] * 2)
        assert fc.frame == 0 and fc.state is state
        got, want = fc.step(reports, [self.BOX] * 3), twin.step(reports, [self.BOX] * 3)
        assert got.frame == want.frame == 1
        assert np.array_equal(got.state.mean, want.state.mean)
        assert np.array_equal(got.state.cov, want.state.cov)

    @pytest.mark.parametrize("bad", ["abcd", [1, [2, 3], 3, 4]], ids=["text", "ragged"])
    def test_malformed_reading_is_refused_unchanged(self, bad):
        model = build_track_model()
        fc, twin = FusionCenter(model, 3), FusionCenter(model, 3)
        reports = [make_report(model, self.BOX)] * 3
        fc.step(reports, [self.BOX] * 3)
        twin.step(reports, [self.BOX] * 3)
        state = fc.state
        with pytest.raises(ContractViolationError, match="reading is not numeric"):
            fc.step(reports, [self.BOX, bad, self.BOX])
        assert fc.frame == 0 and fc.state is state
        got, want = fc.step(reports, [self.BOX] * 3), twin.step(reports, [self.BOX] * 3)
        assert got.frame == want.frame == 1
        assert np.array_equal(got.state.mean, want.state.mean)
        assert np.array_equal(got.state.cov, want.state.cov)

    def test_failed_first_update_leaves_center_unstarted(self):
        # A prior variance of 1e14 against detector noise near 1 puts the
        # stacked innovation covariance's squared diagonal ratio past COND_LIMIT.
        model = build_track_model()
        fc = FusionCenter(model, 3, init_var=1e14)
        reports = [make_report(model, self.BOX)] * 3
        with pytest.raises(DegenerateGeometryError):
            fc.step(reports, [self.BOX] * 3)
        assert fc.frame == -1 and fc.state is None


FAULTS = ("ok", "missing", "nan", "inf", "huge", "frozen")


@st.composite
def fault_sequence(draw):
    """Per frame, at most one detector misbehaves: absent, NaN, inf, 1e308 or
    frozen at its last good reading."""
    n_frames = draw(st.integers(min_value=1, max_value=25))
    frames = [
        (draw(st.sampled_from(FAULTS)), draw(st.integers(min_value=0, max_value=2)))
        for _ in range(n_frames)
    ]
    return draw(st.integers(min_value=0, max_value=2**32 - 1)), frames


class TestFaultSequenceProperty:
    """ROADMAP's robustness rule over random single-detector fault sequences:
    each step returns a finite estimate or raises with all state unchanged,
    every frame clock agrees, and a pipeline that raised goes on exactly like
    one that never saw the refused frames."""

    @staticmethod
    def snapshot(pipe):
        experts = [(e.state, e.last_meas, e.misses, e.frame) for e in pipe.experts]
        return experts, pipe.center.state, pipe.center.frame

    @settings(max_examples=40, deadline=None)
    @given(fault_sequence())
    def test_step_is_finite_or_refused_unchanged(self, bundle):
        seed, frames = bundle
        rng = np.random.default_rng(seed)
        model = build_track_model(meas_var=9.0)
        cfg = FusionConfig(stale_after=3, vote=VoteConfig(omega0=1.0, omega=20.0, lam=50.0))
        pipe, twin = make_pipeline(3, model, cfg), make_pipeline(3, model, cfg)
        truth = np.array([200.0, 150.0, 60.0, 40.0])
        last_good = [None] * 3
        for t, (fault, det) in enumerate(frames):
            boxes = [truth + t + rng.normal(0, 3, 4) for _ in range(3)]
            bad = {"missing": None, "frozen": last_good[det],
                   "nan": np.array([np.nan, 1.0, 1.0, 1.0]),
                   "inf": np.array([150.0, np.inf, 50.0, 40.0]),
                   "huge": np.array([1e308, 100.0, 50.0, 40.0])}
            if fault != "ok":
                boxes[det] = bad[fault]
            experts, state, frame = self.snapshot(pipe)
            try:
                # 1e308 and inf readings overflow, or meet zeros, in products.
                with np.errstate(all="ignore"):
                    est = pipe.step(boxes)
                    want = twin.step(boxes)
            except HabdfError:
                now = self.snapshot(pipe)
                for (s1, m1, k1, f1), (s0, m0, k0, f0) in zip(now[0], experts):
                    assert s1 is s0 and m1 is m0 and (k1, f1) == (k0, f0)
                assert now[1] is state and now[2] == frame
            else:
                if est is None:
                    assert want is None
                else:
                    assert np.isfinite(est.state.mean).all()
                    assert np.isfinite(est.state.cov).all()
                    assert np.array_equal(est.state.mean, want.state.mean)
                    assert np.array_equal(est.state.cov, want.state.cov)
                    weights = [np.stack((e.w_d, e.w_M, e.rvv_scale)) for e in (est, want)]
                    assert np.array_equal(*weights, equal_nan=True)
                last_good = [b if b is not None and np.isfinite(b).all() and abs(b).max() < 1e6
                             else g for b, g in zip(boxes, last_good)]
            assert len({e.frame for e in pipe.experts} | {pipe.center.frame}) == 1
