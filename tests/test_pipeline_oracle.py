"""Whole-pipeline oracle: ``Pipeline.step`` against the benchmark's reference.

``perfbench/reference.py`` re-derives the fused estimate from the paper's
equations with textbook Kalman algebra and imports nothing from habdf. It is
loaded here by file path, so the one reference serves the benchmark and
tier-1 alike. Both pipelines run through random fault sequences (dropouts,
frozen readings, jumps, spikes and gaps longer than ``stale_after``) at 3, 8
and 32 detectors. Some configs set ``omega0 = 0`` with small ``omega`` and
``delta``, so the ``cov_floor`` engages. Each frame, the fused mean and each
present detector's ``w_d``, ``w_M`` and ``rvv`` agree within the reference's
``ABS_TOL``/``REL_TOL``.

A second oracle, ``oracles.mp_fused_means``, runs the same equations at 50
significant digits. It can rank two float paths, so the pipeline's fused mean
must stay within ``MP_BOUND`` of it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from habdf import ExpertConfig, FusionConfig, VoteConfig, build_cv_model, make_pipeline

_SPEC = importlib.util.spec_from_file_location(
    "habdf_reference", Path(__file__).resolve().parent.parent / "perfbench" / "reference.py")
REF = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(REF)

FAULTS = ("none", "dropout", "freeze", "jump", "spike", "gap")
STALE_AFTER = 4


@st.composite
def settings_and_faults(draw):
    n = draw(st.sampled_from([3, 8, 32]))
    floor = draw(st.booleans())  # omega0 = 0 and small gains: rvv sits on the floor
    gains = st.sampled_from([0.5, 1.0, 3.0])
    fusion = dict(
        xi=draw(st.sampled_from([1.5, 3.08])),
        omega0=0.0 if floor else 1.0,
        omega=draw(st.sampled_from([0.01, 0.1] if floor else [1.0, 20.0])),
        lam=draw(st.sampled_from([5.0, 50.0])),
        gamma=tuple(draw(st.lists(gains, min_size=n, max_size=n))),
        delta=tuple(draw(st.lists(st.sampled_from([0.01, 0.1]) if floor else gains,
                                  min_size=n, max_size=n))),
        cov_floor=draw(st.sampled_from([0.2, 0.5])) if floor else 1e-6,
        stale_after=STALE_AFTER,
        # The reference's non-Joseph update loses digits as init_var / rvv grows.
        init_var=100.0 if floor else draw(st.sampled_from([100.0, 1e4])),
    )
    faults = [(draw(st.sampled_from(FAULTS)), draw(st.integers(0, 20)), draw(st.integers(1, 12)))
              for _ in range(n)]
    return n, fusion, faults, draw(st.integers(10, 36)), draw(st.integers(0, 2**32 - 1))


def readings(n, faults, frames, seed):
    """Per-frame detector readings: a box moving at constant velocity, seen
    with noise, each detector carrying one fault over a window."""
    rng = np.random.default_rng(seed)
    rate = np.array([3.0, -2.0, 0.2, 0.1])
    truth = np.array([300.0, 200.0, 80.0, 60.0]) + np.arange(frames)[:, None] * rate
    ys = truth[:, None, :] + rng.normal(0.0, 3.0, (frames, n, 4))
    out = [list(row) for row in ys]
    for i, (kind, start, length) in enumerate(faults):
        for t in range(start, min(start + length, frames)):
            if kind == "dropout" and rng.random() < 0.5:
                out[t][i] = None
            elif kind == "freeze":
                out[t][i] = ys[start, i]
            elif kind == "jump":
                out[t][i] = ys[t, i] + [150.0, -90.0, 10.0, 5.0]
            elif kind == "spike" and rng.random() < 0.3:
                out[t][i] = ys[t, i] + rng.normal(0.0, 200.0, 4)
        if kind == "gap":  # past stale_after, so the expert resets on reacquisition
            for t in range(start, min(start + STALE_AFTER + 2, frames)):
                out[t][i] = None
    return out


def close(got, want) -> bool:
    return bool(np.all(np.abs(got - want) <= REF.ABS_TOL + REF.REL_TOL * np.abs(want)))


class TestPipelineAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(case=settings_and_faults())
    def test_fused_mean_and_weights_agree_through_fault_sequences(self, case):
        n, p, faults, frames, seed = case
        dt, accel_var, meas_var = 1.0, 1.0, 25.0
        config = FusionConfig(
            gamma=p["gamma"], delta=p["delta"], cov_floor=p["cov_floor"],
            stale_after=p["stale_after"], vote=VoteConfig(p["omega0"], p["omega"], p["lam"]),
            expert=ExpertConfig(xi=p["xi"]),
        )
        pipe = make_pipeline(n, build_cv_model(4, dt, accel_var, meas_var), config, p["init_var"])
        ref = REF.RefPipeline([REF.cv_model(4, dt, accel_var, meas_var)] * n, REF.FusionParams(**p))
        floored = 0
        for t, ys in enumerate(readings(n, faults, frames, seed)):
            est, want = pipe.step(ys), ref.step(ys)
            assert (est is None) == (want is None), t
            if est is None:
                continue
            assert close(est.state.mean, want), t
            w = ref.last_weights
            present = ~np.isnan(w[:, 0])
            for got, col in ((est.w_d, 0), (est.rvv_scale, 2)):
                assert np.array_equal(np.isnan(got), ~present), t
                assert close(got[present], w[present, col]), t
            assert close(est.w_M[present], w[present, 1]), t
            floored += int((est.rvv_scale[present] == p["cov_floor"]).sum())
        if p["omega0"] == 0.0:
            assert floored, "the floor config never reached the floor"


# The fused mean's error against the 50-digit run, as max |error| / max |mean|
# per frame: at most 1.9e-13 over the eight runs below (n = 8, init_var 1e4,
# floor config), so the bound has a margin of about 50. On the same runs
# perfbench/reference.py is up to 2.8e-9 off.
MP_BOUND = 1e-11


class TestPipelineAgainst50Digits:
    @pytest.mark.parametrize("floor", [False, True], ids=["default", "floor"])
    @pytest.mark.parametrize("init_var", [1e2, 1e4])
    @pytest.mark.parametrize("n", [3, 8])
    def test_fused_mean_stays_near_the_50_digit_run(self, n, init_var, floor):
        # The floor config also resets experts after a gap (stale_after 4).
        config = FusionConfig(gamma=1.0, delta=0.01, cov_floor=0.2, stale_after=STALE_AFTER,
                              vote=VoteConfig(0.0, 0.01, 5.0)) if floor else FusionConfig()
        faults = [(FAULTS[i % len(FAULTS)], 2 + i, 8) for i in range(n)]
        ys = readings(n, faults, 20, 7)
        vote = config.vote
        want = oracles.mp_fused_means(
            ys, 1.0, 1.0, 25.0, init_var, config.expert.xi, vote.omega0, vote.omega, vote.lam,
            *config.gains(n), config.cov_floor, config.stale_after)
        pipe = make_pipeline(n, build_cv_model(4, 1.0, 1.0, 25.0), config, init_var)
        floored = 0
        for t, (y, mean) in enumerate(zip(ys, want)):
            est = pipe.step(y)
            assert (est is None) == (mean is None), t
            if est is not None:
                err = np.abs(est.state.mean - mean).max() / np.abs(mean).max()
                assert err < MP_BOUND, (t, err)
                floored += int((est.rvv_scale == config.cov_floor).sum())
        assert floored or not floor, "the floor config never reached the floor"
