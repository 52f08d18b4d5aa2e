"""Every numeric setting is checked by one rule, ``errors._setting``.

Each site below hands one setting to the rule it must keep. A value that is
not a real number (a str, None), NaN, an infinite value where the rule needs a
finite one and a float where it needs a count, ``2.0`` included, are each
refused with a ContractViolationError worded ``<name> must be <rule>, got
<value>``, and with no warning on the way.
"""

import math
import re
import warnings

import numpy as np
import pytest

from habdf import (ContractViolationError, Expert, ExpertConfig, FaultProfile, FusionCenter,
                   FusionConfig, PidGains, SecondOrderPlant, SimScenario, VoteConfig,
                   build_cv_model, build_track_model, chi2_xi, inject_faults, make_pipeline,
                   run_pan_loop, setpoint_profile)
from habdf.errors import _RULES, _setting

PLANT = SecondOrderPlant(1.0, 0.5)
GAINS = PidGains(1.0, 0.1, 0.0, 1.0)

# The values each kind of site refuses.
FINITE = ["1", None, math.nan, math.inf, -math.inf]
COUNT = FINITE + [2.5, 2.0]
COUNT_OR_NONE = [v for v in COUNT if v is not None]  # None: the setting is off

SITES = [  # (id, name in the message, values refused, call with the value)
    ("build_cv_model.n_axes", "n_axes", COUNT, lambda v: build_cv_model(v, 1.0, 1.0, 1.0)),
    ("build_cv_model.dt", "dt", FINITE, lambda v: build_cv_model(1, v, 1.0, 1.0)),
    ("build_cv_model.accel_var", "accel_var", FINITE, lambda v: build_cv_model(1, 1.0, v, 1.0)),
    ("build_cv_model.meas_var", "meas_var", FINITE, lambda v: build_cv_model(1, 1.0, 1.0, v)),
    ("Expert.init_var", "init_var", FINITE, lambda v: Expert(build_track_model(), init_var=v)),
    ("FusionCenter.init_var", "init_var", FINITE,
     lambda v: FusionCenter(build_track_model(), 3, init_var=v)),
    ("FusionCenter.n_detectors", "n_detectors", COUNT,
     lambda v: FusionCenter(build_track_model(), v)),
    ("make_pipeline.n_detectors", "n_detectors", COUNT,
     lambda v: make_pipeline(v, build_track_model())),
    ("chi2_xi.dof", "dof", COUNT, lambda v: chi2_xi(v)),
    ("chi2_xi.confidence", "confidence", FINITE, lambda v: chi2_xi(4, v)),
    ("ExpertConfig.xi", "xi", FINITE, lambda v: ExpertConfig(xi=v)),
    ("Expert.stale_after", "stale_after", COUNT_OR_NONE,
     lambda v: Expert(build_track_model(), stale_after=v)),
    ("FusionConfig.cov_floor", "cov_floor", FINITE, lambda v: FusionConfig(cov_floor=v)),
    ("FusionConfig.stale_after", "stale_after", COUNT, lambda v: FusionConfig(stale_after=v)),
    ("FusionConfig.gains.gamma", "gamma", FINITE,
     lambda v: FusionConfig(gamma=(1.0, v, 1.0)).gains(3)),
    ("FusionConfig.gains.delta", "delta", FINITE, lambda v: FusionConfig(delta=v).gains(3)),
    ("VoteConfig.omega0", "omega0", FINITE, lambda v: VoteConfig(omega0=v)),
    ("VoteConfig.omega", "omega", FINITE, lambda v: VoteConfig(omega=v)),
    ("VoteConfig.lam", "lam", FINITE, lambda v: VoteConfig(lam=v)),
    ("SecondOrderPlant.natural_freq", "natural_freq", FINITE, lambda v: SecondOrderPlant(v, 0.5)),
    ("SecondOrderPlant.damping", "damping", FINITE, lambda v: SecondOrderPlant(1.0, v)),
    ("SecondOrderPlant.gain", "gain", FINITE, lambda v: SecondOrderPlant(1.0, 0.5, gain=v)),
    ("SecondOrderPlant.dt", "dt", FINITE, lambda v: SecondOrderPlant(1.0, 0.5, dt=v)),
    ("setpoint_profile.n", "n", COUNT, lambda v: setpoint_profile("constant", v)),
    ("setpoint_profile.period", "period", COUNT,
     lambda v: setpoint_profile("square", 5, period=v)),
    ("FaultProfile.noise_sigma", "noise_sigma", FINITE, lambda v: FaultProfile(noise_sigma=v)),
    ("FaultProfile.spike_prob", "spike_prob", FINITE, lambda v: FaultProfile(spike_prob=v)),
    ("FaultProfile.spike_mag", "spike_mag", FINITE, lambda v: FaultProfile(spike_mag=v)),
    ("FaultProfile.drift_rate", "drift_rate", FINITE, lambda v: FaultProfile(drift_rate=v)),
    ("FaultProfile.shock_offset", "shock_offset", FINITE,
     lambda v: FaultProfile(shock_offset=v)),
    ("FaultProfile.shock_start", "shock_start", COUNT, lambda v: FaultProfile(shock_start=v)),
    ("FaultProfile.shock_end", "shock_end", COUNT, lambda v: FaultProfile(shock_end=v)),
    ("inject_faults.seed", "seed", COUNT, lambda v: inject_faults([0.0], FaultProfile(), v)),
    ("PidGains.dt", "dt", FINITE, lambda v: PidGains(1.0, 0.1, 0.0, v)),
    ("PidGains.kp", "kp", FINITE, lambda v: PidGains(v, 0.1, 0.0, 1.0)),
    ("PidGains.ki", "ki", FINITE, lambda v: PidGains(1.0, v, 0.0, 1.0)),
    ("PidGains.kd", "kd", FINITE, lambda v: PidGains(1.0, 0.1, v, 1.0)),
    # An infinite limit, the default, clamps nothing.
    ("PidGains.integral_limit", "integral_limit", ["1", None, math.nan, 0.0, -math.inf],
     lambda v: PidGains(1.0, 0.1, 0.0, 1.0, integral_limit=v)),
    ("run_pan_loop.frames", "frames", COUNT, lambda v: run_pan_loop(GAINS, v)),
    ("run_pan_loop.plant_gain", "plant_gain", FINITE,
     lambda v: run_pan_loop(GAINS, 10, plant_gain=v)),
    ("SimScenario.frames", "frames", COUNT,
     lambda v: SimScenario(frames=v, plant=PLANT, fusion=FusionConfig())),
    ("SimScenario.seed", "seed", COUNT,
     lambda v: SimScenario(frames=10, plant=PLANT, fusion=FusionConfig(), seed=v)),
]

ONE_WORDING = "|".join(map(re.escape, _RULES))


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{site}-{value!r}")
    for site, name, refused, call in SITES for value in refused
])
def test_each_site_refuses_a_bad_setting_in_the_one_wording(name, call, value):
    shown = repr(value) if isinstance(value, str) or value is None else str(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError) as info:
            call(value)
    assert re.fullmatch(rf"{name} must be (?:{ONE_WORDING}), got {re.escape(shown)}",
                        str(info.value)), str(info.value)
    assert info.value.names == (name,)


@pytest.mark.parametrize("value, rule", [
    (np.uint8(2), "an integer >= 1"), (np.int64(3), "an integer >= 0"), (10**30, "an integer"),
    (-4, "an integer"), (True, "an integer >= 1"), (np.float32(0.5), "in (0, 1)"),
    (0.0, "in [0, 1]"), (1.0, "in [0, 1]"), (0.0, ">= 0 and finite"), (5e-324, "> 0 and finite"),
    (-1e308, "finite"), (math.inf, "> 0"),
])
def test_a_kept_rule_returns_the_value_as_given(value, rule):
    assert _setting("x", value, rule) is value


def test_stale_after_may_be_off_and_the_pid_limit_defaults_to_inf():
    assert Expert(build_track_model(), stale_after=None).stale_after is None
    assert PidGains(1.0, 0.1, 0.0, 1.0).integral_limit == math.inf
    assert PidGains(1.0, 0.1, 0.0, 1.0, integral_limit=math.inf).integral_limit == math.inf
