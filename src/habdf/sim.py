"""Virtual test bench: a second-order plant watched by faulty sensors.

The bench produces a ground-truth signal by driving a second-order plant
with a set-point profile, clones it through several sensors with injected
faults (noise, spikes, drift, shock offsets), and runs the full expert bank
plus fusion center over the readings. Everything is deterministic under a
fixed seed, with per-sensor RNG streams so evaluation order never matters.

A positional PID controller is included for closed-loop demos; the original
use case steers a pan/tilt camera with it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import ContractViolationError, _setting
from .fusion import FusionConfig, _each, make_pipeline
from .kalman import build_cv_model

__all__ = [
    "SecondOrderPlant",
    "plant_step",
    "steady_state",
    "run_plant",
    "setpoint_profile",
    "FaultProfile",
    "inject_faults",
    "PidGains",
    "PidState",
    "pid_step",
    "run_pan_loop",
    "SimScenario",
    "SimResult",
    "run_sim_experiment",
]


@dataclass(frozen=True)
class SecondOrderPlant:
    """Standard second-order lag: gain * wn^2 / (s^2 + 2 zeta wn s + wn^2).

    State is (output, output rate). ``dt`` is the sample period in seconds.
    """

    natural_freq: float
    damping: float
    gain: float = 1.0
    dt: float = 1.0

    def __post_init__(self):
        _setting("natural_freq", self.natural_freq, "> 0 and finite")
        _setting("damping", self.damping, ">= 0 and finite")
        _setting("dt", self.dt, "> 0 and finite")
        _setting("gain", self.gain, "finite")


@lru_cache(maxsize=64)
def _zoh(natural_freq: float, damping: float, gain: float, dt: float):
    # Exact zero-order-hold discretization via the matrix exponential of the
    # companion form augmented with the input column.
    wn, z = natural_freq, damping
    m = np.array([[0.0, 1.0, 0.0], [-wn * wn, -2.0 * z * wn, gain * wn * wn], [0.0, 0.0, 0.0]])
    em = expm(m * dt)
    return em[:2, :2].copy(), em[:2, 2].copy()


def plant_step(state, plant: SecondOrderPlant, u: float):
    """Advance one sample under held input ``u``; returns (new_state, output)."""
    x = np.asarray(state, dtype=float)
    if x.shape != (2,) or not np.isfinite(x).all():
        raise ContractViolationError(f"plant state must be a finite 2-vector, got {x}")
    if not math.isfinite(u):
        raise ContractViolationError(f"input must be finite, got {u}")
    ad, bd = _zoh(plant.natural_freq, plant.damping, plant.gain, plant.dt)
    new = ad @ x + bd * u
    return new, float(new[0])


def steady_state(plant: SecondOrderPlant, u: float) -> np.ndarray:
    """Equilibrium state under constant input ``u``: output gain*u, rate 0."""
    return np.array([plant.gain * u, 0.0])


def run_plant(plant: SecondOrderPlant, inputs, x0=None) -> np.ndarray:
    """Sample-then-step simulation; outputs[t] is the state BEFORE inputs[t] acts."""
    u = np.asarray(inputs, dtype=float)
    x = np.zeros(2) if x0 is None else np.asarray(x0, dtype=float)
    out = np.empty(u.shape[0])
    for t in range(u.shape[0]):
        out[t] = x[0]
        x, _ = plant_step(x, plant, u[t])
    return out


def setpoint_profile(kind: str, n: int, amplitude: float = 1.0, period: int = 200,
                     value: float = 0.0) -> np.ndarray:
    """Set-point sequences: constant ``value``, alternating square wave of
    +/- ``amplitude`` switching every ``period`` samples, or a repeating ramp
    from 0 to ``amplitude`` over ``period`` samples."""
    _setting("n", n, "an integer >= 1")
    t = np.arange(n)
    if kind == "constant":
        return np.full(n, float(value))
    _setting("period", period, "an integer >= 1")
    if kind == "square":
        return amplitude * (1.0 - 2.0 * ((t // period) % 2))
    if kind == "ramp":
        return amplitude * ((t % period) / period)
    raise ContractViolationError(f"unknown setpoint kind {kind!r}")


@dataclass(frozen=True)
class FaultProfile:
    """Additive fault recipe for one sensor.

    reading[t] = clean[t] + N(0, noise_sigma) + spike_mag * Bernoulli(spike_prob)
                 + drift_rate * t + shock_offset * [shock_start <= t < shock_end]

    The all-zero profile is the identity.
    """

    noise_sigma: float = 0.0
    spike_prob: float = 0.0
    spike_mag: float = 0.0
    drift_rate: float = 0.0
    shock_offset: float = 0.0
    shock_start: int = 0
    shock_end: int = 0

    def __post_init__(self):
        _setting("noise_sigma", self.noise_sigma, ">= 0 and finite")
        _setting("spike_prob", self.spike_prob, "in [0, 1]")
        for name in ("spike_mag", "drift_rate", "shock_offset"):
            _setting(name, getattr(self, name), "finite")
        start, end = self.shock_start, self.shock_end
        if _setting("shock_start", start, "an integer") > _setting("shock_end", end, "an integer"):
            raise ContractViolationError("shock_start and shock_end must be ordered, "
                                         f"got {start} and {end}", ("shock_start", "shock_end"))


def inject_faults(clean, profile: FaultProfile, seed: int = 0) -> np.ndarray:
    """Apply the fault recipe to a clean signal, drawing noise and then spikes
    from the RNG stream ``seed``; the input is never mutated."""
    _setting("seed", seed, "an integer >= 0")
    x = np.asarray(clean, dtype=float)
    if x.ndim != 1:
        raise ContractViolationError(f"clean signal must be 1-D, got ndim={x.ndim}")
    if not np.isfinite(x).all():
        raise ContractViolationError("clean signal contains non-finite entries")
    t = np.arange(x.shape[0])
    rng = np.random.default_rng(seed)
    y = x + rng.normal(0.0, profile.noise_sigma, x.shape[0])
    y = y + profile.spike_mag * (rng.random(x.shape[0]) < profile.spike_prob)
    y = y + profile.drift_rate * t
    y = y + profile.shock_offset * ((t >= profile.shock_start) & (t < profile.shock_end))
    return y


@dataclass(frozen=True)
class PidGains:
    """Positional PID gains; ``integral_limit``, inf by default, clamps |integral| (anti-windup)."""

    kp: float
    ki: float
    kd: float
    dt: float
    integral_limit: float = math.inf

    def __post_init__(self):
        _setting("dt", self.dt, "> 0 and finite")
        for name in ("kp", "ki", "kd"):
            _setting(name, getattr(self, name), "finite")
        _setting("integral_limit", self.integral_limit, "> 0")


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0
    prev_error: float = 0.0


def pid_step(error: float, state: PidState, gains: PidGains):
    """One positional PID update; returns (command, new_state).

    Integral uses the trapezoid rule, derivative the backward difference.
    """
    if not math.isfinite(error):
        raise ContractViolationError(f"error must be finite, got {error}")
    integral = state.integral + 0.5 * (error + state.prev_error) * gains.dt
    integral = min(max(integral, -gains.integral_limit), gains.integral_limit)
    derivative = (error - state.prev_error) / gains.dt
    command = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return float(command), PidState(integral, error)


def run_pan_loop(gains: PidGains, frames: int, setpoint: float = 0.0,
                 disturbance: float = 0.0, disturb_at: int = 0,
                 plant_gain: float = 0.02) -> np.ndarray:
    """Close the PID loop around a pan-axis integrator plant.

    The plant integrates ``plant_gain`` times the velocity command plus a
    constant disturbance switched on at sample ``disturb_at``; the gain is the
    axis rate response per command unit, small for a geared servo. Returns the
    angle trajectory. Note the derivative term's loop gain through an
    integrator is kd * plant_gain, which must stay below 1 for stability.
    """
    _setting("frames", frames, "an integer >= 1")
    _setting("plant_gain", plant_gain, "> 0 and finite")
    x = 0.0
    st = PidState()
    out = np.empty(frames)
    for t in range(frames):
        u, st = pid_step(setpoint - x, st, gains)
        d = disturbance if t >= disturb_at else 0.0
        x = x + gains.dt * plant_gain * (u + d)
        out[t] = x
    return out


@dataclass(frozen=True)
class SimScenario:
    """Full bench description: plant, set-point, sensor faults, fusion knobs.

    The filter bank runs on the frame clock (``filter_dt`` frames), decoupled
    from the plant's physical ``plant.dt``. Bench measurements are scalar, so
    ``fusion.expert.xi`` should be a 1-dof threshold, as
    ``records.scenario_from_config`` derives it. ``meas_var`` is one value
    for every sensor or any sequence of one entry per sensor; another length
    is refused here, and a value a model refuses when the run builds it.
    """

    frames: int
    plant: SecondOrderPlant
    fusion: FusionConfig
    start_at_steady: bool = True
    setpoint_kind: str = "square"
    setpoint_amplitude: float = 1.0
    setpoint_period: int = 200
    setpoint_value: float = 0.0
    faults: tuple[FaultProfile, ...] = ()
    filter_dt: float = 1.0
    accel_var: float = 0.05
    meas_var: float | Sequence[float] = 4.0
    init_var: float = 1e4
    seed: int = 0

    def __post_init__(self):
        _setting("frames", self.frames, "an integer >= 1")
        _setting("seed", self.seed, "an integer >= 0")
        _each("meas_var", self.meas_var, len(self.faults))

    def fusion_config(self) -> FusionConfig:
        """The fusion settings, ``self.fusion``."""
        return self.fusion


@dataclass(frozen=True)
class SimResult:
    """Per-frame bench record, sensors stacked row-wise."""

    frame: np.ndarray
    truth: np.ndarray
    sensors: np.ndarray
    experts: np.ndarray
    w_m: np.ndarray
    w_d: np.ndarray
    rvv: np.ndarray
    fused: np.ndarray
    fused_var: np.ndarray
    seed: int

    @property
    def n_sensors(self) -> int:
        return self.sensors.shape[0]

    def sensor_rmse(self) -> np.ndarray:
        return np.sqrt(np.mean((self.sensors - self.truth) ** 2, axis=1))

    def fused_rmse(self) -> float:
        return float(np.sqrt(np.mean((self.fused - self.truth) ** 2)))


def _sensor_seeds(run_seed: int, n: int) -> list[int]:
    children = np.random.SeedSequence(run_seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


# Models are immutable values, so the scenario check and the runs that follow
# it share one per distinct (dt, accel_var, meas_var) instead of rebuilding it.
_cached_cv_model = lru_cache(maxsize=64)(build_cv_model)


def _cv_model(*args):
    """``build_cv_model(*args)``, shared while every argument is hashable; an
    unhashable one is built uncached, so that build_cv_model refuses it."""
    try:
        return _cached_cv_model(*args)
    except TypeError:
        return build_cv_model(*args)


def _pipeline(scenario: SimScenario):
    """The expert bank and fusion centre that a run of ``scenario`` steps."""
    n = len(scenario.faults)
    models = []
    for i, mv in enumerate(_each("meas_var", scenario.meas_var, n)):
        try:
            models.append(_cv_model(1, scenario.filter_dt, scenario.accel_var, mv))
        except ContractViolationError as exc:
            if "meas_var" in exc.names:
                exc.detector = i  # the sensor whose own meas_var was refused
            raise
    return make_pipeline(n, models, scenario.fusion, scenario.init_var)


def run_sim_experiment(scenario: SimScenario) -> SimResult:
    """Run the bench end to end from the scenario's seed.

    Per-sensor RNG streams are spawned from ``scenario.seed``, so results are
    bit-identical for a fixed seed regardless of sensor evaluation order.
    """
    pipe = _pipeline(scenario)  # first: it refuses fewer than 3 sensors before any plant work
    n = len(scenario.faults)

    sp = setpoint_profile(
        scenario.setpoint_kind, scenario.frames, scenario.setpoint_amplitude,
        scenario.setpoint_period, scenario.setpoint_value,
    )
    x0 = steady_state(scenario.plant, sp[0]) if scenario.start_at_steady else None
    truth = run_plant(scenario.plant, sp, x0)

    seeds = _sensor_seeds(scenario.seed, n)
    sensors = np.stack([inject_faults(truth, p, s) for p, s in zip(scenario.faults, seeds)])

    T = scenario.frames
    experts, w_m, w_d, rvv = np.empty((4, n, T))
    fused, fused_var = np.empty((2, T))
    for t in range(T):
        est = pipe.step([sensors[i, t:t + 1] for i in range(n)])
        experts[:, t] = [e.state.m0[0] for e in pipe.experts]
        w_m[:, t], w_d[:, t], rvv[:, t] = est.w_M, est.w_d, est.rvv_scale
        fused[t] = est.state.mean[0]
        fused_var[t] = est.state.cov[0, 0]

    return SimResult(
        frame=np.arange(T), truth=truth, sensors=sensors, experts=experts,
        w_m=w_m, w_d=w_d, rvv=rvv, fused=fused, fused_var=fused_var, seed=scenario.seed,
    )
