"""Bench physics: plant, faults, PID loop, and the end-to-end experiment."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from habdf import (
    ContractViolationError,
    ExpertConfig,
    FaultProfile,
    FusionConfig,
    InsufficientDetectorsError,
    PidGains,
    PidState,
    SecondOrderPlant,
    SimScenario,
    VoteConfig,
    chi2_xi,
    inject_faults,
    load_config,
    pid_step,
    plant_step,
    run_pan_loop,
    run_plant,
    run_sim_experiment,
    setpoint_profile,
    steady_state,
)
from habdf import sim
from habdf.records import scenario_from_config


class TestPlant:
    def test_step_response_reaches_dc_gain(self):
        plant = SecondOrderPlant(2.0, 0.7, gain=5.0, dt=0.05)
        x = np.zeros(2)
        for _ in range(2000):
            x, y = plant_step(x, plant, 1.0)
        assert y == pytest.approx(5.0, abs=1e-9)

    def test_steady_state_is_fixed_point(self):
        plant = SecondOrderPlant(2.0, 0.7, gain=100.0, dt=0.05)
        x = steady_state(plant, 1.0)
        x2, y = plant_step(x, plant, 1.0)
        assert np.allclose(x2, x, atol=1e-12)
        assert y == pytest.approx(100.0, abs=1e-12)

    def test_critical_damping_never_overshoots(self):
        plant = SecondOrderPlant(2.0, 1.0, gain=1.0, dt=0.01)
        x = np.zeros(2)
        for _ in range(3000):
            x, y = plant_step(x, plant, 1.0)
            assert y <= 1.0 + 1e-9

    def test_underdamped_overshoot_matches_theory_and_integrator(self):
        wn, z = 2.0, 0.2
        plant = SecondOrderPlant(wn, z, gain=1.0, dt=0.01)
        u = np.ones(1200)
        out = run_plant(plant, u)
        peak = out.max()
        theory = np.exp(-np.pi * z / np.sqrt(1.0 - z * z))
        assert peak - 1.0 == pytest.approx(theory, rel=0.01)
        fine = oracles.rk4_second_order(wn, z, 1.0, u, 0.01, [0.0, 0.0])
        assert np.allclose(out, fine, atol=1e-9)

    def test_discretization_matches_fine_integrator(self):
        # ten time constants of a unit-gain plant under constant drive
        wn, z, dt = 2.0, 0.7, 0.05
        frames = int(10.0 / (z * wn) / dt) + 1
        plant = SecondOrderPlant(wn, z, gain=1.0, dt=dt)
        u = np.ones(frames)
        coarse = run_plant(plant, u)
        fine = oracles.rk4_second_order(wn, z, 1.0, u, dt, [0.0, 0.0])
        assert np.allclose(coarse, fine, atol=1e-6)

    def test_run_plant_samples_before_stepping(self):
        plant = SecondOrderPlant(2.0, 0.7, gain=1.0, dt=0.05)
        out = run_plant(plant, np.ones(5), x0=[3.0, 0.0])
        assert out[0] == 3.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ContractViolationError):
            SecondOrderPlant(0.0, 0.7)
        with pytest.raises(ContractViolationError):
            SecondOrderPlant(2.0, -0.1)
        with pytest.raises(ContractViolationError):
            SecondOrderPlant(2.0, 0.7, dt=0.0)


class TestSetpointProfile:
    def test_constant(self):
        assert np.array_equal(setpoint_profile("constant", 4, value=2.5), [2.5] * 4)

    def test_square_alternates_each_period(self):
        sp = setpoint_profile("square", 6, amplitude=3.0, period=2)
        assert np.array_equal(sp, [3.0, 3.0, -3.0, -3.0, 3.0, 3.0])

    def test_ramp_repeats(self):
        sp = setpoint_profile("ramp", 5, amplitude=4.0, period=4)
        assert np.allclose(sp, [0.0, 1.0, 2.0, 3.0, 0.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolationError):
            setpoint_profile("sawtooth", 10)


class TestInjectFaults:
    def test_all_zero_profile_is_identity(self):
        clean = np.linspace(0, 10, 50)
        out = inject_faults(clean, FaultProfile())
        assert np.array_equal(out, clean)

    def test_drift_is_exactly_linear(self):
        clean = np.zeros(200)
        out = inject_faults(clean, FaultProfile(drift_rate=0.1))
        assert out[100] == pytest.approx(10.0, abs=1e-12)
        assert out[0] == 0.0

    def test_shock_is_window_limited(self):
        clean = np.zeros(100)
        out = inject_faults(clean, FaultProfile(shock_offset=-7.0, shock_start=20, shock_end=60))
        assert np.all(out[:20] == 0.0)
        assert np.all(out[20:60] == -7.0)
        assert np.all(out[60:] == 0.0)

    def test_spike_count_concentrates(self):
        clean = np.zeros(10_000)
        out = inject_faults(clean, FaultProfile(spike_prob=0.05, spike_mag=60.0), 11)
        count = int(np.sum(out != 0.0))
        assert 400 <= count <= 600

    def test_noise_statistics(self):
        clean = np.zeros(100_000)
        out = inject_faults(clean, FaultProfile(noise_sigma=2.0), 5)
        assert abs(out.mean()) < 0.05
        assert abs(out.std() / 2.0 - 1.0) < 0.05

    def test_deterministic_given_seed(self):
        clean = np.linspace(0, 5, 300)
        prof = FaultProfile(noise_sigma=1.0, spike_prob=0.1, spike_mag=9.0)
        a = inject_faults(clean, prof, 3)
        b = inject_faults(clean, prof, 3)
        assert np.array_equal(a, b)

    def test_input_not_mutated(self):
        clean = np.zeros(10)
        inject_faults(clean, FaultProfile(noise_sigma=1.0), 1)
        assert np.array_equal(clean, np.zeros(10))

    def test_bad_probability_rejected(self):
        with pytest.raises(ContractViolationError):
            FaultProfile(spike_prob=1.5)


def pid_oracle(errors, kp, ki, kd, dt):
    """Independent positional PID transcript: trapezoid integral, backward
    difference, no state objects."""
    out = []
    integ = 0.0
    prev = 0.0
    for e in errors:
        integ += 0.5 * (e + prev) * dt
        deriv = (e - prev) / dt
        out.append(kp * e + ki * integ + kd * deriv)
        prev = e
    return out


class TestPid:
    def test_pure_proportional(self):
        gains = PidGains(4.0, 0.0, 0.0, 0.1)
        cmd, _ = pid_step(2.5, PidState(), gains)
        assert cmd == pytest.approx(10.0, abs=1e-12)

    def test_zero_error_keeps_state_and_command_zero(self):
        gains = PidGains(4.0, 1.0, 2.0, 0.1)
        st = PidState()
        for _ in range(5):
            cmd, st = pid_step(0.0, st, gains)
            assert cmd == 0.0
        assert st == PidState(0.0, 0.0)

    def test_matches_independent_transcript(self):
        rng = np.random.default_rng(19)
        errors = rng.normal(0, 2, 100)
        gains = PidGains(35.0, 3.4, 8.0, 0.05)
        st = PidState()
        got = []
        for e in errors:
            cmd, st = pid_step(float(e), st, gains)
            got.append(cmd)
        want = pid_oracle(errors, 35.0, 3.4, 8.0, 0.05)
        assert np.allclose(got, want, atol=1e-12)

    def test_integral_limit_clamps(self):
        gains = PidGains(0.0, 1.0, 0.0, 1.0, integral_limit=2.0)
        st = PidState()
        for _ in range(10):
            cmd, st = pid_step(5.0, st, gains)
        assert st.integral == 2.0
        assert cmd == 2.0

    def test_disturbance_regulation_within_bounded_settling(self):
        """The stated controller gains drive a step disturbance on the pan
        axis back inside a 2 percent band of the peak deflection."""
        gains = PidGains(35.0, 3.4, 8.0, 0.05)
        out = run_pan_loop(gains, 1500, setpoint=0.0, disturbance=5.0,
                           disturb_at=10, plant_gain=0.02)
        devi = np.abs(out[10:])
        peak = devi.max()
        assert peak > 0.0
        band = 0.02 * peak
        settle = None
        for t in range(len(devi)):
            if np.all(devi[t:] < band):
                settle = t
                break
        assert settle is not None and settle < 1000

    def test_pan_loop_matches_independent_replay(self):
        gains = PidGains(35.0, 3.4, 8.0, 0.05)
        out = run_pan_loop(gains, 300, setpoint=1.0, plant_gain=0.02)
        x, integ, prev = 0.0, 0.0, 0.0
        replay = []
        for t in range(300):
            e = 1.0 - x
            integ += 0.5 * (e + prev) * gains.dt
            u = gains.kp * e + gains.ki * integ + gains.kd * (e - prev) / gains.dt
            prev = e
            x += gains.dt * 0.02 * u
            replay.append(x)
        assert np.allclose(out, replay, atol=1e-12)


def scalar_fusion(**kw):
    """Fusion settings with the 1-dof expert threshold scalar sensors use."""
    return FusionConfig(expert=ExpertConfig(xi=chi2_xi(1, 0.95)), **kw)


def small_scenario(**kw):
    base = dict(
        frames=120, plant=SecondOrderPlant(2.0, 0.7, gain=10.0, dt=0.05),
        fusion=scalar_fusion(), setpoint_kind="constant", setpoint_value=1.0,
        faults=(FaultProfile(), FaultProfile(), FaultProfile()),
        accel_var=0.5, meas_var=1.0,
    )
    base.update(kw)
    return SimScenario(**base)


class TestRunSimExperiment:
    def test_needs_three_sensors(self):
        with pytest.raises(InsufficientDetectorsError):
            run_sim_experiment(small_scenario(faults=(FaultProfile(), FaultProfile())))

    @pytest.mark.parametrize("n", [2, 0])
    def test_short_scenario_is_refused_before_any_work(self, n, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(sim, "run_plant", no_work)
        with pytest.raises(InsufficientDetectorsError, match=f"at least 3 detectors, got {n}$"):
            run_sim_experiment(small_scenario(faults=(FaultProfile(),) * n))

    def test_zero_fault_sensors_fuse_at_least_as_well_as_best(self):
        res = run_sim_experiment(small_scenario())
        assert res.fused_rmse() <= res.sensor_rmse().min() + 1e-6

    def test_bit_identical_under_fixed_seed(self):
        sc = small_scenario(faults=(
            FaultProfile(noise_sigma=2.0),
            FaultProfile(noise_sigma=1.0, drift_rate=0.05),
            FaultProfile(noise_sigma=1.0, spike_prob=0.05, spike_mag=8.0),
        ))
        a = run_sim_experiment(replace(sc, seed=123))
        b = run_sim_experiment(replace(sc, seed=123))
        for name in ("truth", "sensors", "experts", "w_m", "w_d", "rvv", "fused", "fused_var"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seeds_differ(self):
        sc = small_scenario(faults=(
            FaultProfile(noise_sigma=2.0),
            FaultProfile(noise_sigma=2.0),
            FaultProfile(noise_sigma=2.0),
        ))
        a = run_sim_experiment(replace(sc, seed=1))
        b = run_sim_experiment(replace(sc, seed=2))
        assert not np.array_equal(a.sensors, b.sensors)

    @pytest.mark.parametrize("meas_var", [(4.0, 4.0), (4.0,) * 4])
    def test_meas_var_tuple_needs_one_entry_per_sensor(self, meas_var):
        scenario = scenario_from_config(load_config("three_sensor_faults.scenario"))
        assert run_sim_experiment(replace(scenario, meas_var=(4.0,) * 3)).n_sensors == 3
        with pytest.raises(ContractViolationError, match=f"{len(meas_var)} entries for 3"):
            replace(scenario, meas_var=meas_var)

    def test_result_shapes_and_defaults(self):
        sc = small_scenario()
        res = run_sim_experiment(sc)
        assert res.n_sensors == 3
        assert res.truth.shape == (120,)
        assert res.sensors.shape == (3, 120)
        assert res.fused.shape == (120,)
        assert res.seed == sc.seed

    def test_shocked_sensor_noise_scale_inflates(self):
        sc = small_scenario(
            frames=200,
            faults=(
                FaultProfile(noise_sigma=1.0),
                FaultProfile(noise_sigma=1.0),
                FaultProfile(noise_sigma=1.0, shock_offset=-40.0, shock_start=100, shock_end=160),
            ),
            fusion=scalar_fusion(
                vote=VoteConfig(omega0=1.0, omega=500.0, lam=30.0), gamma=10.0, delta=40.0,
            ),
        )
        res = run_sim_experiment(replace(sc, seed=4))
        pre = res.rvv[2, 20:100].mean()
        during = res.rvv[2, 100:160].mean()
        assert during >= 5.0 * pre


GAINS = PidGains(1.0, 0.1, 0.0, 1.0)


class TestRefusals:
    """Each public check of the bench physics refuses its own bad input with
    its own message."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: SecondOrderPlant(1.0, 0.5, gain=np.inf),
                     r"gain must be finite, got inf", id="plant-gain"),
        pytest.param(lambda: plant_step([0.0, 0.0, 0.0], SecondOrderPlant(1.0, 0.5), 0.0),
                     r"plant state must be a finite 2-vector", id="plant-state"),
        pytest.param(lambda: plant_step([0.0, 0.0], SecondOrderPlant(1.0, 0.5), np.nan),
                     r"input must be finite, got nan", id="plant-input"),
        pytest.param(lambda: setpoint_profile("constant", 0),
                     r"n must be an integer >= 1, got 0", id="setpoint-n"),
        pytest.param(lambda: FaultProfile(spike_mag=np.inf),
                     r"spike_mag must be finite", id="spike-mag"),
        pytest.param(lambda: FaultProfile(shock_start=300, shock_end=100),
                     r"^shock_start and shock_end must be ordered, got 300 and 100$",
                     id="shock-unordered"),
        pytest.param(lambda: inject_faults([0.0], FaultProfile(), -1),
                     r"seed must be an integer >= 0, got -1", id="inject-seed-negative"),
        pytest.param(lambda: inject_faults([0.0], FaultProfile(), 1.5),
                     r"seed must be an integer >= 0, got 1.5", id="inject-seed-fraction"),
        pytest.param(lambda: inject_faults(np.zeros((2, 2)), FaultProfile()),
                     r"clean signal must be 1-D, got ndim=2", id="clean-not-1d"),
        pytest.param(lambda: inject_faults([0.0, np.nan], FaultProfile()),
                     r"clean signal contains non-finite entries", id="clean-nonfinite"),
        pytest.param(lambda: PidGains(1.0, 0.1, 0.0, dt=0.0),
                     r"dt must be > 0 and finite, got 0.0", id="pid-dt"),
        pytest.param(lambda: PidGains(np.inf, 0.1, 0.0, 1.0),
                     r"kp must be finite", id="pid-kp"),
        pytest.param(lambda: PidGains(1.0, 0.1, 0.0, 1.0, integral_limit=0.0),
                     r"integral_limit must be > 0, got 0.0", id="integral-limit"),
        pytest.param(lambda: pid_step(np.nan, PidState(), GAINS),
                     r"error must be finite, got nan", id="pid-error"),
        pytest.param(lambda: run_pan_loop(GAINS, 0),
                     r"frames must be an integer >= 1, got 0", id="pan-frames"),
        pytest.param(lambda: run_pan_loop(GAINS, 10, plant_gain=0.0),
                     r"plant_gain must be > 0 and finite, got 0.0", id="pan-plant-gain"),
    ])
    def test_bad_input_is_refused_naming_its_check(self, call, message):
        with pytest.raises(ContractViolationError, match=message) as info:
            call()
        if "ordered" in message:  # the window's own refusal blames both of its ends
            assert info.value.names == ("shock_start", "shock_end")
