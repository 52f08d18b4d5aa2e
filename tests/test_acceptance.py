"""Acceptance suite: the nine contract-level criteria, one test each.

Each test prints one ``criterion N ... PASS/FAIL`` line so a plain pytest run
reads as a checklist. Tolerances and time budgets are asserted, not advisory.
"""

import contextlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from habdf import (
    BoundingBox,
    Expert,
    ExpertConfig,
    ExpertReport,
    FusionCenter,
    FusionConfig,
    GaussianState,
    LinearModel,
    VoteConfig,
    build_track_model,
    chi2_xi,
    consensus_distance,
    jaccard,
    kf_predict,
    kf_update,
    local_weight,
    mahalanobis,
    success,
    vote_weight,
)
from habdf.cli import main
from habdf.kalman import _BlockState
from habdf.records import TrackRecord, load_config, read_csv_dicts, scenario_from_config, write_csv, write_track_csv
from habdf.sim import run_sim_experiment


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_filter_matches_naive_oracles():
    with criterion(1, "KF oracle equivalence, 1-D and 8-state, 1e-9 over 50 steps"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()

        a, q, c, r = 0.93, 0.4, 1.7, 0.6
        model = LinearModel(A=[[a]], C=[[c]], Rww=[[q]], Rvv=[[r]])
        state = GaussianState([0.3], [[2.0]])
        o_mean, o_cov = np.array([0.3]), np.array([[2.0]])
        for _ in range(50):
            state = kf_predict(state, model)
            o_mean, o_cov = oracles.naive_predict(o_mean, o_cov, model.A, model.Rww)
            np.testing.assert_allclose(state.mean, o_mean, atol=1e-9)
            np.testing.assert_allclose(state.cov, o_cov, atol=1e-9)
            y = rng.normal(0, 3, 1)
            state, _, _ = kf_update(state, model, y)
            o_mean, o_cov = oracles.naive_update(o_mean, o_cov, model.C, model.Rvv, y)
            np.testing.assert_allclose(state.mean, o_mean, atol=1e-9)
            np.testing.assert_allclose(state.cov, o_cov, atol=1e-9)

        track = build_track_model(dt=1.0, accel_var=0.7, meas_var=9.0)
        state = GaussianState(np.zeros(8), 100.0 * np.eye(8))
        o_mean, o_cov = np.zeros(8), 100.0 * np.eye(8)
        for _ in range(50):
            state = kf_predict(state, track)
            o_mean, o_cov = oracles.naive_predict(o_mean, o_cov, track.A, track.Rww)
            np.testing.assert_allclose(state.mean, o_mean, atol=1e-9)
            np.testing.assert_allclose(state.cov, o_cov, atol=1e-9)
            y = rng.uniform(-50, 50, 4)
            state, _, _ = kf_update(state, track, y)
            o_mean, o_cov = oracles.naive_update(o_mean, o_cov, track.C, track.Rvv, y)
            np.testing.assert_allclose(state.mean, o_mean, atol=1e-9)
            np.testing.assert_allclose(state.cov, o_cov, atol=1e-9)

        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_distance_and_weight_examples():
    with criterion(2, "distance/weight example suite at 1e-4, midpoint at 1e-12"):
        tol = 1e-4
        assert mahalanobis([3.0, 4.0], [0.0, 0.0], np.eye(2)) == pytest.approx(5.0, abs=tol)
        assert mahalanobis([2.0, 1.0], [0.0, 0.0], np.diag([4.0, 1.0])) \
            == pytest.approx(math.sqrt(2.0), abs=tol)
        assert mahalanobis([1.0, 1.0], [0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]]) \
            == pytest.approx(math.sqrt(2.0 / 3.0), abs=tol)

        for xi in (0.5, 1.0, 3.0802, 7.0):
            assert local_weight(xi, xi) == pytest.approx(0.5, abs=1e-12)
        assert local_weight(2.0 + math.log(3.0), 2.0) == pytest.approx(0.75, abs=tol)
        assert local_weight(0.0, 3.0802) == pytest.approx(0.0439, abs=tol)

        assert chi2_xi(4, 0.95) == pytest.approx(3.0802, abs=tol)
        assert chi2_xi(1, 0.6827) == pytest.approx(1.0000, abs=tol)
        assert chi2_xi(2, 0.95) == pytest.approx(2.4477, abs=tol)

        cfg = VoteConfig(omega0=1.0, omega=2.0, lam=10.0)
        assert vote_weight(10.0, cfg) == pytest.approx(3.0, abs=tol)
        assert vote_weight(18.0, cfg) == pytest.approx(5.0, abs=1e-6)
        assert vote_weight(10.0 + math.atanh(0.5), cfg) == pytest.approx(4.0, abs=tol)


def planted_outlier_case(rng):
    """One random detector set with a single planted far box.

    Two regimes keep the argmax decidable in float64: a saturated regime
    (tight cluster, huge offset) and a partial-saturation regime where the
    outlier's tanh argument stays in the resolvable band.
    """
    n = int(rng.integers(3, 6))
    if rng.random() < 0.7:
        half, lo, hi = 6.0, 90.0, 390.0
    else:
        half, lo, hi = 1.0, 37.0, 65.0
    center = rng.uniform(-200, 200, 4)
    inliers = center + rng.uniform(-half, half, (n - 1, 4))
    direction = rng.normal(0, 1, 4)
    direction /= np.linalg.norm(direction)
    outlier = center + direction * rng.uniform(lo, hi)
    k = int(rng.integers(0, n))
    vecs = [v for v in inliers]
    vecs.insert(k, outlier)
    return vecs, k


def test_criterion_3_planted_outlier_always_gets_largest_vote_weight():
    with criterion(3, "voting argmax on 1000 planted-outlier configs, 100%"):
        rng = np.random.default_rng(33)
        cfg = VoteConfig(omega0=1.0, omega=1.0, lam=30.0)
        t0 = time.perf_counter()
        hits = 0
        for _ in range(1000):
            vecs, k = planted_outlier_case(rng)
            n = len(vecs)
            dists = [consensus_distance(vecs, i) for i in range(n)]
            inlier_pairwise = [
                vecs[i] - vecs[j]
                for i in range(n) for j in range(i + 1, n) if i != k and j != k
            ]
            if inlier_pairwise:
                worst = max(float(np.linalg.norm(d)) for d in inlier_pairwise)
                assert dists[k] >= 3.0 * worst
            weights = [vote_weight(d, cfg) for d in dists]
            top = max(range(n), key=weights.__getitem__)
            if top == k and all(weights[k] > weights[i] for i in range(n) if i != k):
                hits += 1
        elapsed = time.perf_counter() - t0
        assert hits == 1000
        assert elapsed < 1.0


def _report(box, w_M, md=0.5, frame=0):
    box = np.asarray(box, dtype=float)
    return ExpertReport(
        posterior=_BlockState(box, np.zeros_like(box), (1.0, 0.0, 1.0)),
        predicted_meas=box,
        s=1.0,
        md=md,
        w_M=w_M,
        frame=frame,
    )


def test_criterion_4_saturated_detector_excluded_within_tolerance():
    with criterion(4, "fusion exclusion limit, 1e-3 relative over 100 cases"):
        model = build_track_model(dt=1.0, accel_var=0.5, meas_var=4.0)
        rng = np.random.default_rng(44)
        w_hi = float(np.nextafter(1.0, 0.0))
        for _ in range(100):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(0, n))
            gains = tuple(1e9 if i == k else 1.0 for i in range(n))
            cfg = FusionConfig(gamma=gains, delta=gains,
                               vote=VoteConfig(1.0, 1.0, 50.0))
            prior_mean = np.zeros(8)
            prior_mean[:4] = rng.uniform(50, 400, 4)
            prior_cov = rng.uniform(20, 200) * np.eye(8)
            boxes = [prior_mean[:4] + rng.normal(0, 3, 4) for _ in range(n)]
            boxes[k] = prior_mean[:4] + rng.uniform(150, 300) * _unit(rng)
            reports = [_report(b, w_M=0.2) for b in boxes]
            reports[k] = _report(boxes[k], w_M=w_hi, md=99.0)

            with_it = FusionCenter(model, n, cfg)
            with_it.state = GaussianState(prior_mean, prior_cov)
            est_a = with_it.step(reports, boxes)

            without = FusionCenter(model, n, cfg)
            without.state = GaussianState(prior_mean, prior_cov)
            reports_b = [None if i == k else r for i, r in enumerate(reports)]
            boxes_b = [None if i == k else b for i, b in enumerate(boxes)]
            est_b = without.step(reports_b, boxes_b)

            rel = np.abs(est_a.state.mean - est_b.state.mean) / (
                1.0 + np.abs(est_b.state.mean))
            assert np.all(rel < 1e-3)


def _unit(rng):
    v = rng.normal(0, 1, 4)
    return v / np.linalg.norm(v)


def test_criterion_5_bundled_scenario_beats_every_sensor_across_20_seeds():
    with criterion(5, "bundled fault scenario: fused < all sensors, shock rvv >= 5x, 20 seeds, <10 s"):
        cfg = load_config("three_sensor_faults.scenario")
        shock_lo = cfg["sensor.3.shock_start"]
        shock_hi = cfg["sensor.3.shock_end"]
        t0 = time.perf_counter()
        for seed in range(20):
            result = run_sim_experiment(scenario_from_config(cfg, seed=seed))
            fused = result.fused_rmse()
            per_sensor = result.sensor_rmse()
            assert np.all(fused < per_sensor), (
                f"seed {seed}: fused {fused:.4g} vs sensors {per_sensor}")
            rvv = result.rvv[2]
            outside = np.ones(rvv.shape[0], dtype=bool)
            outside[shock_lo:shock_hi] = False
            ratio = rvv[shock_lo:shock_hi].mean() / rvv[outside].mean()
            assert ratio >= 5.0, f"seed {seed}: shock rvv ratio {ratio:.2f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"20-seed sweep took {elapsed:.2f} s"


def test_criterion_6_nominal_outlier_rate_is_calibrated():
    with criterion(6, "md>xi flag rate 0.05 +/- 0.02 over 10^4 nominal frames"):
        model = build_track_model(dt=1.0, accel_var=0.25, meas_var=9.0)
        xi = chi2_xi(4, 0.95)
        rng = np.random.default_rng(0)
        chol_w = np.linalg.cholesky(model.Rww + 1e-12 * np.eye(8))
        chol_v = np.linalg.cholesky(model.Rvv)
        expert = Expert(model, ExpertConfig(xi=xi), init_var=100.0)
        x = np.zeros(8)
        frames = 10_000
        flags = 0
        for _ in range(frames):
            x = model.A @ x + chol_w @ rng.standard_normal(8)
            y = model.C @ x + chol_v @ rng.standard_normal(4)
            if expert.step(y).md > xi:
                flags += 1
        rate = flags / frames
        assert 0.03 <= rate <= 0.07, f"flag rate {rate:.4f}"


def test_criterion_7_metric_boundaries_and_rasterization_oracle():
    with criterion(7, "success boundaries exact; Jaccard vs raster oracle 1e-3 on 1000 pairs"):
        assert success(0.5, 50.0) is True
        assert success(0.5, 0.0) is True
        assert success(1.0, 50.0) is True
        assert success(0.49, 0.0) is False
        assert success(1.0, 51.0) is False

        rng = np.random.default_rng(77)
        for _ in range(1000):
            a = (int(rng.integers(-30, 31)), int(rng.integers(-30, 31)),
                 2 * int(rng.integers(1, 21)), 2 * int(rng.integers(1, 21)))
            b = (int(rng.integers(-30, 31)), int(rng.integers(-30, 31)),
                 2 * int(rng.integers(1, 21)), 2 * int(rng.integers(1, 21)))
            want = oracles.raster_jaccard(a, b)
            got = jaccard(BoundingBox(*map(float, a)), BoundingBox(*map(float, b)))
            assert got == pytest.approx(want, abs=1e-3)


def test_criterion_8_simulate_is_byte_identical_under_a_fixed_seed(tmp_path):
    with criterion(8, "simulate byte-identical under fixed seed"):
        outs = [str(tmp_path / f"run{i}.csv") for i in (1, 2)]
        for out in outs:
            rc = main(["simulate", "--config", "three_sensor_faults.scenario",
                       "--out", out, "--seed", "13"])
            assert rc == 0
        first = Path(outs[0]).read_bytes()
        second = Path(outs[1]).read_bytes()
        assert first == second
        s1 = (tmp_path / "run1_summary.csv").read_bytes()
        s2 = (tmp_path / "run2_summary.csv").read_bytes()
        assert s1 == s2


def test_criterion_9_frozen_detector_is_outvoted_and_fusion_wins(tmp_path):
    with criterion(9, "frozen-detector replay: w_d ratio >= 1.5, fused Jaccard beats frozen"):
        rng = np.random.default_rng(12)
        frames, freeze_at, span_start = 240, 40, 80

        def truth(t):
            return np.array([80.0 + 2.0 * t, 240.0 + 0.5 * t, 60.0, 40.0])

        frozen_box = truth(freeze_at)
        records, gt_rows, frozen_rows = [], [], []
        for t in range(frames):
            tru = truth(t)
            gt_rows.append([t, *tru])
            for det in ("alpha", "beta"):
                records.append(TrackRecord(t, det, *(tru + rng.normal(0.0, 2.0, 4)), True))
            c_box = tru if t < freeze_at else frozen_box
            records.append(TrackRecord(t, "frozen", *c_box, True))
            frozen_rows.append([t, *c_box])

        tracks = str(tmp_path / "tracks.csv")
        write_track_csv(tracks, records)
        gt = str(tmp_path / "gt.csv")
        write_csv(gt, ["frame", "u", "v", "h", "w"], gt_rows)
        frozen_csv = str(tmp_path / "frozen.csv")
        write_csv(frozen_csv, ["frame", "u", "v", "h", "w"], frozen_rows)
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("vote.lambda = 50\nvote.omega0 = 1\nvote.omega = 20\n")

        fused_csv = str(tmp_path / "fused.csv")
        assert main(["fuse", tracks, "--config", str(cfg), "--out", fused_csv]) == 0

        rows, _ = read_csv_dicts(fused_csv)
        span = [r for r in rows if int(r["frame"]) >= span_start]
        mean_wd = {
            d: float(np.mean([float(r[f"wd_{d}"]) for r in span]))
            for d in ("alpha", "beta", "frozen")
        }
        assert mean_wd["frozen"] >= 1.5 * mean_wd["alpha"]
        assert mean_wd["frozen"] >= 1.5 * mean_wd["beta"]

        scores = {}
        for name, path in (("fused", fused_csv), ("frozen", frozen_csv)):
            out = str(tmp_path / f"eval_{name}.csv")
            assert main(["eval", path, gt, "--out", out]) == 0
            summary, _ = read_csv_dicts(str(tmp_path / f"eval_{name}_summary.csv"))
            scores[name] = float(summary[0]["mean_jaccard"])
        assert scores["fused"] > scores["frozen"], scores
