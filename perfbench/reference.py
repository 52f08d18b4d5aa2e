"""Reference fusion written the textbook way, independent of habdf.

It re-derives the fused estimate from the paper's three equations: the
sigmoid reliability penalty ``w_M = 1 / (1 + exp(-(md - xi)))``, the tanh
vote penalty ``w_d = omega0 + omega * (1 + tanh(min_d - lambda))`` and the
floored block-diagonal noise ``max(gamma * w_d + delta * w_M, floor) * I``,
with plain Kalman equations (explicit inverses, no Joseph form) underneath.
Nothing here imports habdf, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.stats import chi2

# Fused means agree when |prog - ref| <= ABS_TOL + REL_TOL * |ref| everywhere.
# CSV outputs carry 9 significant digits, so REL_TOL must stay above 1e-9;
# the gap between Joseph-form and textbook updates is many orders smaller.
REL_TOL = 1e-6
ABS_TOL = 1e-5

# The paper's success rule for a fused box.
JACCARD_MIN = 0.5
DISTANCE_MAX = 50.0


def parse_flat_config(text: str) -> dict:
    """``key = value`` lines with ``#`` comments, values kept as strings."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def cv_model(axes: int, dt: float, accel_var: float, meas_var: float):
    """Constant-velocity model (A, Q, C, R): positions first, then rates."""
    n = 2 * axes
    A = np.eye(n)
    Q = np.zeros((n, n))
    for i in range(axes):
        A[i, axes + i] = dt
        Q[i, i] = accel_var * dt ** 4 / 4.0
        Q[i, axes + i] = Q[axes + i, i] = accel_var * dt ** 3 / 2.0
        Q[axes + i, axes + i] = accel_var * dt ** 2
    C = np.hstack([np.eye(axes), np.zeros((axes, axes))])
    return A, Q, C, meas_var * np.eye(axes)


def predict(m, P, A, Q):
    return A @ m, A @ P @ A.T + Q


def update(m, P, C, R, y):
    S = C @ P @ C.T + R
    K = P @ C.T @ np.linalg.inv(S)
    P = P - K @ C @ P
    return m + K @ (y - C @ m), 0.5 * (P + P.T)


def w_m(md: float, xi: float) -> float:
    return 1.0 / (1.0 + math.exp(-(md - xi)))


def w_d(min_d: float, omega0: float, omega: float, lam: float) -> float:
    return omega0 + omega * (1.0 + math.tanh(min_d - lam))


@dataclass(frozen=True)
class FusionParams:
    xi: float
    omega0: float
    omega: float
    lam: float
    gamma: tuple
    delta: tuple
    cov_floor: float
    stale_after: int
    init_var: float


class RefExpert:
    """Per-sensor filter: lazy start, coasting, covariance reset when stale."""

    def __init__(self, model, params: FusionParams):
        self.A, self.Q, self.C, self.R = model
        self.p = params
        self.m = self.P = self.last = None
        self.misses = 0

    def step(self, y):
        """Returns (posterior mean, w_M), or None before the first reading."""
        C = self.C
        if self.m is None:
            if y is None:
                return None
            self.m, self.P = C.T @ y, self.p.init_var * np.eye(self.A.shape[0])
        if y is not None and self.misses >= self.p.stale_after:
            self.P = self.p.init_var * np.eye(self.A.shape[0])
        m, P = predict(self.m, self.P, self.A, self.Q)
        S = C @ P @ C.T + self.R
        q = (y if y is not None else self.last) - C @ m
        penalty = w_m(math.sqrt(max(float(q @ np.linalg.inv(S) @ q), 0.0)), self.p.xi)
        if y is not None:
            m, P = update(m, P, C, self.R, y)
            self.last, self.misses = y, 0
        else:
            self.misses += 1
        self.m, self.P = m, P
        return m, penalty


class RefPipeline:
    """Expert bank plus stacked fusion-center filter."""

    def __init__(self, models, params: FusionParams):
        self.experts = [RefExpert(m, params) for m in models]
        self.A, self.Q, self.C, _ = models[0]
        self.p = params
        self.m = self.P = None
        # Per-detector (w_d, w_M, rvv) of the last frame; NaN where absent.
        self.last_weights = None

    def step(self, ys):
        """Fused mean for one frame of readings, None before any reading."""
        p, C = self.p, self.C
        reports = [e.step(None if y is None else np.asarray(y, float))
                   for e, y in zip(self.experts, ys)]
        present = [i for i, (r, y) in enumerate(zip(reports, ys))
                   if r is not None and y is not None]
        n = len(ys)
        weights = np.full((n, 3), np.nan)
        if len(present) == 1:
            weights[present[0], 0] = w_d(0.0, p.omega0, p.omega, p.lam)
        elif present:
            pts = np.array([np.asarray(ys[i], float) for i in present])
            dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            np.fill_diagonal(dist, np.inf)
            for k, i in enumerate(present):
                weights[i, 0] = w_d(float(dist[k].min()), p.omega0, p.omega, p.lam)
        for i in present:
            weights[i, 1] = reports[i][1]
            weights[i, 2] = max(p.gamma[i] * weights[i, 0] + p.delta[i] * weights[i, 1],
                                p.cov_floor)
        self.last_weights = weights
        if self.m is None:
            if not present:
                return None
            self.m = C.T @ np.mean([C @ reports[i][0] for i in present], axis=0)
            self.P = p.init_var * np.eye(self.A.shape[0])
        m, P = predict(self.m, self.P, self.A, self.Q)
        if present:
            rows = C.shape[0]
            m, P = update(
                m, P, np.vstack([C] * len(present)),
                np.diag(np.repeat(weights[present, 2], rows)),
                np.concatenate([C @ reports[i][0] for i in present]),
            )
        self.m, self.P = m, P
        return m


def track_params(cfg: dict, detectors: int) -> tuple:
    """(model, params) for box tracking from a flat config."""
    def f(key):
        return float(cfg[key])

    model = cv_model(4, f("filter.dt"), f("filter.accel_var"), f("filter.meas_var"))
    params = FusionParams(
        xi=float(np.sqrt(chi2.ppf(f("expert.confidence"), 4))),
        omega0=f("vote.omega0"), omega=f("vote.omega"), lam=f("vote.lambda"),
        gamma=(f("fusion.gamma"),) * detectors, delta=(f("fusion.delta"),) * detectors,
        cov_floor=f("fusion.cov_floor"), stale_after=int(cfg["fusion.stale_after"]),
        init_var=f("filter.init_var"),
    )
    return model, params


def track_pipeline(cfg: dict, detectors: int) -> RefPipeline:
    model, params = track_params(cfg, detectors)
    return RefPipeline([model] * detectors, params)


def disagreeing(prog, ref) -> int:
    """Frames whose fused values disagree; None must match None."""
    bad = 0
    for a, b in zip(prog, ref, strict=True):
        if a is None or b is None:
            bad += (a is None) != (b is None)
        elif not np.all(np.abs(np.asarray(a) - b) <= ABS_TOL + REL_TOL * np.abs(b)):
            bad += 1
    return bad


def digest(values) -> str:
    """Hash of a sequence of float arrays (None allowed), bit-exact."""
    h = hashlib.sha256()
    for v in values:
        h.update(b"none" if v is None else np.ascontiguousarray(v, dtype=float).tobytes())
    return h.hexdigest()


def jaccard(a, b) -> float:
    """IoU of (u, v, h, w) boxes."""
    ix = min(a[0] + a[3] / 2, b[0] + b[3] / 2) - max(a[0] - a[3] / 2, b[0] - b[3] / 2)
    iy = min(a[1] + a[2] / 2, b[1] + b[2] / 2) - max(a[1] - a[2] / 2, b[1] - b[2] / 2)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def box_scores(boxes, truth) -> tuple[float, float]:
    """(success rate, RMS distance) of fused boxes against ground truth.

    A missing box (None) counts as a miss and is left out of the RMS.
    """
    hits, sq, seen = 0, 0.0, 0
    for box, gt in zip(boxes, truth, strict=True):
        if box is None:
            continue
        d = float(np.linalg.norm(np.asarray(box[:4]) - gt))
        hits += jaccard(box, gt) >= JACCARD_MIN and d <= DISTANCE_MAX
        sq += d * d
        seen += 1
    return hits / len(truth), math.sqrt(sq / max(seen, 1))


# --- scalar fault bench ------------------------------------------------------


def sim_cell(cfg: dict, seed: int) -> dict:
    """Re-run one cell of the scalar fault bench; returns the sweep columns.

    ``cfg`` is a parsed scenario holding every key the bundled
    three-sensor scenario sets; ``seed`` is the cell's run.seed.
    """
    def f(key, default=0.0):
        return float(cfg.get(key, default))

    frames, n = int(cfg["run.frames"]), int(cfg["sensors.count"])
    wn, zeta, gain, dt = (f("plant.natural_freq"), f("plant.damping"),
                          f("plant.gain"), f("run.dt"))
    period, amp = int(cfg["setpoint.period"]), f("setpoint.amplitude")
    if cfg["setpoint.kind"] != "square":
        raise ValueError("the reference bench models square set-points only")
    t = np.arange(frames)
    sp = amp * (1.0 - 2.0 * ((t // period) % 2))
    em = expm(np.array([[0.0, 1.0, 0.0],
                        [-wn * wn, -2.0 * zeta * wn, gain * wn * wn],
                        [0.0, 0.0, 0.0]]) * dt)
    x = np.array([gain * sp[0], 0.0]) if cfg.get("plant.start_at_steady") == "true" else np.zeros(2)
    truth = np.empty(frames)
    for k in range(frames):
        truth[k] = x[0]
        x = em[:2, :2] @ x + em[:2, 2] * sp[k]

    children = np.random.SeedSequence(seed).spawn(n)
    sensors = np.empty((n, frames))
    models = []
    for i in range(1, n + 1):
        rng = np.random.default_rng(int(children[i - 1].generate_state(1)[0]))
        y = truth + rng.normal(0.0, f(f"sensor.{i}.noise_sigma"), frames)
        y = y + f(f"sensor.{i}.spike_mag") * (rng.random(frames) < f(f"sensor.{i}.spike_prob"))
        y = y + f(f"sensor.{i}.drift_rate") * t
        window = (t >= f(f"sensor.{i}.shock_start")) & (t < f(f"sensor.{i}.shock_end"))
        sensors[i - 1] = y + f(f"sensor.{i}.shock_offset") * window
        meas_var = f(f"sensor.{i}.meas_var", f("filter.meas_var", 25.0))
        models.append(cv_model(1, f("filter.dt", 1.0), f("filter.accel_var", 1.0), meas_var))

    def gains(name):
        return tuple(f(f"fusion.{name}.{i}", f(f"fusion.{name}", 1.0)) for i in range(1, n + 1))

    params = FusionParams(
        xi=float(np.sqrt(chi2.ppf(f("expert.confidence", 0.95), 1))),
        omega0=f("vote.omega0", 1.0), omega=f("vote.omega", 1.0), lam=f("vote.lambda", 50.0),
        gamma=gains("gamma"), delta=gains("delta"),
        cov_floor=f("fusion.cov_floor", 1e-6), stale_after=int(f("fusion.stale_after", 30)),
        init_var=f("filter.init_var", 1e4),
    )
    pipe = RefPipeline(models, params)
    fused = np.empty(frames)
    weights = np.empty((frames, n, 3))
    for k in range(frames):
        fused[k] = pipe.step([sensors[i, k:k + 1] for i in range(n)])[0]
        weights[k] = pipe.last_weights
    sensor_rmse = np.sqrt(np.mean((sensors - truth) ** 2, axis=1))
    return {
        "fused_rmse": float(np.sqrt(np.mean((fused - truth) ** 2))),
        "best_sensor_rmse": float(sensor_rmse.min()),
        "mean_wd": float(weights[:, :, 0].mean()),
        "mean_wM": float(weights[:, :, 1].mean()),
        "mean_rvv": float(weights[:, :, 2].mean()),
    }


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)
