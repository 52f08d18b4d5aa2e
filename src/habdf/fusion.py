"""Fusion center: a Kalman filter whose measurement noise is steered online.

The center stacks the experts' positional estimates into one measurement
vector and re-derives the noise block of each detector every frame from the
two penalties: ``rvv = gamma * w_d + delta * w_M`` (floored). A detector both
isolated from its peers and inconsistent with its own expert gets a large
block, which is the same as being politely ignored. ``gamma``/``delta`` are
per-detector gains encoding prior knowledge of each sensor; 1.0 when there is
none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, InsufficientDetectorsError
from .experts import Expert, ExpertConfig
from .kalman import GaussianState, LinearModel, _cv_block_of, _trusted, kf_predict, kf_update
from .voting import VoteConfig, _nearest_peer, vote_weight

__all__ = [
    "adapt_rvv",
    "FusionConfig",
    "FusedEstimate",
    "FusionCenter",
    "Pipeline",
    "make_pipeline",
]


def adapt_rvv(w_d: float, w_M: float, gamma: float = 1.0, delta: float = 1.0,
              cov_floor: float = 1e-6) -> float:
    """Adapted measurement variance: max(gamma * w_d + delta * w_M, cov_floor)."""
    if not (math.isfinite(w_d) and w_d >= 0):
        raise ContractViolationError(f"w_d must be finite and >= 0, got {w_d}")
    if not (0.0 <= w_M <= 1.0):
        raise ContractViolationError(f"w_M must lie in [0, 1], got {w_M}")
    if not (gamma > 0 and delta > 0 and math.isfinite(gamma) and math.isfinite(delta)):
        raise ContractViolationError(f"gamma/delta must be > 0, got {gamma}, {delta}")
    if not (cov_floor > 0 and math.isfinite(cov_floor)):
        raise ContractViolationError(f"cov_floor must be > 0, got {cov_floor}")
    return float(max(gamma * w_d + delta * w_M, cov_floor))


def _noise_top(gamma: float, omega0: float, omega: float, delta: float) -> float:
    """adapt_rvv's largest value: w_d at vote_weight's top, w_M below 1."""
    return gamma * (omega0 + 2.0 * omega) + delta


@dataclass(frozen=True)
class FusionConfig:
    """Fusion knobs.

    gamma, delta: per-detector gains on the vote and reliability penalties,
        a scalar for every detector or one entry per detector; ``gains(n)``
        gives them back as two lists of n Python floats.
    cov_floor: lower bound keeping adapted noise positive definite.
    stale_after: consecutive silent frames after which an expert's covariance
        is reset on reacquisition.
    """

    gamma: float | tuple = 1.0
    delta: float | tuple = 1.0
    cov_floor: float = 1e-6
    stale_after: int = 30
    vote: VoteConfig = field(default_factory=VoteConfig)
    expert: ExpertConfig = field(default_factory=ExpertConfig)

    def __post_init__(self):
        if not (self.cov_floor > 0 and np.isfinite(self.cov_floor)):
            raise ContractViolationError(f"cov_floor must be > 0, got {self.cov_floor}")
        if self.stale_after < 1:
            raise ContractViolationError(f"stale_after must be >= 1, got {self.stale_after}")

    def gains(self, n: int) -> tuple[list, list]:
        """gamma and delta as two lists of n Python floats. A gain whose
        largest noise scale, ``gamma * (omega0 + 2 * omega) + delta`` (w_d at
        its top, w_M below 1), overflows is refused, naming each term that at
        its default of 1 would keep the scale finite (every term above 1 if
        none would)."""
        out = []
        for name, val in (("gamma", self.gamma), ("delta", self.delta)):
            arr = np.asarray(val, dtype=float)
            if arr.ndim and arr.shape != (n,):
                raise ContractViolationError(f"{name} has {arr.size} entries for {n} detectors")
            vals = arr.tolist() if arr.ndim else [arr.item()] * n
            if not all(v > 0 and math.isfinite(v) for v in vals):
                raise ContractViolationError(f"{name} entries must be > 0 and finite")
            out.append(vals)
        for g, d in zip(*out):
            terms = {"gamma": g, "omega0": self.vote.omega0, "omega": self.vote.omega, "delta": d}
            if not math.isfinite(_noise_top(**terms)):
                big = [k for k, v in terms.items() if v > 1.0]
                bad = [k for k in big if math.isfinite(_noise_top(**{**terms, k: 1.0}))] or big
                raise ContractViolationError(
                    f"{' and '.join(bad)} overflow{'s' * (len(bad) == 1)} the largest noise scale "
                    "gamma * (omega0 + 2 * omega) + delta, "
                    f"got {' and '.join(str(terms[k]) for k in bad)}")
        return out[0], out[1]


@dataclass(frozen=True)
class FusedEstimate:
    """Fusion output for one frame: center belief plus per-detector weights.

    ``w_d``, ``w_M`` and ``rvv_scale`` are ``(n,)`` arrays indexed by
    detector: the vote penalty, the expert's reliability penalty and the
    adapted noise scale. For a detector absent this frame, ``w_d`` and
    ``rvv_scale`` are NaN; ``w_M`` is its expert's coasting score, or NaN
    until that expert has seen a reading.
    """

    state: GaussianState
    w_d: np.ndarray
    w_M: np.ndarray
    rvv_scale: np.ndarray
    frame: int
    coasting: bool = False


class FusionCenter:
    """Stacked-measurement Kalman filter with per-detector adaptive noise.

    ``model``, from ``build_cv_model``, describes a single detector; the
    center shares its dynamics and stacks one copy of its measurement block
    per present detector, measuring the positions ``m0`` of that detector's
    expert posterior. Absent detectors contribute no measurement rows. With none present the center
    coasts on its prediction and flags the estimate.
    """

    def __init__(self, model: LinearModel, n_detectors: int,
                 config: FusionConfig | None = None, init_var: float = 1e4):
        if n_detectors < 3:
            raise InsufficientDetectorsError(
                f"majority voting needs at least 3 detectors, got {n_detectors}"
            )
        if not (np.isfinite(init_var) and init_var > 0):
            raise ContractViolationError(f"init_var must be positive, got {init_var}")
        _cv_block_of(model)
        self.model = model
        self.n_detectors = n_detectors
        self.config = config or FusionConfig()
        self.gamma, self.delta = self.config.gains(n_detectors)
        self.init_cov = init_var * np.eye(model.state_dim)
        # One copy of C per detector; a frame with m present uses the first m.
        self._c_stack = np.vstack([model.C] * n_detectors)
        self._c_stack.flags.writeable = False
        self.state: GaussianState | None = None
        self.frame = -1

    def step(self, reports, measurements) -> FusedEstimate | None:
        """Fuse one frame.

        reports: per-detector ExpertReport or None, aligned with
        measurements (the raw per-detector readings or None). Voting runs on
        the raw readings, and a reading numpy cannot convert is refused; the
        stacked measurement vector carries the experts' positions. Returns
        None until the first frame with any detector present. A step that
        raises leaves the center exactly as it was.
        """
        frame = self.frame + 1
        n = self.n_detectors
        if len(reports) != n or len(measurements) != n:
            raise ContractViolationError(
                f"expected {n} reports and measurements, got "
                f"{len(reports)} and {len(measurements)}"
            )
        model, gamma, delta, vote, floor = (self.model, self.gamma, self.delta,
                                            self.config.vote, self.config.cov_floor)
        C, p = model.C, model.C.shape[0]
        # One pass: every w_M, and each present detector's index, raw reading
        # (the vote's input) and positions (the stacked measurement): a block
        # state's m0, which is C @ mean for C = [I_k 0].
        present, vecs, parts, w_m = [], [], [], []
        try:
            for i, (r, y) in enumerate(zip(reports, measurements)):
                w_m.append(math.nan if r is None else r.w_M)
                if y is not None and r is not None:
                    present.append(i)
                    vecs.append(np.asarray(y, dtype=float))
                    parts.append(r.posterior.m0)
        except (TypeError, ValueError) as exc:  # text, a ragged nesting, an object
            raise ContractViolationError(f"reading is not numeric: {exc}") from exc

        w_d, scale, rvv = [math.nan] * n, [math.nan] * n, []
        for k, i in enumerate(present):
            w_d[i] = d = vote_weight(_nearest_peer(vecs, k), vote)
            scale[i] = s = adapt_rvv(d, w_m[i], gamma[i], delta[i], floor)
            rvv += (s,) * p
        w_d, scale = np.array(w_d), np.array(scale)

        state = self.state
        if state is None:
            if not present:
                self.frame = frame
                return None
            state = GaussianState(C.T @ np.mean(parts, axis=0), self.init_cov)

        post = kf_predict(state, model)
        if present:
            # diag(rvv) written onto zeros through a flat view: np.diag's bytes.
            # The model is assembled from validated pieces: PD by the floor,
            # shapes by stacking.
            q = len(rvv)
            R = np.zeros((q, q))
            R.ravel()[::q + 1] = rvv
            stacked = _trusted(LinearModel, A=model.A, B=model.B, C=self._c_stack[:q],
                               Rww=model.Rww, Rvv=R)
            post = kf_update(post, stacked, np.concatenate(parts))[0]
        self.state, self.frame = post, frame
        return _trusted(FusedEstimate, state=post, w_d=w_d, w_M=np.array(w_m), rvv_scale=scale,
                        frame=frame, coasting=not present)


class Pipeline:
    """Expert bank plus fusion center sharing one frame clock."""

    def __init__(self, models, config: FusionConfig | None = None, init_var: float = 1e4):
        models = list(models)
        if len(models) < 3:
            raise InsufficientDetectorsError(
                f"majority voting needs at least 3 detectors, got {len(models)}"
            )
        dims = {(m.state_dim, m.meas_dim) for m in models}
        if len(dims) != 1:
            raise ContractViolationError(f"expert models disagree on dimensions: {dims}")
        self.config = config or FusionConfig()
        self.experts = [
            Expert(m, self.config.expert, init_var, self.config.stale_after)
            for m in models
        ]
        self.center = FusionCenter(models[0], len(models), self.config, init_var)

    @property
    def n_detectors(self) -> int:
        return len(self.experts)

    def step(self, measurements) -> FusedEstimate | None:
        """Feed one frame of per-detector measurements (None = absent).

        The step is atomic: if it raises, every expert and the center are
        left exactly as they were before the call.
        """
        if len(measurements) != len(self.experts):
            raise ContractViolationError(
                f"expected {len(self.experts)} measurements, got {len(measurements)}"
            )
        # States are immutable values, so a snapshot is a set of references.
        # FusionCenter.step is atomic on its own, so only the experts need one.
        saved = [(e.state, e.last_meas, e.misses, e.frame) for e in self.experts]
        try:
            reports = [e.step(y) for e, y in zip(self.experts, measurements)]
            return self.center.step(reports, measurements)
        except BaseException:
            for e, s in zip(self.experts, saved):
                e.state, e.last_meas, e.misses, e.frame = s
            raise


def make_pipeline(n_detectors: int, model, config: FusionConfig | None = None,
                  init_var: float = 1e4) -> Pipeline:
    """Build a bank of ``n_detectors`` experts plus the fusion center.

    ``model`` is one ``build_cv_model`` model shared by every detector, or a
    sequence of per-detector ones agreeing on dimensions.
    """
    if isinstance(model, LinearModel):
        models = [model] * n_detectors
    else:
        models = list(model)
        if len(models) != n_detectors:
            raise ContractViolationError(
                f"got {len(models)} models for {n_detectors} detectors"
            )
    return Pipeline(models, config, init_var)
