"""Per-sensor Kalman experts with reliability scoring.

Each expert filters one sensor and grades that sensor's current measurement
with a Mahalanobis distance against its own prediction, squashed through a
shifted sigmoid. The resulting weight ``w_M`` is a PENALTY: near 0 means the
measurement is consistent with the expert's belief, near 1 means it is far
outside the expected spread and should be distrusted. The shift ``xi`` is the
square root of a chi-square quantile, so "far" is calibrated to a chosen
false-alarm rate on nominal data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import gammaincinv

from .errors import ContractViolationError, _setting
# Experts never call kf_update; the name stays bound here because
# perfbench/tests/test_bench.py::TestTracer asserts that habdf.experts.kf_update is patched.
from .kalman import (GaussianState, LinearModel, _BlockState, _cholesky, _cv_block_of,
                     _cv_predict, _cv_update, _init_var, _trusted, kf_update)

__all__ = [
    "mahalanobis",
    "local_weight",
    "chi2_xi",
    "ExpertConfig",
    "ExpertReport",
    "Expert",
]

# Keep sigmoid output inside the open interval when float64 saturates.
_W_LO = 1e-300
_W_HI = float(np.nextafter(1.0, 0.0))


def _residual(y: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, float]:
    """``y - mu`` and its squared norm, after mahalanobis's checks on the two
    vectors."""
    if y.shape != mu.shape or y.ndim != 1:
        raise ContractViolationError(
            f"y and mu must be matching vectors, got {y.shape} and {mu.shape}"
        )
    r = y - mu
    rr = r.dot(r)
    # A non-finite entry in either vector makes r . r non-finite, so one scalar
    # test stands in for both array checks, as in box_distance. Finite vectors
    # whose r . r overflows pass the full checks.
    if not math.isfinite(rr) and not (np.isfinite(y).all() and np.isfinite(mu).all()):
        raise ContractViolationError("non-finite input to mahalanobis")
    return r, rr


def mahalanobis(y, mu, cov) -> float:
    """Exact Mahalanobis distance sqrt((y-mu)^T cov^-1 (y-mu)).

    The residual is whitened by the Cholesky factor of ``cov`` (lower triangle
    read). A ``cov`` that fails to factor raises DegenerateGeometryError;
    COND_LIMIT does not apply.
    """
    r, _ = _residual(np.asarray(y, dtype=float), np.asarray(mu, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (r.shape[0], r.shape[0]):
        raise ContractViolationError(
            f"cov shape {cov.shape} does not match vector length {r.shape[0]}"
        )
    if not np.isfinite(cov).all():
        raise ContractViolationError("non-finite input to mahalanobis")
    # LAPACK trtrs (solve_triangular without the wrapper's checks); the norm
    # is sqrt(z . z), exactly as np.linalg.norm computes it for a real vector.
    z = dtrtrs(_cholesky(cov), r, lower=1)[0]
    return math.sqrt(z.dot(z))


def local_weight(md: float, xi: float) -> float:
    """Sigmoid penalty 1 / (1 + exp(-(md - xi))).

    Equals 0.5 exactly at md == xi and increases strictly with md. Output is
    clamped into the open interval (0, 1) where float64 would saturate.
    """
    if not math.isfinite(xi):
        raise ContractViolationError(f"xi must be finite, got {xi}")
    if math.isnan(md) or md < 0:
        raise ContractViolationError(f"md must be >= 0, got {md}")
    try:
        w = 1.0 / (1.0 + math.exp(xi - md))
    except OverflowError:  # exp past ~709.78: a weight below _W_LO
        w = 0.0
    return min(max(w, _W_LO), _W_HI)


def chi2_xi(dof: int, confidence: float = 0.95) -> float:
    """Sigmoid midpoint: sqrt of the chi-square quantile at ``confidence``.

    With this shift, a nominal Gaussian residual of ``dof`` dimensions lands
    past the midpoint with probability 1 - confidence.
    """
    _setting("dof", dof, "an integer >= 1")
    _setting("confidence", confidence, "in (0, 1)")
    # scipy.stats' chi2.ppf is 2 * gammaincinv(dof / 2, q); calling it here keeps
    # scipy.stats, about half of the package's import time, out of the import.
    return math.sqrt(2 * gammaincinv(dof / 2, confidence))


@dataclass(frozen=True)
class ExpertConfig:
    """Reliability-scoring threshold of one expert.

    xi: sigmoid midpoint of the exact Mahalanobis distance; defaults to the
        4-dof / 95% chi-square root (boxes). Scalars want chi2_xi(1, confidence).
    """

    xi: float = field(default_factory=lambda: chi2_xi(4, 0.95))

    def __post_init__(self):
        _setting("xi", self.xi, "> 0 and finite")


@dataclass(frozen=True)
class ExpertReport:
    """One expert's per-frame output: posterior belief, innovation variance ``s``
    (the innovation covariance is ``s I_k``) and reliability score."""

    posterior: GaussianState
    predicted_meas: np.ndarray
    s: float
    md: float
    w_M: float
    frame: int

    def __post_init__(self):
        if not isinstance(self.posterior, _BlockState):
            raise ContractViolationError("reports come from Expert.step, whose posterior is a "
                                         f"block state, got a {type(self.posterior).__name__}")
        _setting("s", self.s, "> 0 and finite")
        if not (self.md >= 0 and math.isfinite(self.md)):
            raise ContractViolationError(f"md must be finite and >= 0, got {self.md}")
        if not (0.0 < self.w_M < 1.0):
            raise ContractViolationError(f"w_M must lie in (0, 1), got {self.w_M}")


class Expert:
    """Kalman filter plus reliability scorer for a single sensor.

    The model must come from ``build_cv_model``. The expert initializes
    lazily from the first measurement it sees: positions are its own copy of
    that reading, rates zero, block ``(init_var, 0, init_var)``.
    While the sensor reports nothing, ``step(None)`` coasts on the prediction
    and scores the LAST seen measurement against the current predicted
    distribution, so the penalty of a stale sensor grows as the world moves
    on. After ``stale_after`` consecutive misses the covariance is reset on
    reacquisition, so the expert re-anchors at its positions ``m0`` and rates
    ``m1`` rather than fighting its history.
    """

    def __init__(self, model: LinearModel, config: ExpertConfig | None = None,
                 init_var: float = 1e4, stale_after: int | None = None):
        self._block = _cv_block_of(model)
        self.init_var = _init_var(init_var)
        if stale_after is not None:
            _setting("stale_after", stale_after, "an integer >= 1")
        self.config = config or ExpertConfig()
        self.stale_after = stale_after
        self._P0 = (self.init_var, 0.0, self.init_var)
        self.state: GaussianState | None = None
        self.last_meas: np.ndarray | None = None
        self.misses = 0
        self.frame = -1

    def step(self, y=None) -> ExpertReport | None:
        """Advance one frame with measurement ``y`` (None = sensor silent).

        Returns None until the first measurement arrives; afterwards always
        returns a report, coasting included. A step that raises leaves the
        expert exactly as it was.

        The expert filters the model's 2x2 axis block in closed form, from
        and to block states: the innovation covariance is ``s I_k``, so
        ``md = |y - mu| / sqrt(s)``, and the report holds ``s``.
        """
        frame = self.frame + 1
        state, b = self.state, self._block
        if y is not None:
            try:
                y = np.array(y, dtype=float)  # the expert's own copy, kept as last_meas
            except (TypeError, ValueError) as exc:  # text, a ragged nesting, an object
                raise ContractViolationError(f"reading is not numeric: {exc}") from exc
            if state is None:
                if y.shape != (b.k,):
                    raise ContractViolationError(f"y and mu must be matching vectors, "
                                                 f"got {y.shape} and {(b.k,)}")
                if not np.isfinite(y).all():
                    raise ContractViolationError("mean contains non-finite entries")
                state = _BlockState(y, np.zeros(b.k), self._P0)  # positions read, rates zero
            elif self.stale_after is not None and self.misses >= self.stale_after:
                # Reacquisition after a long gap: keep the mean, reopen the covariance.
                state = _BlockState(state.m0, state.m1, self._P0)
        elif state is None:
            self.frame = frame
            return None

        mu, m1, P, s = _cv_predict(b, state)
        r, rr = _residual(self.last_meas if y is None else y, mu)
        md = math.sqrt(rr / s)
        posterior = _BlockState(*((mu, m1, P) if y is None else _cv_update(b, mu, m1, P, s, r)))
        w = local_weight(md, self.config.xi)
        if not math.isfinite(md):
            raise ContractViolationError(f"md must be finite and >= 0, got {md}")
        last_meas, misses = (self.last_meas, self.misses + 1) if y is None else (y, 0)
        # The expert's own values, checked above.
        report = _trusted(ExpertReport, posterior=posterior, predicted_meas=mu, s=s, md=md,
                          w_M=w, frame=frame)
        self.state, self.last_meas, self.misses, self.frame = posterior, last_meas, misses, frame
        return report
