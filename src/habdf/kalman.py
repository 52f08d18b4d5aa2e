"""Linear Kalman filtering on explicit Gaussian state.

The filter is written as pure functions over value types: ``kf_predict`` and
``kf_update`` return new ``GaussianState`` objects and never mutate their
inputs. ``build_cv_model`` assembles the constant-velocity model family used
everywhere else in the package; ``build_track_model`` is its four-axis
instance for bounding-box tracks ``(u, v, h, w)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv, dpotrf

from .errors import ContractViolationError, DegenerateGeometryError, _setting

__all__ = [
    "GaussianState",
    "LinearModel",
    "kf_predict",
    "kf_update",
    "build_cv_model",
    "build_track_model",
]

# kf_update refuses an innovation covariance whose Cholesky factor's squared
# max/min diagonal ratio, never above the condition number, exceeds this.
COND_LIMIT = 1e12

# Symmetry/PSD construction tolerance, scaled by max(1, max|cov|) so that
# large covariance scales do not trip float64 eigenvalue noise.
_PSD_TOL = 1e-9


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ContractViolationError(f"{name} must be a 2-D array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return a


def _check_psd(m: np.ndarray, name: str) -> np.ndarray:
    """Validate symmetry and positive semidefiniteness, return symmetrized copy."""
    if m.shape[0] != m.shape[1]:
        raise ContractViolationError(f"{name} must be square, got {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if not np.allclose(m, m.T, atol=_PSD_TOL * scale, rtol=0.0):
        raise ContractViolationError(f"{name} is not symmetric within tolerance")
    with np.errstate(over="ignore"):
        sym = 0.5 * (m + m.T)
    if not np.isfinite(sym).all():
        raise ContractViolationError(f"{name} overflows when symmetrized")
    if sym.shape[0] and float(np.linalg.eigvalsh(sym).min()) < -_PSD_TOL * scale:
        raise ContractViolationError(f"{name} is not positive semidefinite")
    return sym


@dataclass(frozen=True)
class GaussianState:
    """Gaussian belief: mean vector and covariance matrix.

    The covariance is validated (symmetric, PSD within tolerance) and stored
    exactly symmetrized, so any predict/update sequence preserves the
    invariants by construction.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ContractViolationError(f"mean must be 1-D, got ndim={mean.ndim}")
        if not np.isfinite(mean).all():
            raise ContractViolationError("mean contains non-finite entries")
        cov = _check_psd(_as_matrix(self.cov, "cov"), "cov")
        if cov.shape[0] != mean.shape[0]:
            raise ContractViolationError(
                f"cov shape {cov.shape} does not match mean length {mean.shape[0]}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class LinearModel:
    """Discrete linear state-space model x' = A x + w, y = C x + v.

    ``Rww`` and ``Rvv`` are the process and measurement noise covariances.
    """

    A: np.ndarray
    C: np.ndarray
    Rww: np.ndarray
    Rvv: np.ndarray

    # The per-axis block of a build_cv_model model; None, which experts refuse, otherwise.
    _cv_block = None

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ContractViolationError(f"A must be square, got {A.shape}")
        C = _as_matrix(self.C, "C")
        if C.shape[1] != n:
            raise ContractViolationError(f"C cols {C.shape[1]} != state dim {n}")
        Rww = _check_psd(_as_matrix(self.Rww, "Rww"), "Rww")
        if Rww.shape != (n, n):
            raise ContractViolationError(f"Rww shape {Rww.shape} != ({n}, {n})")
        p = C.shape[0]
        Rvv = _check_psd(_as_matrix(self.Rvv, "Rvv"), "Rvv")
        if Rvv.shape != (p, p):
            raise ContractViolationError(f"Rvv shape {Rvv.shape} != ({p}, {p})")
        for name, val in (("A", A), ("C", C), ("Rww", Rww), ("Rvv", Rvv)):
            object.__setattr__(self, name, val)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def meas_dim(self) -> int:
        return self.C.shape[0]


def _cholesky(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``S`` (upper triangle zero; only the lower
    triangle of ``S`` is read). Raises DegenerateGeometryError, carrying
    cond(S), if the factorisation fails; cond(S) is computed on that error
    path only, and is inf for an ``S`` with non-finite entries."""
    # LAPACK potrf directly: np.linalg.cholesky's wrapper costs several times
    # the 4x4 factorisation.
    return _check_factor(S, *dpotrf(S, lower=1), np.inf)


def _check_factor(S: np.ndarray, L: np.ndarray, info: int, cond_limit: float) -> np.ndarray:
    """``L``, the factor of ``S`` LAPACK returned with ``info``, unless it failed
    or its squared diagonal ratio exceeds ``cond_limit``. OpenBLAS can pass a
    NaN with info 0; the NaN then reaches the diagonal. The ratio test runs on
    Python floats, whose min and max skip a NaN that does not come first, so
    the sum refuses it there."""
    if info == 0:
        d = L.diagonal().tolist()
        ratio = max(d) / min(d)
        if ratio * ratio <= cond_limit and math.isfinite(sum(d)):
            return L
    cond = float(np.linalg.cond(S)) if np.isfinite(S).all() else np.inf
    raise DegenerateGeometryError("covariance is not numerically positive definite", cond)


def _trusted(cls, **fields):
    """A ``cls`` holding ``fields`` as given, with no constructor run: the one
    way to build a per-frame value from pieces its caller made or checked.
    The filter equations keep symmetry and PSD, so their states need no
    re-check; the public constructors keep every check."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def kf_predict(state: GaussianState, model: LinearModel) -> GaussianState:
    """Time update: propagate the mean through A and inflate the covariance."""
    if state.dim != model.state_dim:
        raise ContractViolationError(
            f"state dim {state.dim} != model state dim {model.state_dim}"
        )
    mean = model.A @ state.mean
    cov = model.A @ state.cov @ model.A.T + model.Rww
    return _trusted(GaussianState, mean=mean, cov=0.5 * (cov + cov.T))


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """Read-only n x n identity, built once per state dimension."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def kf_update(state: GaussianState, model: LinearModel, y):
    """Measurement update; returns ``(posterior, innovation, innovation_cov)``.

    The gain comes from one Cholesky factor of the innovation covariance; a
    covariance that fails to factor, or whose factor's squared diagonal ratio
    exceeds COND_LIMIT, raises DegenerateGeometryError. The posterior uses the
    Joseph stabilized form, keeping it symmetric PSD despite gain rounding.
    """
    mean, P, C = state.mean, state.cov, model.C
    n, p = len(mean), len(C)
    if n != len(model.A):
        raise ContractViolationError(f"state dim {n} != model state dim {len(model.A)}")
    y = np.asarray(y, dtype=float)
    if y.shape != (p,):
        raise ContractViolationError(f"measurement shape {y.shape} != ({p},)")
    # One scalar test first: a Python float sum, unlike y . y, cannot warn on
    # overflow. A finite y whose sum overflows passes the array check.
    if not math.isfinite(sum(y.tolist())) and not np.isfinite(y).all():
        raise ContractViolationError("measurement contains non-finite entries")

    CP = C @ P
    S = CP @ C.T + model.Rvv
    S = 0.5 * (S + S.T)
    innovation = y - C @ mean
    # LAPACK posv: potrf then potrs in one call, without the checks of
    # cho_factor and cho_solve, which cost more; the factor is checked as in
    # _cholesky, and also refused past COND_LIMIT.
    L, K, info = dposv(S, CP, lower=1)
    _check_factor(S, L, info, COND_LIMIT)
    K = K.T
    mean = mean + K @ innovation
    I_KC = _eye(n) - K @ C
    cov = I_KC @ P @ I_KC.T + K @ model.Rvv @ K.T
    return _trusted(GaussianState, mean=mean, cov=0.5 * (cov + cov.T)), innovation, S


class _CVBlock(NamedTuple):
    """One axis of a ``build_cv_model`` model, which is this block times I_k:
    ``A = A2 (x) I_k``, ``C = c2 (x) I_k``, ``Rww = Q2 (x) I_k`` and
    ``Rvv = r I_k``, with ``A2 = [[1, dt], [0, 1]]``, ``c2 = [1, 0]`` and
    ``Q2 = [[q00, q01], [q01, q11]]``. A covariance ``P2 (x) I_k`` keeps that
    form through predict and update, so the filter is k copies of one
    2-state, 1-output filter on the block ``P2 = [[p00, p01], [p01, p11]]``."""

    dt: float
    q00: float
    q01: float
    q11: float
    r: float
    k: int


def _cv_block_of(model) -> _CVBlock:
    """``model``'s axis block, which experts and the fusion centre filter."""
    if (b := getattr(model, "_cv_block", None)) is None:
        raise ContractViolationError("experts and the fusion centre filter build_cv_model "
                                     f"models only, got a {type(model).__name__} without one")
    return b


def _init_var(init_var) -> float:
    """``init_var`` as a float, refused unless positive and ``init_var I`` symmetrizes finitely."""
    _setting("init_var", init_var, "> 0 and finite")
    if not math.isfinite(2.0 * float(init_var)):
        raise ContractViolationError(f"init_var overflows 2 * init_var, got {init_var}",
                                     ("init_var",))
    return float(init_var)


def _cv_predict(b: _CVBlock, state: _BlockState):
    """Closed-form predict of a block state. Returns the predicted positions,
    rates and block ``(p00, p01, p11)``, and the innovation variance
    ``s = c2 P2 c2^T + r``; an ``s`` that is not positive and finite raises
    DegenerateGeometryError, as the Cholesky factor of ``s I_k`` does."""
    dt, (p00, p01, p11), m1 = b.dt, state.P, state.m1
    a01 = p01 + dt * p11  # (A2 P2)[0, 1]
    p00 = p00 + dt * p01 + dt * a01 + b.q00
    s = p00 + b.r
    if not 0.0 < s < math.inf:
        raise DegenerateGeometryError("covariance is not numerically positive definite")
    return state.m0 + dt * m1, m1, (p00, a01 + b.q01, p11 + b.q11), s


def _cv_update(b: _CVBlock, x0, x1, P, s: float, innovation: np.ndarray):
    """Closed-form Joseph update of the predicted block with the 2-vector
    gain ``g = P2 c2^T / s``; the innovation is the k-vector ``y - x0``."""
    p00, p01, p11 = P
    g0, g1 = p00 / s, p01 / s
    u = 1.0 - g0
    d = p01 - g1 * p00  # ((I - g c2) P2)[1, 0]
    r = b.r
    return (x0 + g0 * innovation, x1 + g1 * innovation,
            (u * u * p00 + r * g0 * g0, u * d + r * g0 * g1,
             p11 - g1 * p01 - g1 * d + r * g1 * g1))


@lru_cache(maxsize=None)
def _kron_index(k: int) -> np.ndarray:
    """Read-only index map that lays ``(0, p00, p01, p11)`` out as ``P2 (x) I_k``."""
    index = np.kron([[1, 2], [2, 3]], np.eye(k, dtype=np.intp))
    index.flags.writeable = False
    return index


class _BlockState(GaussianState):
    """The state of positions ``m0``, rates ``m1`` and axis block
    ``P = (p00, p01, p11)``: covariance ``P2 (x) I_k``. The filter reads these
    three alone; ``mean`` and ``cov`` are built on first read, then kept."""

    def __init__(self, m0: np.ndarray, m1: np.ndarray, P: tuple):
        self.__dict__.update(m0=m0, m1=m1, P=P)

    mean = cached_property(lambda s: np.concatenate((s.m0, s.m1)))
    cov = cached_property(lambda s: np.array((0.0, *s.P)).take(_kron_index(len(s.m0))))


def build_cv_model(n_axes: int, dt: float, accel_var: float, meas_var: float) -> LinearModel:
    """Constant-velocity model over ``n_axes`` independent axes.

    State layout is all positions first, then the matching velocities, so a
    position gains ``dt`` times its velocity each step. Process noise follows
    the discrete white-noise-acceleration model: a random per-step
    acceleration a with variance ``accel_var`` enters as position += a dt^2/2,
    velocity += a dt. Measurements are the positions with isotropic variance
    ``meas_var``.

    Every matrix is the Kronecker product of one 2x2 axis block with I_k. The
    model carries that block, and experts on it filter the block in closed
    form; its arrays are read-only, so the two cannot disagree.
    """
    _setting("n_axes", n_axes, "an integer >= 1")
    _setting("dt", dt, "> 0 and finite")
    _setting("accel_var", accel_var, ">= 0 and finite")
    _setting("meas_var", meas_var, ">= 0 and finite")

    k = n_axes
    q, g1 = float(accel_var), float(dt)
    g0 = 0.5 * g1 * g1
    b = _CVBlock(g1, q * (g0 * g0), q * (g0 * g1), q * (g1 * g1), float(meas_var), k)
    eye = np.eye(k)
    model = LinearModel(
        np.kron([[1.0, b.dt], [0.0, 1.0]], eye),
        np.kron([[1.0, 0.0]], eye),
        np.kron([[b.q00, b.q01], [b.q01, b.q11]], eye),
        np.kron([[b.r]], eye),
    )
    for name in ("A", "C", "Rww", "Rvv"):
        getattr(model, name).flags.writeable = False
    object.__setattr__(model, "_cv_block", b)
    return model


def build_track_model(dt: float = 1.0, accel_var: float = 1.0, meas_var: float = 25.0) -> LinearModel:
    """Bounding-box track model: state (u, v, h, w, and their rates)."""
    return build_cv_model(4, dt, accel_var, meas_var)
