"""Softened majority voting over detector outputs.

Detectors vote through geometry alone: a detector whose box sits far from
every peer is the odd one out. The consensus distance is each detector's
nearest-peer distance, pushed through a shifted tanh so the penalty turns on
around ``lam`` and saturates instead of exploding. Like the expert weight,
``w_d`` is a penalty: larger means more isolated, hence less trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InsufficientDetectorsError

__all__ = [
    "BoundingBox",
    "VoteConfig",
    "box_distance",
    "consensus_distance",
    "vote_weight",
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: center (u, v), height h, width w, in pixels."""

    u: float
    v: float
    h: float
    w: float

    def __post_init__(self):
        vals = (self.u, self.v, self.h, self.w)
        if not all(math.isfinite(x) for x in vals):
            raise ContractViolationError(f"box fields must be finite, got {vals}")
        if self.h < 0 or self.w < 0:
            raise ContractViolationError(f"box sides must be >= 0, got h={self.h} w={self.w}")

    def __array__(self, dtype=None, copy=None):
        return np.array([self.u, self.v, self.h, self.w], dtype=float if dtype is None else dtype)


def _vector(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ContractViolationError(f"{name} must be a nonempty vector")
    if not np.isfinite(a).all():
        raise ContractViolationError(f"{name} contains non-finite entries")
    return a


def box_distance(p, r, scale=None) -> float:
    """Euclidean distance between two boxes over (u, v, h, w).

    Centers and sizes mix in raw pixels by design; pass ``scale`` (a
    positive 4-vector of divisors) to normalize dimensions, off by default.
    """
    a = np.asarray(p, dtype=float)
    b = np.asarray(r, dtype=float)
    if scale is None and a.ndim == 1 and a.size and a.shape == b.shape:
        # A non-finite entry in either box makes d . d non-finite, so one
        # scalar test stands in for both array checks on the common path.
        d = a - b
        dd = d.dot(d)
        if math.isfinite(dd):
            return math.sqrt(dd)
    # Full checks, each argument in turn; finite boxes whose squared distance
    # overflows get here too and return inf.
    a = _vector(a, "p")
    b = _vector(b, "r")
    if a.shape != b.shape:
        raise ContractViolationError(f"mismatched box shapes {a.shape} vs {b.shape}")
    d = a - b
    if scale is not None:
        s = _vector(scale, "scale")
        if s.shape != d.shape or (s <= 0).any():
            raise ContractViolationError("scale must be positive and match the boxes")
        d = d / s
    # sqrt(d . d) is exactly what np.linalg.norm computes for a real vector.
    return math.sqrt(d.dot(d))


def consensus_distance(boxes, i: int, scale=None) -> float:
    """Distance from box ``i`` to its nearest peer among ``boxes``.

    Majority voting needs at least 3 detectors; fewer raises
    InsufficientDetectorsError.
    """
    n = len(boxes)
    if n < 3:
        raise InsufficientDetectorsError(
            f"majority voting needs at least 3 detectors, got {n}"
        )
    if not (0 <= i < n):
        raise ContractViolationError(f"index {i} out of range for {n} boxes")
    return _nearest_peer(boxes, i, scale)


def _nearest_peer(boxes, i: int, scale=None) -> float:
    # Nearest-peer distance of box i; a lone box has no peer to disagree with.
    peers = (box_distance(boxes[i], boxes[j], scale) for j in range(len(boxes)) if j != i)
    return min(peers, default=0.0)


@dataclass(frozen=True)
class VoteConfig:
    """Vote-penalty shape: floor omega0, half-range omega, onset distance lam."""

    omega0: float = 1.0
    omega: float = 1.0
    lam: float = 50.0

    def __post_init__(self):
        for name in ("omega0", "omega", "lam"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ContractViolationError(f"{name} must be >= 0 and finite, got {v}")


def vote_weight(min_d: float, config: VoteConfig | None = None) -> float:
    """Penalty omega0 + omega * (1 + tanh(min_d - lam)).

    Ranges over (omega0, omega0 + 2 omega), hitting omega0 + omega exactly at
    min_d == lam.
    """
    cfg = config or VoteConfig()
    if math.isnan(min_d) or min_d < 0:
        raise ContractViolationError(f"min_d must be >= 0, got {min_d}")
    return float(cfg.omega0 + cfg.omega * (1.0 + np.tanh(min_d - cfg.lam)))
