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

from .errors import ContractViolationError, InsufficientDetectorsError, _setting

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


def box_distance(p, r) -> float:
    """Euclidean distance between two boxes over (u, v, h, w).

    Centers and sizes mix in raw pixels by design.
    """
    a = np.asarray(p, dtype=float)
    b = np.asarray(r, dtype=float)
    if a.ndim == 1 and a.size and a.shape == b.shape:
        # sqrt(d . d) is exactly what np.linalg.norm computes for a real
        # vector. A non-finite entry in either box makes d . d non-finite, so
        # one scalar test stands in for both array checks on the common path;
        # finite boxes whose squared distance overflows return inf.
        d = a - b
        dd = d.dot(d)
        if math.isfinite(dd) or (np.isfinite(a).all() and np.isfinite(b).all()):
            return math.sqrt(dd)
    for x, name in ((a, "p"), (b, "r")):
        if x.ndim != 1 or x.size == 0:
            raise ContractViolationError(f"{name} must be a nonempty vector")
        if not np.isfinite(x).all():
            raise ContractViolationError(f"{name} contains non-finite entries")
    raise ContractViolationError(f"mismatched box shapes {a.shape} vs {b.shape}")


def consensus_distance(boxes, i: int) -> float:
    """Distance from box ``i`` to its nearest peer among ``boxes``; fewer
    than 3 boxes raise InsufficientDetectorsError."""
    n = _at_least_three(len(boxes))
    if not (0 <= i < n):
        raise ContractViolationError(f"index {i} out of range for {n} boxes")
    return _nearest_peer(boxes, i)


def _at_least_three(n: int) -> int:
    """``n``, a detector count, unless it is too few for majority voting."""
    if n < 3:
        raise InsufficientDetectorsError(f"majority voting needs at least 3 detectors, got {n}")
    return n


def _nearest_peer(boxes, i: int) -> float:
    # Nearest-peer distance of box i; a lone box has no peer to disagree with.
    # A plain loop, with no generator to resume once per pair.
    best, box = (math.inf if len(boxes) > 1 else 0.0), boxes[i]
    for j in range(len(boxes)):
        if j != i and (d := box_distance(box, boxes[j])) < best:
            best = d
    return best


@dataclass(frozen=True)
class VoteConfig:
    """Vote-penalty shape: floor omega0, half-range omega, onset distance lam,
    each stored as a Python float, so the penalty is computed in float64."""

    omega0: float = 1.0
    omega: float = 1.0
    lam: float = 50.0

    def __post_init__(self):
        for name in ("omega0", "omega", "lam"):
            v = _setting(name, getattr(self, name), ">= 0 and finite")
            object.__setattr__(self, name, float(v))
        if not math.isfinite(self.omega0 + 2.0 * self.omega):
            raise ContractViolationError("omega overflows the largest vote penalty omega0 + "
                                         f"2 * omega, got {self.omega}", ("omega",))


def vote_weight(min_d: float, config: VoteConfig | None = None) -> float:
    """Penalty omega0 + omega * (1 + tanh(min_d - lam)).

    Ranges over (omega0, omega0 + 2 omega), hitting omega0 + omega exactly at
    min_d == lam.
    """
    cfg = config or VoteConfig()
    if math.isnan(min_d) or min_d < 0:
        raise ContractViolationError(f"min_d must be >= 0, got {min_d}")
    # np.tanh, not math.tanh, whose last bit differs on some inputs.
    return cfg.omega0 + cfg.omega * (1.0 + float(np.tanh(min_d - cfg.lam)))
