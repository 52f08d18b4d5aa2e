"""Track-quality metrics: overlap, center-size distance, success rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .voting import BoundingBox, box_distance

__all__ = [
    "jaccard",
    "gt_distance",
    "success",
    "FrameEval",
    "ApproachSummary",
    "summarize",
]

# Success thresholds: at least half overlap and within 50 px of ground truth.
JACCARD_MIN = 0.5
DISTANCE_MAX = 50.0


def _box(b) -> BoundingBox:
    if isinstance(b, BoundingBox):
        return b
    a = np.asarray(b, dtype=float)
    if a.shape != (4,):
        raise ContractViolationError(f"expected a BoundingBox or 4-vector, got shape {a.shape}")
    return BoundingBox(*a)


def jaccard(a, b) -> float:
    """Intersection-over-union of two axis-aligned boxes (real-valued geometry).

    Boxes are centers plus sizes; degenerate boxes with zero-area union give 0.
    """
    p, r = _box(a), _box(b)
    left = max(p.u - p.w / 2, r.u - r.w / 2)
    right = min(p.u + p.w / 2, r.u + r.w / 2)
    bottom = max(p.v - p.h / 2, r.v - r.h / 2)
    top = min(p.v + p.h / 2, r.v + r.h / 2)
    inter = max(0.0, right - left) * max(0.0, top - bottom)
    union = p.w * p.h + r.w * r.h - inter
    if union <= 0.0:
        return 0.0
    # Rounding can push the ratio of equal boxes a few ulps past 1.
    return float(min(1.0, inter / union))


def gt_distance(estimate, truth) -> float:
    """Distance to ground truth; same (u, v, h, w) metric the voting uses."""
    return box_distance(_box(estimate), _box(truth))


def success(j: float, d: float, j_min: float = JACCARD_MIN,
            d_max: float = DISTANCE_MAX) -> bool:
    """Frame success: overlap at least ``j_min`` AND distance at most ``d_max``.

    Both bounds are inclusive.
    """
    if np.isnan(j) or not (0.0 <= j <= 1.0):
        raise ContractViolationError(f"jaccard must be in [0, 1], got {j}")
    if np.isnan(d) or d < 0:
        raise ContractViolationError(f"distance must be >= 0, got {d}")
    return bool(j >= j_min and d <= d_max)


@dataclass(frozen=True)
class FrameEval:
    """One frame's scores against ground truth."""

    frame: int
    jaccard: float
    distance: float
    success: bool

    def __post_init__(self):
        if not (0.0 <= self.jaccard <= 1.0):
            raise ContractViolationError(f"jaccard must be in [0, 1], got {self.jaccard}")
        if not (self.distance >= 0 and np.isfinite(self.distance)):
            raise ContractViolationError(f"distance must be finite >= 0, got {self.distance}")


@dataclass(frozen=True)
class ApproachSummary:
    approach: str
    frames: int
    mean_jaccard: float
    mean_distance: float
    success_rate: float


def summarize(evals_by_approach) -> list[ApproachSummary]:
    """Aggregate per-frame evals into one row per approach.

    ``evals_by_approach`` maps approach name -> sequence of FrameEval. Empty
    input (no approaches, or any approach without frames) is an error rather
    than a row of NaNs.
    """
    if not evals_by_approach:
        raise ContractViolationError("no approaches to summarize")
    rows = []
    for name, evals in evals_by_approach.items():
        evals = list(evals)
        if not evals:
            raise ContractViolationError(f"approach {name!r} has no frames to summarize")
        rows.append(ApproachSummary(
            approach=str(name),
            frames=len(evals),
            mean_jaccard=float(np.mean([e.jaccard for e in evals])),
            mean_distance=float(np.mean([e.distance for e in evals])),
            success_rate=float(np.mean([1.0 if e.success else 0.0 for e in evals])),
        ))
    return rows
