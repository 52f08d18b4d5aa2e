"""Track-quality metrics: overlap, center-size distance, success rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .voting import BoundingBox

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


def _boxes(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two boxes (a BoundingBox or 4-vector) or (m, 4) stacks as float arrays
    that BoundingBox accepts. A box broadcasts against a stack; two stacks
    must have the same length."""
    pair = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for x in pair:
        if x.shape[-1:] != (4,) or x.ndim > 2:
            raise ContractViolationError(f"expected a box or an (m, 4) stack, got shape {x.shape}")
        bad = ~np.isfinite(x).all(axis=-1) | (x[..., 2:] < 0).any(axis=-1)
        if bad.any():
            BoundingBox(*x.reshape(-1, 4)[bad.reshape(-1).argmax()])  # raises its message
    p, r = pair
    if p.ndim == r.ndim == 2 and len(p) != len(r):
        raise ContractViolationError(f"cannot pair a stack of {len(p)} boxes with {len(r)}")
    return p, r


def jaccard(a, b):
    """Intersection-over-union of two axis-aligned boxes (real-valued geometry).

    Boxes are centers plus sizes; degenerate boxes with zero-area union give 0.
    Two (m, 4) stacks give an (m,) array, each entry as a pair of boxes gives.
    """
    (pu, pv, ph, pw), (ru, rv, rh, rw) = (x.T for x in _boxes(a, b))
    with np.errstate(all="ignore"):  # overflow to inf, as Python floats do
        left = np.maximum(pu - pw / 2, ru - rw / 2)
        right = np.minimum(pu + pw / 2, ru + rw / 2)
        bottom = np.maximum(pv - ph / 2, rv - rh / 2)
        top = np.minimum(pv + ph / 2, rv + rh / 2)
        # An overlap overflowed to inf times an empty one (a zero-area box,
        # say) is NaN, not the true 0; fmax takes the 0.
        inter = np.fmax(np.maximum(0.0, right - left) * np.maximum(0.0, top - bottom), 0.0)
        union = pw * ph + rw * rh - inter
        ratio = inter / union
        # Rounding can push the ratio of equal boxes a few ulps past 1; a NaN
        # ratio (inf - inf) reads 1, as min(1.0, nan) does. np.maximum can keep
        # a -0.0 that max(0.0, -0.0) drops; adding 0.0 turns it into 0.0.
        j = np.where(union <= 0.0, 0.0, np.where(ratio < 1.0, ratio, 1.0)) + 0.0
    return float(j) if j.ndim == 0 else j


def gt_distance(estimate, truth):
    """Distance to ground truth; same (u, v, h, w) metric the voting uses.

    Two (m, 4) stacks give an (m,) array. Each row is ``sqrt(d . d)``, as
    box_distance takes it, so it equals that pair's distance bit for bit; a
    summed or einsum square differs in the last bit.
    """
    p, r = _boxes(estimate, truth)
    with np.errstate(over="ignore"):  # finite boxes far enough apart are inf apart
        d = np.atleast_2d(p - r)
        out = np.sqrt(np.fromiter(map(np.dot, d, d), float, len(d)))
    return float(out[0]) if p.ndim == r.ndim == 1 else out


def success(j: float, d: float) -> bool:
    """Frame success: jaccard >= JACCARD_MIN and distance <= DISTANCE_MAX."""
    if math.isnan(j) or not (0.0 <= j <= 1.0):
        raise ContractViolationError(f"jaccard must be in [0, 1], got {j}")
    if math.isnan(d) or d < 0:
        raise ContractViolationError(f"distance must be >= 0, got {d}")
    return bool(j >= JACCARD_MIN and d <= DISTANCE_MAX)


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
        if not (self.distance >= 0 and math.isfinite(self.distance)):
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
