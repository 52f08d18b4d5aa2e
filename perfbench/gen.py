"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and never imports habdf: the program under
test receives only what these functions return. The same seed always gives
the same inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

# Image extent the ground-truth boxes stay inside, in pixels.
FRAME_W, FRAME_H = 1920.0, 1080.0
BORDER = 100.0
# Per-coordinate detector noise (u, v, h, w) in pixels.
DETECTOR_SIGMA = np.array([3.0, 3.0, 2.0, 2.0])
# Faults recur once per block of this many frames.
FAULT_PERIOD = 200


@dataclass(frozen=True)
class BoxTrack:
    """One object's ground truth and what each detector reported.

    truth: (frames, 4) boxes (u, v, h, w).
    boxes: (detectors, frames, 4) detector readings, faults included.
    present: (detectors, frames) False where the detector dropped out.
    """

    truth: np.ndarray
    boxes: np.ndarray
    present: np.ndarray

    @property
    def frames(self) -> int:
        return self.truth.shape[0]

    def frame_inputs(self, t: int) -> list:
        """Per-detector readings of frame t, None where absent."""
        return [
            self.boxes[i, t] if self.present[i, t] else None
            for i in range(self.boxes.shape[0])
        ]


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # Fold an unbounded path into [lo, hi] as if it bounced off both ends.
    span = hi - lo
    z = np.mod(x - lo, 2.0 * span)
    return lo + np.where(z > span, 2.0 * span - z, z)


def box_truth(rng: np.random.Generator, frames: int) -> np.ndarray:
    """Ground-truth box path: smooth random velocity, bouncing off the border,
    with slowly wandering height and width."""
    out = np.empty((frames, 4))
    for axis, extent in ((0, FRAME_W), (1, FRAME_H)):
        vel = lfilter([1.0], [1.0, -0.98], rng.normal(0.0, 0.3, frames))
        start = rng.uniform(BORDER, extent - BORDER)
        out[:, axis] = _reflect(start + np.cumsum(vel), BORDER, extent - BORDER)
    for axis, (lo, hi) in ((2, (80.0, 200.0)), (3, (50.0, 150.0))):
        walk = rng.uniform(lo, hi) + np.cumsum(rng.normal(0.0, 0.3, frames))
        out[:, axis] = _reflect(walk, 30.0, 300.0)
    return out


def detector_track(rng: np.random.Generator, frames: int, detectors: int,
                   absent_p: float, n_freeze: int, n_jump: int, n_spike: int) -> BoxTrack:
    """Noisy detector readings of one ground-truth track, with faults.

    The first ``n_freeze`` detectors of a random permutation freeze (repeat a
    stale box) for one window per fault period, the next ``n_jump`` jump by
    80-160 px for one window per period, and the next ``n_spike`` spike by
    80-160 px on 5% of frames. Every detector drops out independently with
    probability ``absent_p`` per frame.
    """
    truth = box_truth(rng, frames)
    boxes = truth[None] + rng.normal(0.0, 1.0, (detectors, frames, 4)) * DETECTOR_SIGMA
    order = rng.permutation(detectors)
    freeze = order[:n_freeze]
    jump = order[n_freeze:n_freeze + n_jump]
    spike = order[n_freeze + n_jump:n_freeze + n_jump + n_spike]
    for block in range(0, frames, FAULT_PERIOD):
        for det in np.concatenate([freeze, jump]):
            start = block + int(rng.integers(5, FAULT_PERIOD // 2))
            end = min(start + int(rng.integers(20, 80)), frames)
            if start >= frames:
                continue
            if det in freeze:
                boxes[det, start:end] = boxes[det, start]
            else:
                angle = rng.uniform(0.0, 2.0 * np.pi)
                mag = rng.uniform(80.0, 160.0)
                boxes[det, start:end, :2] += mag * np.array([np.cos(angle), np.sin(angle)])
    for det in spike:
        hit = rng.random(frames) < 0.05
        angle = rng.uniform(0.0, 2.0 * np.pi, frames)
        mag = rng.uniform(80.0, 160.0, frames)
        boxes[det, hit, 0] += (mag * np.cos(angle))[hit]
        boxes[det, hit, 1] += (mag * np.sin(angle))[hit]
    present = rng.random((detectors, frames)) >= absent_p
    return BoxTrack(truth, boxes, present)


def track3_tracks(seed: int, episode: int, tracks: int, frames: int) -> list[BoxTrack]:
    """Concurrent 3-detector tracks: 5% dropout, one detector freezes, one
    jumps or spikes (even odds), one stays clean."""
    rng = np.random.default_rng([seed, episode, 3])
    out = []
    for _ in range(tracks):
        jumps = bool(rng.random() < 0.5)
        out.append(detector_track(rng, frames, 3, 0.05, 1, int(jumps), int(not jumps)))
    return out


def track32_track(seed: int, episode: int, frames: int) -> BoxTrack:
    """One 32-detector track: 10% dropout, four freezing, four jumping and
    two spiking detectors."""
    rng = np.random.default_rng([seed, episode, 32])
    return detector_track(rng, frames, 32, 0.10, 4, 4, 2)


def write_replay_inputs(seed: int, frames: int, tracks_path: str, gt_path: str) -> BoxTrack:
    """Write a 3-detector track log and its ground truth as CSVs.

    Dropped readings become ``valid=false`` rows that still carry the noisy
    box, as a detector that reports a low-confidence result would.
    """
    rng = np.random.default_rng([seed, 0, 1])
    jumps = bool(rng.random() < 0.5)
    track = detector_track(rng, frames, 3, 0.05, 1, int(jumps), int(not jumps))
    ids = ["det_a", "det_b", "det_c"]
    with open(tracks_path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["frame", "detector_id", "u", "v", "h", "w", "valid"])
        for t in range(frames):
            for i, name in enumerate(ids):
                out.writerow([t, name, *(repr(float(x)) for x in track.boxes[i, t]),
                              "true" if track.present[i, t] else "false"])
    with open(gt_path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["frame", "u", "v", "h", "w"])
        for t in range(frames):
            out.writerow([t] + [repr(float(x)) for x in track.truth[t]])
    return track


def sweep_seeds(seed: int, cells: int) -> list[int]:
    """Scenario seeds for the sweep grid's ``run.seed`` axis."""
    rng = np.random.default_rng([seed, 0, 2])
    return [int(s) for s in rng.integers(0, 2**31 - 1, cells)]
