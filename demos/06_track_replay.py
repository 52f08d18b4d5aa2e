"""
Replaying detector tracks
=========================

Three detectors follow a target moving across the image. Detector C
freezes at frame 40 and keeps reporting the same box, a classic silent
tracker failure. The vote penalizes it, the fusion center inflates its
noise block, and the fused track stays with the target.
"""

import numpy as np

from habdf import (
    ExpertConfig,
    FrameEval,
    FusionConfig,
    VoteConfig,
    build_track_model,
    chi2_xi,
    gt_distance,
    jaccard,
    make_pipeline,
    success,
    summarize,
)

rng = np.random.default_rng(5)
frames, freeze_at = 240, 40


def truth(t):
    return np.array([80.0 + 2.0 * t, 240.0 + 0.5 * t, 60.0, 40.0])


model = build_track_model(dt=1.0, accel_var=1.0, meas_var=25.0)
config = FusionConfig(
    gamma=1.0, delta=1.0,
    vote=VoteConfig(omega0=1.0, omega=20.0, lam=50.0),
    expert=ExpertConfig(xi=chi2_xi(4, 0.95)),
)
pipe = make_pipeline(3, model, config)

frozen_box = truth(freeze_at)
per_track = {"fused": [], "frozen detector": [], "live detector": []}
for t in range(frames):
    tru = truth(t)
    a = tru + rng.normal(0.0, 2.0, 4)
    b = tru + rng.normal(0.0, 2.0, 4)
    c = tru.copy() if t < freeze_at else frozen_box
    est = pipe.step([a, b, c])
    fused_box = model.C @ est.state.mean
    for name, box in (("fused", fused_box), ("frozen detector", c), ("live detector", a)):
        j = jaccard(box, tru)
        d = gt_distance(box, tru)
        per_track[name].append(FrameEval(t, j, d, success(j, d)))

print(f"{frames} frames, detector C frozen from frame {freeze_at} on")
print()
print("approach          mean J   mean dist   success")
for row in summarize(per_track):
    print(f"{row.approach:>15}  {row.mean_jaccard:7.3f}  {row.mean_distance:10.2f}  {row.success_rate:8.3f}")

wd = est.w_d
print()
print(f"final-frame vote penalties: A {wd[0]:.2f}  B {wd[1]:.2f}  C {wd[2]:.2f}")
print("the frozen detector ends pinned at the maximum penalty")
