"""Hierarchical adaptive data fusion.

A bank of per-sensor Kalman experts scores each sensor's consistency
(Mahalanobis distance through a calibrated sigmoid), a soft majority vote
scores each sensor's agreement with its peers (nearest-peer distance through
a shifted tanh), and a fusion-center Kalman filter re-derives its measurement
noise from both penalties every frame. Sensors that drift, spike, freeze, or
jump get large noise blocks and quietly lose influence; they regain it the
moment they behave again.
"""

from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateGeometryError,
    HabdfError,
    InsufficientDetectorsError,
    RecordFormatError,
)
from .experts import (
    Expert,
    ExpertConfig,
    ExpertReport,
    chi2_xi,
    local_weight,
    mahalanobis,
    mahalanobis_diag,
)
from .fusion import (
    FusedEstimate,
    FusionCenter,
    FusionConfig,
    Pipeline,
    adapt_rvv,
    make_pipeline,
)
from .kalman import (
    GaussianState,
    LinearModel,
    build_cv_model,
    build_track_model,
    kf_predict,
    kf_update,
)
from .metrics import (
    ApproachSummary,
    FrameEval,
    gt_distance,
    jaccard,
    success,
    summarize,
)
from .records import TrackRecord, load_config, read_track_csv, write_track_csv
from .sim import (
    FaultProfile,
    PidGains,
    PidState,
    SecondOrderPlant,
    SimResult,
    SimScenario,
    inject_faults,
    pid_step,
    plant_step,
    run_pan_loop,
    run_plant,
    run_sim_experiment,
    setpoint_profile,
    steady_state,
)
from .voting import (
    BoundingBox,
    VoteConfig,
    box_distance,
    consensus_distance,
    vote_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ApproachSummary",
    "BoundingBox",
    "ConfigError",
    "ContractViolationError",
    "DegenerateGeometryError",
    "Expert",
    "ExpertConfig",
    "ExpertReport",
    "FaultProfile",
    "FrameEval",
    "FusedEstimate",
    "FusionCenter",
    "FusionConfig",
    "GaussianState",
    "HabdfError",
    "InsufficientDetectorsError",
    "LinearModel",
    "PidGains",
    "PidState",
    "Pipeline",
    "RecordFormatError",
    "SecondOrderPlant",
    "SimResult",
    "SimScenario",
    "TrackRecord",
    "VoteConfig",
    "adapt_rvv",
    "box_distance",
    "build_cv_model",
    "build_track_model",
    "chi2_xi",
    "consensus_distance",
    "gt_distance",
    "inject_faults",
    "jaccard",
    "kf_predict",
    "kf_update",
    "load_config",
    "local_weight",
    "mahalanobis",
    "mahalanobis_diag",
    "make_pipeline",
    "pid_step",
    "plant_step",
    "read_track_csv",
    "run_pan_loop",
    "run_plant",
    "run_sim_experiment",
    "setpoint_profile",
    "steady_state",
    "success",
    "summarize",
    "vote_weight",
    "write_track_csv",
]
