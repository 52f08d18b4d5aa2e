"""Hierarchical adaptive data fusion.

A bank of per-sensor Kalman experts scores each sensor's consistency
(Mahalanobis distance through a calibrated sigmoid), a soft majority vote
scores each sensor's agreement with its peers (nearest-peer distance through
a shifted tanh), and a fusion-center Kalman filter re-derives its measurement
noise from both penalties every frame. Sensors that drift, spike, freeze, or
jump get large noise blocks and quietly lose influence; they regain it the
moment they behave again.
"""

from . import errors, experts, fusion, kalman, metrics, sim, voting
from .errors import *
from .experts import *
from .fusion import *
from .kalman import *
from .metrics import *
from .records import TrackRecord, load_config, read_track_csv, write_track_csv
from .sim import *
from .voting import *

__version__ = "0.1.0"

# Each module's __all__ is its public API; records exports only these four.
__all__ = ["TrackRecord", "load_config", "read_track_csv", "write_track_csv"]
__all__ += errors.__all__
__all__ += experts.__all__
__all__ += fusion.__all__
__all__ += kalman.__all__
__all__ += metrics.__all__
__all__ += sim.__all__
__all__ += voting.__all__
