"""Passive-RF UAV localization and segment-wise motion-model EKF tracking."""

from .geodesy import EnuPoint, GeoPoint, from_enu, to_enu
from .dataio import Segment, load_segments
from .motionmodels import ModelKind, NoiseSigmas
from .ekf import FilterConfig
from .tdoa import SensorArray
from .metrics import CdfCurve, ErrorStats, cdf, euclidean_errors, stats

__version__ = "0.1.0"
