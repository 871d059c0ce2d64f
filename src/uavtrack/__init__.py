"""Passive-RF UAV localization and segment-wise motion-model EKF tracking."""

from .geodesy import EnuPoint, GeoPoint, from_enu, to_enu
from .dataio import AlignedPair, Segment, TimedSample, align, clean, load_segments
from .motionmodels import ModelKind, NoiseSigmas
from .ekf import FilterConfig, FilterState, MeasurementModel, predict, run_trajectory, update
from .tdoa import SensorArray, TdoaMeasurement, simulate_flight, simulate_tdoa, solve_position
from .metrics import CdfCurve, ErrorStats, cdf, euclidean_errors, quantile, stats

__version__ = "0.1.0"
