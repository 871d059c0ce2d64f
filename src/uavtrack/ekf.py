"""Discrete extended Kalman filter run independently over each segment.

Predict with the segment's motion model over the actual inter-sample
interval, update with the RF position measurement. Covariance updates use
the Joseph form and are re-symmetrized after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataio import AlignedPair, Segment, segment_slice
from .geodesy import EnuPoint
from .motionmodels import (
    ModelKind,
    jacobian,
    measurement_matrix,
    process_noise,
    transition,
)


class FilterError(ValueError):
    """Dimension mismatch or degenerate numerics in a filter step."""


@dataclass(frozen=True)
class FilterState:
    s: np.ndarray
    P: np.ndarray
    t_ms: int


@dataclass(frozen=True)
class MeasurementModel:
    H: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class TrackPoint:
    t_ms: int
    pos: EnuPoint
    state: FilterState


Track = list  # list[TrackPoint]


@dataclass(frozen=True)
class FilterConfig:
    """Filter tuning shared across segments.

    ``R`` is the 2 x 2 measurement-noise covariance used by every
    segment, typically :func:`estimate_R` over the whole flight.
    """

    R: np.ndarray
    v_max: float = 20.0
    accel_var: float = 25.0
    omega_var: float = 1.0


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def predict(fs: FilterState, mm: ModelKind, T: float, Q: np.ndarray) -> FilterState:
    """Time update: propagate mean and covariance over ``T`` seconds."""
    n = mm.state_dim
    Q = np.asarray(Q, dtype=float)
    if fs.s.shape != (n,) or fs.P.shape != (n, n) or Q.shape != (n, n):
        raise FilterError(
            f"inconsistent dimensions for {mm.value}: s{fs.s.shape} P{fs.P.shape} Q{Q.shape}"
        )
    F = jacobian(mm, fs.s, T)
    s_pred = transition(mm, fs.s, T)
    P_pred = _symmetrize(F @ fs.P @ F.T + Q)
    return FilterState(s_pred, P_pred, fs.t_ms + round(T * 1000))


def update(fs_pred: FilterState, z: EnuPoint, meas: MeasurementModel) -> FilterState:
    """Measurement update with the RF position fix (Joseph form)."""
    H = np.asarray(meas.H, dtype=float)
    R = np.asarray(meas.R, dtype=float)
    n = fs_pred.s.shape[0]
    if H.shape != (2, n) or R.shape != (2, 2):
        raise FilterError(f"inconsistent measurement dimensions: H{H.shape} R{R.shape}")

    zv = np.array([z.x, z.y])
    S = H @ fs_pred.P @ H.T + R
    try:
        K = np.linalg.solve(S.T, (fs_pred.P @ H.T).T).T
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"singular innovation covariance: {S}") from exc
    s = fs_pred.s + K @ (zv - H @ fs_pred.s)
    ImKH = np.eye(n) - K @ H
    P = _symmetrize(ImKH @ fs_pred.P @ ImKH.T + K @ R @ K.T)
    return FilterState(s, P, fs_pred.t_ms)


def estimate_R(pairs: Sequence[AlignedPair], mode: str = "mean") -> np.ndarray:
    """Measurement-noise covariance from the aligned RF errors.

    ``"mean"`` puts the mean Euclidean error (meters) on both diagonal
    entries; ``"mse"`` uses per-axis mean squared errors (meters^2).
    """
    if not pairs:
        raise FilterError("cannot estimate R from empty input")
    dx = np.array([p.rf.x - p.uav.x for p in pairs])
    dy = np.array([p.rf.y - p.uav.y for p in pairs])
    if mode == "mean":
        m = float(np.mean(np.hypot(dx, dy)))
        return np.diag([m, m])
    if mode == "mse":
        return np.diag([float(np.mean(dx**2)), float(np.mean(dy**2))])
    raise FilterError(f"unknown R mode: {mode!r}")


def _initial_state(seg: Segment, first: AlignedPair, cfg: FilterConfig) -> FilterState:
    s = np.zeros(seg.mm.state_dim)
    s[0], s[1] = first.rf.x, first.rf.y
    var = {"x": cfg.R[0, 0], "y": cfg.R[1, 1], "vx": cfg.v_max**2, "vy": cfg.v_max**2,
           "ax": cfg.accel_var, "ay": cfg.accel_var, "omega": cfg.omega_var}
    P = np.diag(np.array([var[k] for k in seg.mm.states], dtype=float))
    return FilterState(s, P, first.t_ms)


def run_segment(
    seg: Segment, pairs: Sequence[AlignedPair], cfg: FilterConfig
) -> Optional[Track]:
    """Filter one segment's aligned pairs; ``None`` signals a skipped segment.

    Initializes position from the first RF measurement of the segment with
    zero velocity (and acceleration / turn rate) under inflated covariance.
    """
    if len(pairs) < 2:
        return None
    meas = MeasurementModel(measurement_matrix(seg.mm), cfg.R)

    fs = _initial_state(seg, pairs[0], cfg)
    track: Track = [TrackPoint(fs.t_ms, EnuPoint(fs.s[0], fs.s[1]), fs)]
    for prev, cur in zip(pairs, pairs[1:]):
        T = (cur.t_ms - prev.t_ms) / 1000.0
        if T <= 0:
            raise FilterError(f"segment {seg.id}: non-increasing timestamps at {cur.t_ms}")
        Q = process_noise(seg.mm, T, seg.sigmas)
        fs = update(predict(fs, seg.mm, T, Q), cur.rf, meas)
        track.append(TrackPoint(cur.t_ms, EnuPoint(fs.s[0], fs.s[1]), fs))
    return track


def run_trajectory(
    segments: Sequence[Segment],
    pairs: Sequence[AlignedPair],
    cfg: FilterConfig,
    indices: Optional[Sequence[int]] = None,
) -> tuple[list[tuple[Segment, Track]], list[str]]:
    """Run each segment independently; no state carries across segments.

    ``indices`` maps each pair to its position in the aligned sequence the
    segment indices refer to (identity when cleaning removed nothing); it
    must be strictly ascending and as long as ``pairs``, else ValueError.
    Returns (per-segment tracks, warning messages); failed segments warn
    and are omitted.
    """
    if indices is None:
        indices = range(len(pairs))
    elif len(indices) != len(pairs) or any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("indices must be strictly ascending, one per pair")

    warnings: list[str] = []
    results: list[tuple[Segment, Track]] = []
    for seg in sorted(segments, key=lambda s: s.start_idx):
        try:
            track = run_segment(seg, pairs[segment_slice(seg, indices)], cfg)
        except FilterError as exc:
            warnings.append(f"segment {seg.id}: {exc}")
            continue
        if track is None:
            warnings.append(f"segment {seg.id}: too few pairs, skipped")
        else:
            results.append((seg, track))
    return results, warnings
