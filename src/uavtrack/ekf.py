"""Discrete extended Kalman filter run independently over each segment.

Predict with the segment's motion model over the actual inter-sample
interval, update with the RF position measurement. Covariance updates use
the Joseph form and are re-symmetrized after every step.

The filter runs batched: :func:`filter_segments` groups the segments by
motion model and sweeps each group once, stepping every segment still
running on ``(B, n)`` states and ``(B, n, n)`` covariances. The scalar
:func:`predict` and :func:`update` are batches of one over the same step
kernels, and a segment's result does not depend on the batch it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dataio import AlignedPair, Segment, pair_columns
from .geodesy import EnuPoint
from .metrics import euclidean_errors
from .motionmodels import (
    ModelKind,
    _check_dt,
    measurement_matrix,
    process_noise_batch,
    propagate_batch,
    sigma_rows,
)

# rad/s bound on a CT segment's turn-rate estimate, projected onto after each
# update (estimate projection, D. Simon, "Kalman filtering with state
# constraints", IET Control Theory & Applications 4(8), 2010); no workload
# turns faster than 0.5 rad/s
_OMEGA_MAX = 1.0


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


@dataclass(frozen=True)
class FilterConfig:
    """Filter tuning shared across segments.

    ``R`` is the 2 x 2 measurement-noise covariance used by every
    segment, typically :func:`estimate_R` over the whole flight.
    ``omega_var`` is the initial turn-rate variance of a CT segment in
    (rad/s)^2: 0.01, a 6 deg/s standard deviation, bounds the prior by the
    platform's turn rates. A 1.0 prior (57 deg/s) lets long CT segments
    diverge from noisy fixes. ``v_max``, ``accel_var`` and ``omega_var``
    must be finite and non-negative, else :class:`FilterError`.
    """

    R: np.ndarray
    v_max: float = 20.0
    accel_var: float = 25.0
    omega_var: float = 0.01

    def __post_init__(self):
        for name in ("v_max", "accel_var", "omega_var"):
            value = getattr(self, name)
            if not 0.0 <= value < float("inf"):
                raise FilterError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class SegmentTrack:
    """One filtered segment: its rows of the filtered arrays and the EKF output there."""

    segment: Segment
    rows: slice
    states: np.ndarray  # (K_seg, n)
    covs: np.ndarray  # (K_seg, n, n)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.swapaxes(-1, -2))


def _predict_step(mm: ModelKind, s: np.ndarray, P: np.ndarray, T: np.ndarray, Q: np.ndarray):
    """Time update of (B, n) states and (B, n, n) covariances over steps ``T`` (B,)."""
    s, F = propagate_batch(mm, s, T)
    return s, _symmetrize(F @ P @ F.swapaxes(1, 2) + Q)


def _update_step(s: np.ndarray, P: np.ndarray, z: np.ndarray, H: np.ndarray, R: np.ndarray):
    """Joseph-form measurement update of (B, n) states with (B, 2) fixes.

    Returns the updated states and covariances, the (B, 2, 2) innovation
    covariances S and a (B,) flag that is False where S is singular or not
    finite; the rows so flagged hold no usable estimate.

    The gain solves S^T K^T = (P H^T)^T by LAPACK, one system per row, so a
    row rounds exactly as a lone update and as the scalar filter it
    replaced. A closed-form 2 x 2 inverse rounds differently, and a badly
    tuned CT filter can grow that last-bit difference by a factor of about
    1e8 within 200 steps.
    """
    PHt = P @ H.T
    S = H @ PHt + R
    det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    ok = np.isfinite(det) & (det != 0.0)
    try:
        Kt = np.linalg.solve(S.swapaxes(1, 2), PHt.swapaxes(1, 2))
    except np.linalg.LinAlgError:  # some S has an exactly zero pivot: row by row
        Kt = np.full((len(S), PHt.shape[2], PHt.shape[1]), np.nan)
        for i in np.flatnonzero(ok):
            try:
                Kt[i] = np.linalg.solve(S[i].T, PHt[i].T)
            except np.linalg.LinAlgError:  # det != 0 although a pivot is 0
                ok[i] = False
    K = Kt.swapaxes(1, 2)
    s = s + (K @ (z - (H @ s[:, :, None])[:, :, 0])[:, :, None])[:, :, 0]
    ImKH = np.eye(H.shape[1]) - K @ H
    P = _symmetrize(ImKH @ P @ ImKH.swapaxes(1, 2) + K @ R @ K.swapaxes(1, 2))
    return s, P, S, ok


def predict(fs: FilterState, mm: ModelKind, T: float, Q: np.ndarray) -> FilterState:
    """Time update: propagate mean and covariance over ``T`` seconds."""
    n = mm.state_dim
    Q = np.asarray(Q, dtype=float)
    if fs.s.shape != (n,) or fs.P.shape != (n, n) or Q.shape != (n, n):
        raise FilterError(
            f"inconsistent dimensions for {mm.value}: s{fs.s.shape} P{fs.P.shape} Q{Q.shape}"
        )
    s = np.asarray(fs.s, dtype=float)[None]
    s, P = _predict_step(mm, s, fs.P[None], np.array([_check_dt(T)]), Q[None])
    return FilterState(s[0], P[0], fs.t_ms + round(T * 1000))


def update(fs_pred: FilterState, z: EnuPoint, meas: MeasurementModel) -> FilterState:
    """Measurement update with the RF position fix (Joseph form)."""
    H = np.asarray(meas.H, dtype=float)
    R = np.asarray(meas.R, dtype=float)
    n = fs_pred.s.shape[0]
    if H.shape != (2, n) or R.shape != (2, 2):
        raise FilterError(f"inconsistent measurement dimensions: H{H.shape} R{R.shape}")
    with np.errstate(all="ignore"):
        s, P, S, ok = _update_step(
            np.asarray(fs_pred.s, dtype=float)[None], fs_pred.P[None], np.array([[z.x, z.y]]), H, R
        )
    if not ok[0]:
        raise FilterError(f"singular innovation covariance: {S[0]}")
    return FilterState(s[0], P[0], fs_pred.t_ms)


def estimate_R_arrays(uav: np.ndarray, rf: np.ndarray, mode: str = "mean") -> np.ndarray:
    """Measurement-noise covariance from matched ``(K, 2)`` truth and RF positions.

    ``"mean"`` puts the mean Euclidean error (meters) on both diagonal
    entries; ``"mse"`` uses per-axis mean squared errors (meters^2).
    """
    if len(uav) == 0:
        raise FilterError("cannot estimate R from empty input")
    if mode == "mean":
        m = float(np.mean(euclidean_errors(uav, rf)))
        return np.diag([m, m])
    if mode == "mse":
        dx, dy = (rf - uav).T
        return np.diag([float(np.mean(dx**2)), float(np.mean(dy**2))])
    raise FilterError(f"unknown R mode: {mode!r}")


def estimate_R(pairs: Sequence[AlignedPair], mode: str = "mean") -> np.ndarray:
    """:func:`estimate_R_arrays` over aligned pairs."""
    _, uav, rf = pair_columns(pairs)
    return estimate_R_arrays(uav, rf, mode)


def _initial_covariance(mm: ModelKind, cfg: FilterConfig) -> np.ndarray:
    var = {"x": cfg.R[0, 0], "y": cfg.R[1, 1], "vx": cfg.v_max**2, "vy": cfg.v_max**2,
           "ax": cfg.accel_var, "ay": cfg.accel_var, "omega": cfg.omega_var}
    return np.diag(np.array([var[k] for k in mm.states], dtype=float))


def _run_batch(
    segs: Sequence[Segment], t_ms: np.ndarray, z: np.ndarray, slices: Sequence[slice],
    cfg: FilterConfig,
) -> list[Union[tuple[np.ndarray, np.ndarray], FilterError]]:
    """Filter same-model segments, each over its rows of ``t_ms`` (K,) and ``z`` (K, 2).

    Every segment needs at least two rows. It starts at its first fix with
    zero velocity (and acceleration / turn rate) under the prior of
    :func:`_initial_covariance`; a CT turn rate is clipped to
    ±``_OMEGA_MAX`` after each update. The segments are sorted longest
    first, so the ones still running at step k are a prefix of the batch;
    each step predicts and updates that prefix in one array operation. Rows
    past a segment's end are NaN, so reading them poisons that segment alone.

    Returns, per segment in input order, its ``(K_seg, n)`` states and
    ``(K_seg, n, n)`` covariances, or the FilterError that stops it: the
    first non-increasing timestamp or singular innovation covariance, in
    step order.
    """
    mm = segs[0].mm
    n = mm.state_dim
    starts = np.array([sl.start for sl in slices], dtype=np.intp)
    lengths = np.array([sl.stop - sl.start for sl in slices], dtype=np.intp)

    # a non-increasing timestamp ends the segment before that step
    bad_t = np.append(np.flatnonzero(np.diff(t_ms) <= 0), len(t_ms))
    first_bad = bad_t[np.searchsorted(bad_t, starts)]
    halted = first_bad < starts + lengths - 1
    run_len = np.where(halted, first_bad - starts + 1, lengths)

    order = np.argsort(-run_len, kind="stable")
    run_len, first = run_len[order], starts[order]
    B, L = len(segs), int(run_len[0])
    steps = np.arange(L)[:, None]
    live = steps < run_len  # (L, B)
    rows = np.where(live, first + steps, 0)
    n_active = live.sum(axis=1)
    z_pad = np.where(live[:, :, None], z[rows], np.nan)
    T_pad = np.where(live[1:], np.diff(t_ms[rows], axis=0) / 1000.0, np.nan)
    sig = sigma_rows([segs[i].sigmas for i in order])
    H = measurement_matrix(mm)

    states = np.empty((L, B, n))
    covs = np.empty((L, B, n, n))
    states[0] = 0.0
    states[0, :, :2] = z_pad[0]
    covs[0] = _initial_covariance(mm, cfg)
    failed = np.zeros(B, dtype=bool)
    S_failed = np.empty((B, 2, 2))
    s, P = states[0], covs[0]
    with np.errstate(all="ignore"):  # rows that fail are flagged and dropped
        for k in range(1, L):
            b = n_active[k]
            T = T_pad[k - 1, :b]
            s, P = _predict_step(mm, s[:b], P[:b], T, process_noise_batch(mm, T, sig[:b]))
            s, P, S, ok = _update_step(s, P, z_pad[k, :b], H, cfg.R)
            if mm is ModelKind.CT:
                np.clip(s[:, 4], -_OMEGA_MAX, _OMEGA_MAX, out=s[:, 4])
            new = ~ok & ~failed[:b]
            S_failed[:b][new] = S[new]
            failed[:b] |= new
            states[k, :b] = s
            covs[k, :b] = P

    out: list = [None] * B
    for j, i in enumerate(order):
        if failed[j]:
            out[i] = FilterError(f"singular innovation covariance: {S_failed[j]}")
        elif halted[i]:
            out[i] = FilterError(f"non-increasing timestamps at {t_ms[first_bad[i] + 1]}")
        else:
            out[i] = (states[:run_len[j], j].copy(), covs[:run_len[j], j].copy())
    return out


def filter_segments(
    segments: Sequence[Segment],
    t_ms: np.ndarray,
    z: np.ndarray,
    indices: np.ndarray,
    cfg: FilterConfig,
) -> tuple[list[SegmentTrack], list[str]]:
    """Run each segment independently over the fixes ``z`` (K, 2) at ``t_ms`` (K,).

    ``indices`` (K,), strictly ascending, gives each row's position in the
    aligned sequence the segment indices refer to. Returns the tracked
    segments and the warning messages, both in ``start_idx`` order; a
    segment with fewer than two rows or a failed filter step warns and is
    omitted.
    """
    ordered = sorted(segments, key=lambda s: s.start_idx)
    indices = np.asarray(indices)
    starts = np.searchsorted(indices, [seg.start_idx for seg in ordered]).tolist()
    stops = np.searchsorted(indices, [seg.end_idx for seg in ordered], side="right").tolist()
    slices = [slice(a, b) for a, b in zip(starts, stops)]

    outcome: dict[int, Union[tuple[np.ndarray, np.ndarray], FilterError]] = {}
    for mm in ModelKind:
        group = [
            i for i, seg in enumerate(ordered)
            if seg.mm is mm and slices[i].stop - slices[i].start >= 2
        ]
        if group:
            segs = [ordered[i] for i in group]
            outcome.update(zip(group, _run_batch(segs, t_ms, z, [slices[i] for i in group], cfg)))

    tracks: list[SegmentTrack] = []
    warnings: list[str] = []
    for i, seg in enumerate(ordered):
        res = outcome.get(i)
        if res is None:
            warnings.append(f"segment {seg.id}: too few pairs, skipped")
        elif isinstance(res, FilterError):
            warnings.append(f"segment {seg.id}: {res}")
        else:
            tracks.append(SegmentTrack(seg, slices[i], *res))
    return tracks, warnings


def run_trajectory(
    segments: Sequence[Segment],
    pairs: Sequence[AlignedPair],
    cfg: FilterConfig,
    indices: Optional[Sequence[int]] = None,
) -> tuple[list[tuple[Segment, list[TrackPoint]]], list[str]]:
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
    t, _, rf = pair_columns(pairs)
    tracks, warnings = filter_segments(segments, t, rf, indices, cfg)
    return [
        (tr.segment, [TrackPoint(ts, EnuPoint(s[0], s[1]), FilterState(s, P, ts))
                      for ts, s, P in zip(t[tr.rows].tolist(), tr.states, tr.covs)])
        for tr in tracks
    ], warnings
