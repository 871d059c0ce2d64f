"""Discrete extended Kalman filter run independently over each segment.

Predict with the segment's motion model over the actual inter-sample
interval, update with the RF position measurement. Covariance updates use
the Joseph form and are re-symmetrized after every step.

The filter runs batched: :func:`filter_segments` sweeps every segment of
a flight at once on ``(B, 7)`` states and ``(B, 7, 7)`` covariances in the
common layout :data:`motionmodels.LAYOUT`, whatever its motion model, and
a segment's result does not depend on the batch it ran in. The single-state
``predict`` and ``update`` of :mod:`uavtrack.objects` are batches of one
over the same step kernels, :func:`_predict_cov` and :func:`_update_step`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .dataio import Segment, segment_rows
from .metrics import euclidean_errors
from .motionmodels import (
    LAYOUT,
    ModelKind,
    noise_rows,
    process_noise_rows,
    propagate_rows,
    sigma_rows,
    state_mask,
)
from .records import record

# rad/s bound on a CT segment's turn-rate estimate, projected onto after each
# update (estimate projection, D. Simon, "Kalman filtering with state
# constraints", IET Control Theory & Applications 4(8), 2010); no workload
# turns faster than 0.5 rad/s
_OMEGA_MAX = 1.0

# measurement-noise estimates of estimate_R_arrays; "mean" is the paper's
R_MODES = ("mean", "mse")


class FilterError(ValueError):
    """Dimension mismatch or degenerate numerics in a filter step."""


@record
class FilterConfig:
    """Filter tuning shared across segments.

    ``R`` is the 2 x 2 measurement-noise covariance used by every
    segment, typically :func:`estimate_R_arrays` over the whole flight.
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


@record
class SegmentTrack:
    """One filtered segment: its rows of the filtered arrays and the EKF output there."""

    segment: Segment
    rows: slice
    states: np.ndarray  # (K_seg, n)
    covs: np.ndarray  # (K_seg, n, n)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.swapaxes(-1, -2))


def _predict_cov(F: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Time update of (B, n, n) covariances by the transition Jacobians ``F``."""
    return _symmetrize(F @ P @ F.swapaxes(1, 2) + Q)


def _update_step(s: np.ndarray, P: np.ndarray, z: np.ndarray, H: np.ndarray, R: np.ndarray):
    """Joseph-form measurement update of (B, n) states with (B, 2) fixes.

    ``H`` is the selector ``eye(2, n)`` of the two leading states, the
    position; it is applied by slicing, which gives the products with it
    exactly. Returns the updated states and covariances, the (B, 2, 2)
    innovation covariances S and a (B,) flag that is False where S is
    singular or not finite; the rows so flagged hold no usable estimate.

    The gain solves S^T K^T = (P H^T)^T by LAPACK, one system per row, so a
    row rounds exactly as a lone update and as the scalar filter it
    replaced. A closed-form 2 x 2 inverse rounds differently, and a badly
    tuned CT filter can grow that last-bit difference by a factor of about
    1e8 within 200 steps.
    """
    m, n = H.shape
    PHt = P[:, :, :m]
    S = PHt[:, :m] + R
    det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    ok = np.isfinite(det) & (det != 0.0)
    try:
        Kt = np.linalg.solve(S.swapaxes(1, 2), PHt.swapaxes(1, 2))
    except np.linalg.LinAlgError:  # some S has an exactly zero pivot: row by row
        Kt = np.full((len(S), m, n), np.nan)
        for i in np.flatnonzero(ok):
            try:
                Kt[i] = np.linalg.solve(S[i].T, PHt[i].T)
            except np.linalg.LinAlgError:  # det != 0 although a pivot is 0
                ok[i] = False
    K = Kt.swapaxes(1, 2)
    s = s + (K @ (z - s[:, :m])[:, :, None])[:, :, 0]
    ImKH = np.tile(np.eye(n), (len(s), 1, 1))
    ImKH[:, :, :m] -= K
    P = _symmetrize(ImKH @ P @ ImKH.swapaxes(1, 2) + K @ R @ K.swapaxes(1, 2))
    return s, P, S, ok


def check_r_mode(mode: str) -> None:
    """FilterError unless ``mode`` is one of :data:`R_MODES`."""
    if mode not in R_MODES:
        raise FilterError(f"unknown R mode: {mode!r}, expected one of {list(R_MODES)}")


def estimate_R_arrays(uav: np.ndarray, rf: np.ndarray, mode: str = "mean") -> np.ndarray:
    """Measurement-noise covariance from matched ``(K, 2)`` truth and RF positions.

    ``"mean"`` puts the mean Euclidean error (meters) on both diagonal
    entries; ``"mse"`` uses per-axis mean squared errors (meters^2).
    """
    check_r_mode(mode)
    if len(uav) == 0:
        raise FilterError("cannot estimate R from empty input")
    if mode == "mean":
        m = float(np.mean(euclidean_errors(uav, rf)))
        return np.diag([m, m])
    dx, dy = (rf - uav).T
    return np.diag([float(np.mean(dx**2)), float(np.mean(dy**2))])


def _initial_covariance(has: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """(B, 7, 7) diagonal priors of rows with state mask ``has``: 0 on a state a row lacks."""
    var = {"x": cfg.R[0, 0], "y": cfg.R[1, 1], "vx": cfg.v_max**2, "vy": cfg.v_max**2,
           "ax": cfg.accel_var, "ay": cfg.accel_var, "omega": cfg.omega_var}
    return np.where(has[:, :, None], np.diag([var[k] for k in LAYOUT]), 0.0)


def _run_batch(
    segs: Sequence[Segment], t_ms: np.ndarray, z: np.ndarray, slices: Sequence[slice],
    cfg: FilterConfig,
) -> list[Union[tuple[np.ndarray, np.ndarray], FilterError]]:
    """Filter segments of any models, each over its rows of ``t_ms`` (K,) and ``z`` (K, 2).

    Every segment needs at least two rows. It starts at its first fix with
    zero velocity (and acceleration / turn rate) under the prior of
    :func:`_initial_covariance`; a CT turn rate is clipped to
    ±``_OMEGA_MAX`` after each update. Sorted longest first, the segments
    still running at step k are a prefix of the batch, which each step
    predicts and updates in one array operation on the common layout.

    Returns, per segment in input order, its ``(K_seg, n)`` states and
    ``(K_seg, n, n)`` covariances, or the FilterError of its first bad
    step: a non-increasing timestamp, or else a singular innovation
    covariance. A failed segment steps on with the batch, its rows unread.
    """
    starts = np.array([sl.start for sl in slices], dtype=np.intp)
    lengths = np.array([sl.stop - sl.start for sl in slices], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    lengths, first = lengths[order], starts[order]
    B, L, n = len(segs), int(lengths.max(initial=0)), len(LAYOUT)
    n_active = (np.arange(L)[:, None] < lengths).sum(axis=1)
    index = {mm: m for m, mm in enumerate(ModelKind)}
    kind = np.array([index[segs[i].mm] for i in order], dtype=np.intp)
    has = state_mask(list(index))[kind]
    q = noise_rows(sigma_rows([segs[i].sigmas for i in order]), has)
    w, H = LAYOUT.index("omega"), np.eye(2, n)
    turn = has[:, w]
    # output rows: one model's segments together, each segment's rows in a block
    grouped = np.argsort(kind, kind="stable")
    base = np.empty(B, dtype=np.intp)
    base[grouped] = np.cumsum(lengths[grouped]) - lengths[grouped]
    states, covs = np.empty((lengths.sum(), n)), np.empty((lengths.sum(), n, n))

    # the rows of steps 1, ..., L - 1 back to back, each step's ending at its
    # entry of bounds: the batch position j of each running segment, its row
    # of t_ms and z, the step length, the process noise and the output row
    bounds = np.cumsum(n_active[1:])
    k = np.repeat(np.arange(1, L), n_active[1:])
    j = np.arange(len(k)) - np.repeat(bounds - n_active[1:], n_active[1:])
    at = first[j] + k
    T = (t_ms[at] - t_ms[at - 1]) / 1000.0
    Q, z_at, out_rows = process_noise_rows(T, q[j]), z[at], base[j] + k
    stalled = np.zeros(L, dtype=bool)  # steps with a non-increasing timestamp
    stalled[k[T <= 0]] = True

    s = np.zeros((B, n))
    s[:, :2] = z[first]
    P = _initial_covariance(has, cfg)
    states[base], covs[base] = s, P
    errors: list[Optional[FilterError]] = [None] * B  # in input order
    with np.errstate(all="ignore"):  # a failed row steps on unread
        for lo, hi, stall in zip([0, *bounds[:-1].tolist()], bounds.tolist(), stalled[1:].tolist()):
            b, Tk = hi - lo, T[lo:hi]
            f, F = propagate_rows(s[:b].T, Tk, turn[:b])
            P = _predict_cov(F, P[:b], Q[lo:hi])
            s, P, S, ok = _update_step(f.T, P, z_at[lo:hi], H, cfg.R)
            np.clip(s[:, w], -_OMEGA_MAX, _OMEGA_MAX, out=s[:, w], where=turn[:b])
            if stall or not ok.all():
                for i in np.flatnonzero(~ok | (Tk <= 0)).tolist():
                    if errors[order[i]] is None:
                        errors[order[i]] = FilterError(
                            f"non-increasing timestamps at {t_ms[at[lo + i]]}" if Tk[i] <= 0
                            else f"singular innovation covariance: {S[i]}"
                        )
            states[out_rows[lo:hi]], covs[out_rows[lo:hi]] = s, P

    out: list = list(errors)
    for mm, m in index.items():  # the model's columns of all its segments at once
        mine = grouped[kind[grouped] == m]
        if len(mine):
            c, lo = mm.columns, base[mine[0]]
            rows = slice(lo, base[mine[-1]] + lengths[mine[-1]])
            mm_states, mm_covs = states[rows][:, c], covs[rows][:, c[:, None], c]
            offset = base[mine] - lo
            for i, a, e in zip(order[mine].tolist(), offset.tolist(), (offset + lengths[mine]).tolist()):
                out[i] = errors[i] or (mm_states[a:e], mm_covs[a:e])
    return out


def filter_segments(
    segments: Sequence[Segment],
    t_ms: np.ndarray,
    z: np.ndarray,
    indices: np.ndarray,
    cfg: FilterConfig,
) -> tuple[list[SegmentTrack], list[str]]:
    """Run each segment independently over the fixes ``z`` (K, 2) at ``t_ms`` (K,).

    ``indices`` (K,), strictly ascending, gives each row's RF-log row, the
    index space of the segments. Returns the tracked segments and the
    warning messages, both in ``start_idx`` order; a segment with fewer
    than two rows or a failed filter step warns and is omitted.
    """
    ordered = sorted(segments, key=lambda s: s.start_idx)
    slices = segment_rows(ordered, indices)

    run = [i for i, sl in enumerate(slices) if sl.stop - sl.start >= 2]
    outcome = dict(zip(run, _run_batch([ordered[i] for i in run], t_ms, z, [slices[i] for i in run], cfg)))

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
