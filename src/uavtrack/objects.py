"""The per-sample object API: one frozen dataclass per sample, fix or filter step.

Every CLI command runs on the pipeline modules' columnar data path:
integer timestamps and ``(K, 2)`` float positions. Each name here is a
thin wrapper over one of their array kernels, for callers that hold
objects instead, and gives that kernel's values. No command imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataio import DEFAULT_CLEAN_THRESHOLD_M, Segment, kept_mask, match_times
from .ekf import FilterConfig, FilterError, _predict_cov, _update_step, estimate_R_arrays, filter_segments
from .geodesy import EnuPoint
from .metrics import CdfCurve, MetricsError, euclidean_errors
from .motionmodels import (
    ModelError, ModelKind, NoiseSigmas, noise_rows, process_noise_rows, propagate_batch, sigma_rows, state_mask,
)
from .tdoa import (
    SPEED_OF_LIGHT, GeometryError, SensorArray, _arrival_differences, _fixes, _impossible, _range_residuals,
    simulate_columns,
)
from .trajgen import LegSpec, truth_columns


# dataio: samples and aligned pairs
@dataclass(frozen=True)
class TimedSample:
    t_ms: int
    pos: EnuPoint


@dataclass(frozen=True)
class AlignedPair:
    t_ms: int
    uav: EnuPoint
    rf: EnuPoint

    def error_m(self) -> float:
        return float(euclidean_errors([self.uav], [self.rf])[0])


def sample_columns(samples: Sequence[TimedSample]) -> tuple[np.ndarray, np.ndarray]:
    """``t_ms`` (K,) and local ``xy`` (K, 2) columns of timed samples."""
    t_ms = np.array([s.t_ms for s in samples], dtype=np.int64)
    return t_ms, np.array([(s.pos.x, s.pos.y) for s in samples], dtype=float).reshape(-1, 2)


def timed_samples(t_ms: np.ndarray, xy: np.ndarray) -> list[TimedSample]:
    """One :class:`TimedSample` per row of ``t_ms`` (K,) and local ``xy`` (K, 2)."""
    return [TimedSample(t, EnuPoint(x, y)) for t, (x, y) in zip(t_ms.tolist(), xy.tolist())]


def pair_columns(pairs: Sequence[AlignedPair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``t_ms`` (K,), truth ``uav`` (K, 2) and ``rf`` (K, 2) columns of aligned pairs."""
    t_ms = np.array([p.t_ms for p in pairs], dtype=np.int64)
    uav = np.array([(p.uav.x, p.uav.y) for p in pairs], dtype=float).reshape(-1, 2)
    rf = np.array([(p.rf.x, p.rf.y) for p in pairs], dtype=float).reshape(-1, 2)
    return t_ms, uav, rf


def align(uav: Sequence[TimedSample], rf: Sequence[TimedSample], tol_ms: int = 1) -> list[AlignedPair]:
    """:func:`dataio.match_times` over in-memory samples, sorted by time and in the local frame."""
    rf_idx, uav_idx = match_times([s.t_ms for s in uav], [s.t_ms for s in rf], tol_ms)
    return [AlignedPair(rf[i].t_ms, uav=uav[j].pos, rf=rf[i].pos) for i, j in zip(rf_idx, uav_idx)]


def clean(pairs: Sequence[AlignedPair], threshold_m: float = DEFAULT_CLEAN_THRESHOLD_M) -> list[AlignedPair]:
    """Drop pairs whose localization error is strictly above ``threshold_m``."""
    _, uav, rf = pair_columns(pairs)
    return [p for p, keep in zip(pairs, kept_mask(uav, rf, threshold_m).tolist()) if keep]


# motionmodels: one state's transition, Jacobian and process noise
def _check_state(mm: ModelKind, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (mm.state_dim,):
        raise ModelError(f"{mm.value} expects state of length {mm.state_dim}, got shape {s.shape}")
    return s


def _check_dt(T: float) -> float:
    if not T > 0:
        raise ModelError(f"time step must be positive, got {T}")
    return float(T)


def transition(mm: ModelKind, s: Sequence[float], T: float) -> np.ndarray:
    """Propagate state ``s`` over ``T`` seconds under model ``mm``."""
    s = _check_state(mm, s)
    return propagate_batch(mm, s[None], np.array([_check_dt(T)]))[0][0]


def jacobian(mm: ModelKind, s: Sequence[float], T: float) -> np.ndarray:
    """Transition Jacobian df/ds evaluated at ``s``."""
    s = _check_state(mm, s)
    return propagate_batch(mm, s[None], np.array([_check_dt(T)]))[1][0]


def process_noise(mm: ModelKind, T: float, sig: NoiseSigmas) -> np.ndarray:
    """Process-noise covariance Q for one step of length ``T`` (:func:`motionmodels.process_noise_rows`)."""
    cols = mm.columns
    Q = process_noise_rows(np.array([_check_dt(T)]), noise_rows(sigma_rows([sig]), state_mask([mm])))
    return Q[0][cols[:, None], cols]


# ekf: single filter steps and tracks of objects
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


def predict(fs: FilterState, mm: ModelKind, T: float, Q: np.ndarray) -> FilterState:
    """Time update: propagate mean and covariance over ``T`` seconds."""
    n = mm.state_dim
    Q = np.asarray(Q, dtype=float)
    if fs.s.shape != (n,) or fs.P.shape != (n, n) or Q.shape != (n, n):
        raise FilterError(f"inconsistent dimensions for {mm.value}: s{fs.s.shape} P{fs.P.shape} Q{Q.shape}")
    s, F = propagate_batch(mm, fs.s[None], np.array([_check_dt(T)]))
    return FilterState(s[0], _predict_cov(F, fs.P[None], Q[None])[0], fs.t_ms + round(T * 1000))


def update(fs_pred: FilterState, z: EnuPoint, meas: MeasurementModel) -> FilterState:
    """Measurement update with the RF position fix (Joseph form)."""
    H, R, n = np.asarray(meas.H, dtype=float), np.asarray(meas.R, dtype=float), fs_pred.s.shape[0]
    if H.shape != (2, n) or R.shape != (2, 2):
        raise FilterError(f"inconsistent measurement dimensions: H{H.shape} R{R.shape}")
    with np.errstate(all="ignore"):
        s, P, S, ok = _update_step(
            np.asarray(fs_pred.s, dtype=float)[None], fs_pred.P[None], np.array([[z.x, z.y]]), H, R
        )
    if not ok[0]:
        raise FilterError(f"singular innovation covariance: {S[0]}")
    return FilterState(s[0], P[0], fs_pred.t_ms)


def estimate_R(pairs: Sequence[AlignedPair], mode: str = "mean") -> np.ndarray:
    """:func:`ekf.estimate_R_arrays` over aligned pairs."""
    _, uav, rf = pair_columns(pairs)
    return estimate_R_arrays(uav, rf, mode)


def run_trajectory(
    segments: Sequence[Segment], pairs: Sequence[AlignedPair], cfg: FilterConfig,
    indices: Optional[Sequence[int]] = None,
) -> tuple[list[tuple[Segment, list[TrackPoint]]], list[str]]:
    """Run each segment independently; no state carries across segments.

    ``indices`` maps each pair to its RF-log row, the index space of the
    segments (identity when every RF fix is paired and kept); it must be
    strictly ascending and as long as ``pairs``, else ValueError.
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


# tdoa: single measurements and fixes, flights as sample lists
@dataclass(frozen=True)
class TdoaMeasurement:
    t_ms: int
    deltas: tuple  # ((sensor_idx, delta_tau_seconds), ...), reference excluded


@dataclass(frozen=True)
class TdoaFix:
    pos: EnuPoint
    residual_m: float  # RMS range-difference residual at the solution
    converged: bool


def simulate_tdoa(arr: SensorArray, p: EnuPoint, sigma_t: float, rng: np.random.Generator, t_ms: int = 0
                  ) -> TdoaMeasurement:
    """Arrival-time differences for an emitter at ``p`` with i.i.d. Gaussian jitter."""
    if not sigma_t >= 0:
        raise ValueError(f"sigma_t must be >= 0, got {sigma_t}")
    m = arr.positions.shape[0] - 1
    jitter = rng.normal(0.0, sigma_t, size=m) if sigma_t > 0 else np.zeros(m)
    idx, dt = _arrival_differences(arr, np.array([[p.x, p.y]]), jitter)
    return TdoaMeasurement(t_ms, tuple(zip(idx, dt[0].tolist())))


def _range_differences(meas: Sequence[TdoaMeasurement]) -> tuple[list[int], np.ndarray]:
    """Sensor indices and range differences c*dtau, shape (E, m), of measurements over one sensor set."""
    idx = [i for i, _ in meas[0].deltas]
    rd = np.array([[dt for _, dt in m.deltas] for m in meas], dtype=float).reshape(len(meas), len(idx))
    return idx, SPEED_OF_LIGHT * rd


def cost(arr: SensorArray, m: TdoaMeasurement, p: EnuPoint) -> float:
    """Sum of squared range-difference residuals at ``p``."""
    idx, rd = _range_differences([m])
    pos = arr.positions
    r = _range_residuals(pos[idx], pos[arr.reference_idx], rd.T, np.array([[p.x], [p.y]]))[0]
    return float(np.sum(r * r))


def solve_position(arr: SensorArray, m: TdoaMeasurement, init: EnuPoint) -> TdoaFix:
    """Gauss-Newton minimizer of the range-difference least-squares cost.

    The cost has spurious local minima near the array edge, so descent
    also starts from points between each sensor and the centroid, and the
    lowest-cost minimum wins; see :func:`tdoa._solve_batch`. Fewer than two
    deltas raise :class:`GeometryError`, and so does a rank-deficient
    Jacobian at every start, with its cause: a range difference at or above
    its sensor baseline (see :func:`tdoa._impossible`) or collinear geometry.
    """
    if len(m.deltas) < 2:
        raise GeometryError(f"need at least 2 deltas for a 2-D fix, got {len(m.deltas)}")
    idx, rd = _range_differences([m])  # an EnuPoint ``init`` is finite
    points, rms, converged = _fixes(arr, idx, rd, np.array([[init.x, init.y]], dtype=float))
    if np.isnan(points[0, 0]):
        if _impossible(arr, idx, rd)[0]:
            raise GeometryError("range difference exceeds sensor baseline: rank-deficient at every start")
        raise GeometryError("rank-deficient geometry at every start (collinear sensors?)")
    return TdoaFix(EnuPoint(*points[0].tolist()), float(rms[0]), bool(converged[0]))


def simulate_flight(
    truth: Sequence[TimedSample], arr: Optional[SensorArray], sigma_t: float, rng_seed: int,
    decimate_ms: Optional[int] = None, outlier_rate: float = 0.0, outlier_max_m: float = 200.0,
) -> tuple[list[TimedSample], int]:
    """Run the TDoA measurement chain over a ground-truth flight.

    :func:`tdoa.simulate_columns` with the sensor array ``arr`` and timing
    jitter ``sigma_t``, over and into sample lists; ``decimate_ms`` keeps
    only epochs on that grid (~1 Hz sensor rate). With ``arr`` None,
    ``sigma_t`` is the position noise in meters per axis instead.
    """
    t_ms, xy, dropped = simulate_columns(
        *sample_columns(truth), sigma_t, rng_seed, decimate_ms, outlier_rate, outlier_max_m, arr=arr
    )
    return timed_samples(t_ms, xy), dropped


def position_noise_flight(
    truth: Sequence[TimedSample], sigma_m: float, rng_seed: int, decimate_ms: int, outlier_rate: float,
    outlier_max_m: float,
) -> tuple[list[TimedSample], int]:
    """Direct position-noise measurement model that bypasses the TDoA chain.

    :func:`simulate_flight` with no sensor array: each fix is the true
    position plus i.i.d. Gaussian noise of ``sigma_m`` per axis.
    """
    return simulate_flight(truth, None, sigma_m, rng_seed, decimate_ms, outlier_rate, outlier_max_m)


# trajgen and metrics: truth as samples, CDF quantiles
def generate_truth(
    legs: Sequence[LegSpec], start: EnuPoint = EnuPoint(0.0, 0.0), heading_deg: float = 0.0,
    speed: float = 10.0, dt_ms: int = 100,
) -> tuple[list[TimedSample], list[tuple[LegSpec, int, int]]]:
    """:func:`trajgen.truth_columns` as one :class:`TimedSample` per sample."""
    t_ms, xy, boundaries = truth_columns(legs, start, heading_deg, speed, dt_ms)
    return timed_samples(t_ms, xy), boundaries


def quantile(curve: CdfCurve, q: float) -> float:
    """Smallest error e with F(e) >= q (right-continuous inverse)."""
    if not 0.0 < q <= 1.0:
        raise MetricsError(f"quantile level must be in (0, 1], got {q}")
    idx = int(np.searchsorted(curve.fractions, q - 1e-12))
    return float(curve.errors_m[min(idx, curve.errors_m.size - 1)])
