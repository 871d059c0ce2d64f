"""TDoA multilateration: forward measurement simulation and inverse solver.

Open stand-in for a proprietary geolocation chain: a passive sensor array
observes arrival-time differences relative to a reference sensor, and a
Gauss-Newton solver recovers the 2-D emitter position from the
range-difference least-squares cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dataio import TimedSample
from .geodesy import EnuPoint

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0

_MAX_ITER = 100
_STEP_TOL_M = 1e-6
_MAX_HALVINGS = 25


class GeometryError(ValueError):
    """Sensor geometry cannot support a 2-D fix."""


class ArrayError(ValueError):
    """Invalid sensor-array definition."""


@dataclass(frozen=True)
class SensorArray:
    positions: np.ndarray  # (n, 2) east/north meters
    reference_idx: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        # 2 sensors can still produce a measurement; a 2-D fix needs >= 3
        # (enforced in solve_position)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise ArrayError(f"need at least 2 sensors with (x, y) positions, got shape {pos.shape}")
        if not 0 <= self.reference_idx < pos.shape[0]:
            raise ArrayError(f"reference index {self.reference_idx} out of range")
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() < 1.0:
            raise ArrayError("sensors closer than 1 m: degenerate geometry")

    @property
    def centroid(self) -> EnuPoint:
        c = self.positions.mean(axis=0)
        return EnuPoint(float(c[0]), float(c[1]))


@dataclass(frozen=True)
class TdoaMeasurement:
    t_ms: int
    deltas: tuple  # ((sensor_idx, delta_tau_seconds), ...), reference excluded


@dataclass(frozen=True)
class TdoaFix:
    pos: EnuPoint
    residual_m: float  # RMS range-difference residual at the solution
    converged: bool


def simulate_tdoa(
    arr: SensorArray,
    p: EnuPoint,
    sigma_t: float,
    rng: np.random.Generator,
    t_ms: int = 0,
) -> TdoaMeasurement:
    """Arrival-time differences for an emitter at ``p`` with i.i.d. Gaussian jitter."""
    if sigma_t < 0:
        raise ValueError(f"sigma_t must be >= 0, got {sigma_t}")
    target = np.array([p.x, p.y])
    dists = np.linalg.norm(arr.positions - target, axis=1)
    ref = arr.reference_idx
    deltas = []
    for i in range(arr.positions.shape[0]):
        if i == ref:
            continue
        dt = (dists[i] - dists[ref]) / SPEED_OF_LIGHT
        if sigma_t > 0:
            dt += rng.normal(0.0, sigma_t)
        deltas.append((i, dt))
    return TdoaMeasurement(t_ms, tuple(deltas))


def _residuals(arr: SensorArray, m: TdoaMeasurement, p: np.ndarray) -> np.ndarray:
    """Range-difference residuals c*dtau - (|p - s_i| - |p - s_ref|), meters."""
    ref = arr.positions[arr.reference_idx]
    d_ref = np.linalg.norm(p - ref)
    out = np.empty(len(m.deltas))
    for k, (i, dtau) in enumerate(m.deltas):
        out[k] = SPEED_OF_LIGHT * dtau - (np.linalg.norm(p - arr.positions[i]) - d_ref)
    return out


def cost(arr: SensorArray, m: TdoaMeasurement, p: EnuPoint) -> float:
    """Sum of squared range-difference residuals at ``p``."""
    r = _residuals(arr, m, np.array([p.x, p.y]))
    return float(r @ r)


def _descend(arr: SensorArray, m: TdoaMeasurement, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Gauss-Newton descent from one start; returns (point, residuals, converged)."""
    ref = arr.positions[arr.reference_idx]
    converged = False
    r = _residuals(arr, m, p)
    for _ in range(_MAX_ITER):
        d_ref = np.linalg.norm(p - ref)
        u_ref = (p - ref) / d_ref if d_ref > 0 else np.zeros(2)
        J = np.empty((len(m.deltas), 2))
        for k, (i, _) in enumerate(m.deltas):
            d_i = np.linalg.norm(p - arr.positions[i])
            u_i = (p - arr.positions[i]) / d_i if d_i > 0 else np.zeros(2)
            J[k] = -(u_i - u_ref)  # d residual / d p

        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < 1e-9 * max(sv[0], 1.0):
            raise GeometryError("rank-deficient geometry at iterate (collinear sensors?)")

        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        c0 = float(r @ r)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            trial = p + step
            r_trial = _residuals(arr, m, trial)
            if float(r_trial @ r_trial) <= c0:
                p, r = trial, r_trial
                accepted = True
                break
            step = 0.5 * step
        if not accepted:
            break
        if np.linalg.norm(step) < _STEP_TOL_M:
            converged = True
            break
    return p, r, converged


def solve_position(arr: SensorArray, m: TdoaMeasurement, init: EnuPoint) -> TdoaFix:
    """Gauss-Newton minimizer of the range-difference least-squares cost.

    Step halving enforces descent; convergence when the accepted step is
    below 1e-6 m. The cost has spurious local minima near the array edge,
    so descent restarts from points between each sensor and the centroid
    and the lowest-cost minimum wins. Collinear geometry raises
    :class:`GeometryError`.
    """
    if len(m.deltas) < 2:
        raise GeometryError(f"need at least 2 deltas for a 2-D fix, got {len(m.deltas)}")
    p0 = np.array([init.x, init.y], dtype=float)
    if not np.all(np.isfinite(p0)):
        raise ValueError(f"non-finite initialization: {init}")

    c = np.array([arr.centroid.x, arr.centroid.y])
    starts = [p0] + [s + 0.25 * (c - s) for s in arr.positions]
    best = None
    error: Optional[GeometryError] = None
    for start in starts:
        try:
            p, r, converged = _descend(arr, m, np.array(start, dtype=float))
        except GeometryError as exc:
            error = exc
            continue
        cost_val = float(r @ r)
        if best is None or cost_val < best[0]:
            best = (cost_val, p, r, converged)
        if cost_val < 1e-12:
            break
    if best is None:
        raise error if error is not None else GeometryError("no usable start point")
    _, p, r, converged = best
    if not converged:
        log.warning("Gauss-Newton did not converge, returning best iterate")
    rms = float(np.sqrt(np.mean(r**2)))
    return TdoaFix(EnuPoint(float(p[0]), float(p[1])), rms, converged)


def _epoch_rng(seed: int, t_ms: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, t_ms]))


def _simulate_epochs(
    truth: Sequence[TimedSample],
    measure: Callable[[TimedSample, np.random.Generator, Optional[EnuPoint]], EnuPoint],
    rng_seed: int,
    decimate_ms: Optional[int],
    outlier_rate: float,
    outlier_max_m: float,
) -> tuple[list[TimedSample], int]:
    """Measurement loop shared by every noise model.

    ``measure(sample, rng, prev_fix)`` returns one position fix for a truth
    sample, warm-started from the previous fix (None on the first epoch),
    or raises :class:`GeometryError` to drop the epoch. ``decimate_ms``
    keeps only epochs at least that far after the last kept one.
    ``outlier_rate`` injects uniform-in-disk position glitches emulating
    foreign RF sources. Per-epoch RNG streams are derived from
    ``(rng_seed, t_ms)``, so results are order-independent and repeatable.
    Returns (estimate samples, dropped epoch count).
    """
    if not truth:
        raise ValueError("empty ground-truth trajectory")
    out: list[TimedSample] = []
    dropped = 0
    fix = None
    last_kept = None
    for s in truth:
        if decimate_ms is not None:
            if last_kept is not None and s.t_ms - last_kept < decimate_ms:
                continue
        rng = _epoch_rng(rng_seed, s.t_ms)
        try:
            fix = measure(s, rng, fix)
        except GeometryError as exc:
            log.warning("epoch %d: %s, dropping", s.t_ms, exc)
            dropped += 1
            continue
        pos = fix
        if outlier_rate > 0 and rng.random() < outlier_rate:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            radius = outlier_max_m * np.sqrt(rng.random())
            pos = EnuPoint(pos.x + radius * np.cos(theta), pos.y + radius * np.sin(theta))
        out.append(TimedSample(s.t_ms, pos))
        last_kept = s.t_ms
    return out, dropped


def simulate_flight(
    truth: Sequence[TimedSample],
    arr: SensorArray,
    sigma_t: float,
    rng_seed: int,
    decimate_ms: Optional[int] = None,
    outlier_rate: float = 0.0,
    outlier_max_m: float = 200.0,
) -> tuple[list[TimedSample], int]:
    """Run the TDoA measurement chain over a ground-truth flight.

    Per epoch: simulate a TDoA measurement, then solve for position with
    the previous solution as the initialization (array centroid first).
    ``decimate_ms`` keeps only epochs on that grid (~1 Hz sensor rate).
    See :func:`_simulate_epochs` for outliers, RNG streams and the result.
    """

    def measure(s: TimedSample, rng: np.random.Generator, prev: Optional[EnuPoint]) -> EnuPoint:
        meas = simulate_tdoa(arr, s.pos, sigma_t, rng, t_ms=s.t_ms)
        return solve_position(arr, meas, arr.centroid if prev is None else prev).pos

    return _simulate_epochs(truth, measure, rng_seed, decimate_ms, outlier_rate, outlier_max_m)


def position_noise_flight(
    truth: Sequence[TimedSample],
    sigma_m: float,
    rng_seed: int,
    decimate_ms: int,
    outlier_rate: float,
    outlier_max_m: float,
) -> tuple[list[TimedSample], int]:
    """Direct position-noise measurement model that bypasses the TDoA chain.

    Each fix is the true position plus i.i.d. Gaussian noise of ``sigma_m``
    per axis; otherwise as :func:`simulate_flight`.
    """

    def measure(s: TimedSample, rng: np.random.Generator, prev: Optional[EnuPoint]) -> EnuPoint:
        return EnuPoint(s.pos.x + rng.normal(0.0, sigma_m), s.pos.y + rng.normal(0.0, sigma_m))

    return _simulate_epochs(truth, measure, rng_seed, decimate_ms, outlier_rate, outlier_max_m)
