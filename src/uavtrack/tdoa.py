"""TDoA multilateration: forward measurement simulation and inverse solver.

Open stand-in for a proprietary geolocation chain: a passive sensor array
observes arrival-time differences relative to a reference sensor, and a
Gauss-Newton solver recovers the 2-D emitter position from the
range-difference least-squares cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .dataio import TimedSample
from .geodesy import EnuPoint

log = logging.getLogger(__name__)

_M = TypeVar("_M")  # one epoch's measurement

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


def _range_differences(meas: Sequence[TdoaMeasurement]) -> tuple[list[int], np.ndarray]:
    """Sensor indices and range differences c*dtau, shape (E, m), of measurements over one sensor set."""
    idx = [i for i, _ in meas[0].deltas]
    rd = np.array([[dt for _, dt in m.deltas] for m in meas], dtype=float).reshape(len(meas), len(idx))
    return idx, SPEED_OF_LIGHT * rd


def _distances(sensors: np.ndarray, ref: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances from points p (N, 2) to each sensor (N, m) and to the reference (N,)."""
    d = np.hypot(p[:, None, 0] - sensors[:, 0], p[:, None, 1] - sensors[:, 1])
    return d, np.hypot(p[:, 0] - ref[0], p[:, 1] - ref[1])


def _range_residuals(sensors: np.ndarray, ref: np.ndarray, rd: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Residuals rd - (|p - s_k| - |p - s_ref|) in meters, for points p (N, 2) and rd (N, m)."""
    d, d_ref = _distances(sensors, ref, p)
    return rd - (d - d_ref[:, None])


def _unit(v: np.ndarray) -> np.ndarray:
    """Unit vectors along v (..., 2); zero where v is zero (p on a sensor)."""
    d = np.hypot(v[..., 0], v[..., 1])
    return v / np.where(d > 0, d, 1.0)[..., None]


def _jacobian(sensors: np.ndarray, ref: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d residual / d p, shape (N, m, 2): u_ref - u_k for unit vectors u from each sensor to p."""
    return _unit(p - ref)[:, None, :] - _unit(p[:, None, :] - sensors)


def cost(arr: SensorArray, m: TdoaMeasurement, p: EnuPoint) -> float:
    """Sum of squared range-difference residuals at ``p``."""
    idx, rd = _range_differences([m])
    r = _range_residuals(arr.positions[idx], arr.positions[arr.reference_idx], rd, np.array([[p.x, p.y]]))
    return float(np.sum(r * r))


def _solve_batch(
    sensors: np.ndarray, ref: np.ndarray, rd: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multi-start Gauss-Newton over every epoch and start at once.

    ``rd`` (E, m) holds each epoch's range differences to ``sensors``
    (m, 2) against ``ref``, and ``starts`` (E, S, 2) its start points.
    Every epoch x start descends on its own: a thin SVD of the Jacobian
    gives the rank test and the least-squares step, and step halving (at
    most 25 halvings) enforces descent. An element leaves the active set
    when its Jacobian is rank-deficient (the start is then excluded), when
    its accepted step is below 1e-6 m (converged), when its halving runs
    out (converged if at the floating-point floor of the cost, see below)
    or after 100 iterations (not converged). Per epoch the lowest-cost
    start wins, the first on a tie.

    Returns per epoch the winning point (E, 2), its cost (E,), converged
    flag (E,) and start index (E,), which is -1 where every start was
    rank-deficient.
    """
    n_epochs, n_starts, _ = starts.shape
    rd = np.repeat(rd, n_starts, axis=0)
    p = starts.reshape(-1, 2).astype(float)
    r = _range_residuals(sensors, ref, rd, p)
    c = np.sum(r * r, axis=1)
    converged = np.zeros(c.shape, dtype=bool)
    usable = np.full(c.shape, rd.shape[1] >= 2)  # rank(J) <= m
    active = np.flatnonzero(usable)
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        U, sv, Vt = np.linalg.svd(_jacobian(sensors, ref, p[active]), full_matrices=False)
        full_rank = sv[:, -1] >= 1e-9 * np.maximum(sv[:, 0], 1.0)
        usable[active[~full_rank]] = False
        active, U, sv, Vt = active[full_rank], U[full_rank], sv[full_rank], Vt[full_rank]
        g = np.sum(U * r[active, :, None], axis=1)  # U^T r
        step = -np.sum((g / sv)[:, :, None] * Vt, axis=1)  # least-squares solution of J step = -r

        trying = np.arange(active.size)
        for _ in range(_MAX_HALVINGS):
            e = active[trying]
            trial = p[e] + step[trying]
            r_trial = _range_residuals(sensors, ref, rd[e], trial)
            c_trial = np.sum(r_trial * r_trial, axis=1)
            ok = c_trial <= c[e]
            e_ok = e[ok]
            p[e_ok], r[e_ok], c[e_ok] = trial[ok], r_trial[ok], c_trial[ok]
            trying = trying[~ok]
            if trying.size == 0:
                break
            step[trying] *= 0.5

        stalled = np.zeros(active.size, dtype=bool)
        stalled[trying] = True
        small = np.hypot(step[:, 0], step[:, 1]) < _STEP_TOL_M
        converged[active] = small & ~stalled
        # Halving runs out at the floating-point floor of the cost: each
        # residual cancels distances, so it is off by up to about
        # 2 eps (d_k + d_ref) and the cost by 4 eps sum |r_k| (d_k + d_ref).
        # A start is at its minimum as closely as the cost can tell when the
        # decrease the Gauss-Newton model predicts for the full step, |U^T r|^2
        # (the gradient J^T r in the (J^T J)^-1 norm), is below that.
        e = active[stalled]
        d, d_ref = _distances(sensors, ref, p[e])
        floor = 4.0 * np.finfo(float).eps * np.sum(np.abs(r[e]) * (d + d_ref[:, None]), axis=1)
        converged[e] = np.sum(g[stalled] ** 2, axis=1) <= floor
        active = active[~(stalled | small)]

    best = np.argmin(np.where(usable, c, np.inf).reshape(n_epochs, n_starts), axis=1)
    k = np.arange(n_epochs) * n_starts + best
    best = np.where(usable[k], best, -1)
    return p[k], c[k], converged[k], best


def _starts(arr: SensorArray, init: np.ndarray) -> np.ndarray:
    """Start points (E, 1 + n, 2): each epoch's ``init`` (E, 2), then a
    point a quarter of the way from each sensor to the centroid."""
    pos = arr.positions
    sensor_starts = pos + 0.25 * (pos.mean(axis=0) - pos)
    return np.concatenate([init[:, None, :], np.broadcast_to(sensor_starts, (len(init),) + pos.shape)], axis=1)


def _fixes(arr: SensorArray, idx: list[int], rd: np.ndarray, init: np.ndarray) -> list[Optional[TdoaFix]]:
    """Solve epochs ``rd`` (E, m) over sensors ``idx``, each from :func:`_starts`.

    None marks an epoch at which every start is rank-deficient.
    """
    pos = arr.positions
    points, costs, converged, best = _solve_batch(pos[idx], pos[arr.reference_idx], rd, _starts(arr, init))
    rms = np.sqrt(costs / len(idx))
    fixes: list[Optional[TdoaFix]] = []
    for p, res, ok, b in zip(points, rms, converged, best):
        if b < 0:
            fixes.append(None)
            continue
        if not ok:
            log.warning("Gauss-Newton did not converge, returning best iterate")
        fixes.append(TdoaFix(EnuPoint(float(p[0]), float(p[1])), float(res), bool(ok)))
    return fixes


def solve_position(arr: SensorArray, m: TdoaMeasurement, init: EnuPoint) -> TdoaFix:
    """Gauss-Newton minimizer of the range-difference least-squares cost.

    The cost has spurious local minima near the array edge, so descent
    also starts from points between each sensor and the centroid, and the
    lowest-cost minimum wins; see :func:`_solve_batch`. Fewer than two
    deltas or collinear geometry raise :class:`GeometryError`.
    """
    if len(m.deltas) < 2:
        raise GeometryError(f"need at least 2 deltas for a 2-D fix, got {len(m.deltas)}")
    p0 = np.array([init.x, init.y], dtype=float)
    if not np.all(np.isfinite(p0)):
        raise ValueError(f"non-finite initialization: {init}")
    idx, rd = _range_differences([m])
    fix = _fixes(arr, idx, rd, p0[None])[0]
    if fix is None:
        raise GeometryError("rank-deficient geometry at every start (collinear sensors?)")
    return fix


def _epoch_rng(seed: int, t_ms: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, t_ms]))


def _simulate_epochs(
    truth: Sequence[TimedSample],
    measure: Callable[[TimedSample, np.random.Generator], _M],
    locate: Callable[[list[_M]], list[Optional[EnuPoint]]],
    rng_seed: int,
    decimate_ms: Optional[int],
    outlier_rate: float,
    outlier_max_m: float,
) -> tuple[list[TimedSample], int]:
    """Measurement loop shared by every noise model.

    ``decimate_ms`` first picks the epoch grid: every truth sample at least
    that far after the previous grid epoch (every sample when None), so a
    dropped epoch leaves a gap and never shifts the grid. Each epoch gets
    its own RNG stream from ``(rng_seed, t_ms)``, so results are
    order-independent and repeatable. From it, ``measure(sample, rng)``
    draws the epoch's measurement, then ``outlier_rate`` decides on a
    uniform-in-disk position glitch emulating a foreign RF source.
    ``locate(measurements)`` turns all measurements into position fixes at
    once, None to drop an epoch. Returns (estimate samples, dropped epoch
    count).
    """
    if not truth:
        raise ValueError("empty ground-truth trajectory")
    epochs: list[TimedSample] = []
    for s in truth:
        if decimate_ms is None or not epochs or s.t_ms - epochs[-1].t_ms >= decimate_ms:
            epochs.append(s)
    measurements: list[_M] = []
    glitches: list[Optional[tuple[float, float]]] = []
    for s in epochs:
        rng = _epoch_rng(rng_seed, s.t_ms)
        measurements.append(measure(s, rng))
        glitch = None
        if outlier_rate > 0 and rng.random() < outlier_rate:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            radius = outlier_max_m * np.sqrt(rng.random())
            glitch = (radius * np.cos(theta), radius * np.sin(theta))
        glitches.append(glitch)

    out: list[TimedSample] = []
    dropped = 0
    for s, pos, glitch in zip(epochs, locate(measurements), glitches):
        if pos is None:
            log.warning("epoch %d: rank-deficient geometry at every start, dropping", s.t_ms)
            dropped += 1
            continue
        if glitch is not None:
            pos = EnuPoint(pos.x + glitch[0], pos.y + glitch[1])
        out.append(TimedSample(s.t_ms, pos))
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

    Simulates a TDoA measurement per epoch, then solves every epoch in one
    batched multi-start descent, each from the array centroid and the
    sensor starts (no warm start from the previous fix). ``decimate_ms``
    keeps only epochs on that grid (~1 Hz sensor rate). See
    :func:`_simulate_epochs` for the grid, outliers, RNG streams and the
    result.
    """

    def measure(s: TimedSample, rng: np.random.Generator) -> TdoaMeasurement:
        return simulate_tdoa(arr, s.pos, sigma_t, rng, t_ms=s.t_ms)

    def locate(meas: list[TdoaMeasurement]) -> list[Optional[EnuPoint]]:
        idx, rd = _range_differences(meas)
        init = np.tile(arr.positions.mean(axis=0), (len(meas), 1))
        return [None if fix is None else fix.pos for fix in _fixes(arr, idx, rd, init)]

    return _simulate_epochs(truth, measure, locate, rng_seed, decimate_ms, outlier_rate, outlier_max_m)


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

    def measure(s: TimedSample, rng: np.random.Generator) -> EnuPoint:
        return EnuPoint(s.pos.x + rng.normal(0.0, sigma_m), s.pos.y + rng.normal(0.0, sigma_m))

    def locate(fixes: list[EnuPoint]) -> list[Optional[EnuPoint]]:
        return list(fixes)

    return _simulate_epochs(truth, measure, locate, rng_seed, decimate_ms, outlier_rate, outlier_max_m)
