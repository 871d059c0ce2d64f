"""TDoA multilateration: forward measurement simulation and inverse solver.

Open stand-in for a proprietary geolocation chain: a passive sensor array
observes arrival-time differences relative to a reference sensor, and a
Gauss-Newton solver recovers the 2-D emitter position from the
range-difference least-squares cost.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataio import TimedSample, sample_columns, timed_samples
from .geodesy import MAX_RANGE_M, EnuPoint

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


def _arrival_differences(
    arr: SensorArray, xy: np.ndarray, jitter: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """Sensor indices and arrival-time differences (E, m) for emitters at ``xy`` (E, 2).

    Each row holds, per non-reference sensor in index order, its distance
    minus the reference's over the speed of light, plus that row's
    ``jitter`` (E, m) in seconds.
    """
    ref = arr.reference_idx
    idx = [i for i in range(arr.positions.shape[0]) if i != ref]
    dists = np.linalg.norm(arr.positions - xy[:, None, :], axis=-1)
    return idx, (dists[:, idx] - dists[:, ref, None]) / SPEED_OF_LIGHT + jitter


def simulate_tdoa(
    arr: SensorArray,
    p: EnuPoint,
    sigma_t: float,
    rng: np.random.Generator,
    t_ms: int = 0,
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


def _fixes(arr: SensorArray, idx: list[int], rd: np.ndarray, init: np.ndarray) -> tuple[np.ndarray, ...]:
    """Solve epochs ``rd`` (E, m) over sensors ``idx``, each from :func:`_starts`.

    Returns the points (E, 2), NaN at an epoch where every start is
    rank-deficient, their RMS residuals (E,) and converged flags (E,).
    """
    pos = arr.positions
    points, costs, converged, best = _solve_batch(pos[idx], pos[arr.reference_idx], rd, _starts(arr, init))
    for _ in range(np.count_nonzero(~converged[best >= 0])):
        log.warning("Gauss-Newton did not converge, returning best iterate")
    points[best < 0] = np.nan
    return points, np.sqrt(costs / len(idx)), converged


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
    points, rms, converged = _fixes(arr, idx, rd, p0[None])
    if np.isnan(points[0, 0]):
        raise GeometryError("rank-deficient geometry at every start (collinear sensors?)")
    return TdoaFix(EnuPoint(*points[0].tolist()), float(rms[0]), bool(converged[0]))


def simulate_columns(
    t_ms: np.ndarray,
    xy: np.ndarray,
    sigma: float,
    rng_seed: int,
    decimate_ms: Optional[int],
    outlier_rate: float,
    outlier_max_m: float,
    arr: Optional[SensorArray] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Position fixes over a ground-truth flight ``t_ms`` (N,), never decreasing, and ``xy`` (N, 2).

    With a sensor array ``arr`` each epoch is a TDoA measurement with i.i.d.
    Gaussian timing jitter of ``sigma`` seconds, and every epoch is solved
    in one batched multi-start descent, each from the array centroid and
    the sensor starts (no warm start from the previous fix). Without one, a
    fix is the true position plus i.i.d. Gaussian noise of ``sigma`` meters
    per axis.

    ``decimate_ms`` first picks the epoch grid: every truth sample at least
    that far after the previous grid epoch (every sample when None), so a
    dropped epoch leaves a gap and never shifts the grid. One generator,
    ``default_rng(rng_seed)``, serves the whole flight and draws in a fixed
    order: first the noise of every epoch as one (E, m) array, m the number
    of non-reference sensors or 2 position axes (TDoA at zero ``sigma``
    draws none); then, when ``outlier_rate`` > 0, per epoch the glitch flag
    (uniform below ``outlier_rate``), the angle and the radius fraction as
    three (E,) arrays. A flagged epoch gets a uniform-in-disk position
    glitch of at most ``outlier_max_m``, emulating a foreign RF source.
    The same seed and epoch grid give the same fixes. An epoch whose every
    start is rank-deficient, or whose fix (glitch included) lies more than
    the geodesy limit ``MAX_RANGE_M`` from the local origin, is dropped
    with a warning after its draws; the warnings come in epoch order.

    Returns the kept epochs' ``t_ms`` (E,), fixes (E, 2) and the dropped
    epoch count.
    """
    if not sigma >= 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    t_ms = np.asarray(t_ms, dtype=np.int64)
    if not t_ms.size:
        raise ValueError("empty ground-truth trajectory")
    if np.any(t_ms[1:] < t_ms[:-1]):
        raise ValueError("ground-truth timestamps must not decrease")
    if decimate_ms is None:
        rows = list(range(t_ms.size))
    else:
        ts, rows = t_ms.tolist(), [0]
        while (i := bisect.bisect_left(ts, ts[rows[-1]] + decimate_ms, rows[-1] + 1)) < len(ts):
            rows.append(i)
    t_ms, xy = t_ms[rows], np.asarray(xy, dtype=float)[rows]

    n, m = len(rows), 2 if arr is None else arr.positions.shape[0] - 1
    rng = np.random.default_rng(rng_seed)
    noise = rng.normal(0.0, sigma, size=(n, m)) if arr is None or sigma > 0 else np.zeros((n, m))
    glitch = np.zeros((n, 2))
    if outlier_rate > 0:
        hit = rng.random(n) < outlier_rate
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        radius = outlier_max_m * np.sqrt(rng.random(n))
        glitch[hit] = np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))[hit]

    if arr is None:
        fix, lost = xy + noise, np.zeros(n, dtype=bool)
    else:
        idx, dt = _arrival_differences(arr, xy, noise)
        init = np.tile(arr.positions.mean(axis=0), (n, 1))
        fix = _fixes(arr, idx, SPEED_OF_LIGHT * dt, init)[0]
        lost = np.isnan(fix[:, 0])
    fix += glitch
    far = np.hypot(fix[:, 0], fix[:, 1]) > MAX_RANGE_M  # False where lost (NaN)
    drop = lost | far
    for t, is_far in zip(t_ms[drop].tolist(), far[drop].tolist()):
        if is_far:
            log.warning("epoch %d: fix beyond %.0f km of the origin, dropping", t, MAX_RANGE_M / 1000)
        else:
            log.warning("epoch %d: rank-deficient geometry at every start, dropping", t)
    return t_ms[~drop], fix[~drop], int(drop.sum())


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

    :func:`simulate_columns` with the sensor array ``arr`` and timing jitter
    ``sigma_t``, over and into sample lists; ``decimate_ms`` keeps only
    epochs on that grid (~1 Hz sensor rate).
    """
    t_ms, xy, dropped = simulate_columns(
        *sample_columns(truth), sigma_t, rng_seed, decimate_ms, outlier_rate, outlier_max_m, arr=arr
    )
    return timed_samples(t_ms, xy), dropped


def position_noise_flight(
    truth: Sequence[TimedSample],
    sigma_m: float,
    rng_seed: int,
    decimate_ms: int,
    outlier_rate: float,
    outlier_max_m: float,
) -> tuple[list[TimedSample], int]:
    """Direct position-noise measurement model that bypasses the TDoA chain.

    :func:`simulate_columns` with no sensor array: each fix is the true
    position plus i.i.d. Gaussian noise of ``sigma_m`` per axis.
    """
    t_ms, xy, dropped = simulate_columns(
        *sample_columns(truth), sigma_m, rng_seed, decimate_ms, outlier_rate, outlier_max_m
    )
    return timed_samples(t_ms, xy), dropped
