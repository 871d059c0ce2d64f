"""TDoA multilateration: forward measurement simulation and inverse solver.

Open stand-in for a proprietary geolocation chain: a passive sensor array
observes arrival-time differences relative to a reference sensor, and a
Gauss-Newton solver recovers the 2-D emitter position from the
range-difference least-squares cost.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from .geodesy import MAX_RANGE_M
from .records import record

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0

_MAX_ITER = 100
_STEP_TOL_M = 1e-6
_MAX_HALVINGS = 25


class ArrayError(ValueError):
    """Invalid sensor-array definition."""


@record
class SensorArray:
    positions: np.ndarray  # (n, 2) east/north meters
    reference_idx: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        # 2 sensors give one range difference per epoch, too few for a 2-D
        # fix: the solver finds every start rank-deficient and `simulate`
        # asks for at least 3
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise ArrayError(f"need at least 2 sensors with (x, y) positions, got shape {pos.shape}")
        if not np.isfinite(pos).all():
            raise ArrayError(f"sensor positions must be finite, got {pos.tolist()}")
        if not 0 <= self.reference_idx < pos.shape[0]:
            raise ArrayError(f"reference index {self.reference_idx} out of range")
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() < 1.0:
            raise ArrayError("sensors closer than 1 m: degenerate geometry")


def _arrival_differences(
    arr: SensorArray, xy: np.ndarray, jitter: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """Sensor indices and arrival-time differences (E, m) for emitters at ``xy`` (E, 2).

    Each row holds, per non-reference sensor in index order, its distance
    minus the reference's over the speed of light, plus that row's
    ``jitter`` (E, m) in seconds.
    """
    pos, ref = arr.positions, arr.reference_idx
    idx = [i for i in range(pos.shape[0]) if i != ref]
    _, d, d_ref = _range_residuals(pos[idx], pos[ref], 0.0, xy.T)
    return idx, (d - d_ref).T / SPEED_OF_LIGHT + jitter


def _impossible(arr: SensorArray, idx: list[int], rd: np.ndarray) -> np.ndarray:
    """(E,) True where an epoch of range differences ``rd`` (E, m) to sensors ``idx`` fits no point exactly.

    A range difference |d_k - d_ref| is at most the baseline |s_k - s_ref|
    (triangle inequality) and reaches it only on the baseline's extension,
    so an epoch with |rd_k| >= |s_k - s_ref| for some k has no hyperbola
    for that sensor. Its least-squares fix can still be finite: timing
    noise on a target near the extension gives a small excess, and the
    other sensors pin the fix. A large excess sends every start toward
    infinity until its Jacobian degenerates; the check names that cause
    when the epoch is lost.
    """
    pos = arr.positions
    baseline = np.linalg.norm(pos[idx] - pos[arr.reference_idx], axis=1)
    return np.any(np.abs(rd) >= baseline, axis=1)


def _range_residuals(
    sensors: np.ndarray, ref: np.ndarray, rd: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals rd - (|p - s_k| - |p - s_ref|) in meters (m, N), for points p (2, N) and rd (m, N).

    Also returns the distances they were formed from: to each sensor (m, N)
    and to the reference (N,).
    """
    dx, dy = p[0] - sensors[:, 0, None], p[1] - sensors[:, 1, None]
    dx_ref, dy_ref = p[0] - ref[0], p[1] - ref[1]
    d, d_ref = np.sqrt(dx * dx + dy * dy), np.sqrt(dx_ref * dx_ref + dy_ref * dy_ref)
    return rd - (d - d_ref), d, d_ref


def _jacobian(
    sensors: np.ndarray, ref: np.ndarray, p: np.ndarray, d: np.ndarray, d_ref: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """d residual / d p at points p (2, N) as its x and y columns, each (m, N).

    Row k is u_ref - u_k for the unit vectors u from each sensor to p,
    formed from the distances ``d`` (m, N) and ``d_ref`` (N,) at p; a unit
    vector is zero where p is on its sensor.
    """
    u_ref = (p - ref[:, None]) / np.where(d_ref > 0, d_ref, 1.0)
    d = np.where(d > 0, d, 1.0)
    jx = u_ref[0] - (p[0] - sensors[:, 0, None]) / d
    jy = u_ref[1] - (p[1] - sensors[:, 1, None]) / d
    return jx, jy


def _qr_step(jx: np.ndarray, jy: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank test and Gauss-Newton step of N Jacobians with columns ``jx``, ``jy`` (m, N) at residuals ``r``.

    A closed-form thin QR by modified Gram-Schmidt, J = [q1 q2] [[r11, r12],
    [0, r22]]: r11 = |jx|, q1 = jx / r11, r12 = q1 . jy and r22 q2 = jy - r12 q1.
    J and R share their singular values, which follow exactly from
    |R|_F^2 = s_max^2 + s_min^2 and r11 r22 = s_max s_min: (s_max +- s_min)^2
    = |R|_F^2 +- 2 r11 r22 gives s_max, and s_min = r11 r22 / s_max keeps
    its relative accuracy. J is full rank when s_min >= 1e-9 max(s_max, 1).

    Returns the full-rank flag (N,), and for the F full-rank Jacobians, in
    order, the least-squares solution of J step = -r from R step = -Q^T r
    (2, F) and |Q^T r|^2 (F,), the decrease of the cost the Gauss-Newton
    model predicts for that step.
    """
    r11 = np.sqrt(np.sum(jx * jx, axis=0))
    q1 = jx / np.where(r11 > 0, r11, 1.0)
    r12 = np.sum(q1 * jy, axis=0)
    w = jy - r12 * q1  # r22 q2
    r22 = np.sqrt(np.sum(w * w, axis=0))
    det = r11 * r22
    frob2 = r11 * r11 + r12 * r12 + r22 * r22
    s_max = 0.5 * (np.sqrt(frob2 + 2.0 * det) + np.sqrt(np.maximum(frob2 - 2.0 * det, 0.0)))
    s_min = det / np.where(s_max > 0, s_max, 1.0)
    full_rank = s_min >= 1e-9 * np.maximum(s_max, 1.0)

    if not full_rank.all():
        r, q1, w = r[:, full_rank], q1[:, full_rank], w[:, full_rank]
        r11, r12, r22 = r11[full_rank], r12[full_rank], r22[full_rank]
    g1 = np.sum(q1 * r, axis=0)
    g2 = np.sum(w * r, axis=0) / r22
    step_y = -g2 / r22
    step_x = -(g1 + r12 * step_y) / r11
    return full_rank, np.stack((step_x, step_y)), g1 * g1 + g2 * g2


def _solve_batch(
    sensors: np.ndarray, ref: np.ndarray, rd: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multi-start Gauss-Newton over every epoch and start at once.

    ``rd`` (E, m) holds each epoch's range differences to ``sensors``
    (m, 2) against ``ref``, and ``starts`` (E, S, 2) its start points.
    Every epoch x start descends on its own. Each iterate takes the
    closed-form thin QR of its two-column Jacobian (:func:`_qr_step`, no
    LAPACK call): the exact singular values of the 2 x 2 factor R give the
    rank test, and back-substitution in R step = -Q^T r the least-squares
    step. The Jacobian reuses the sensor and reference distances of the
    element's last accepted trial. Step halving (at most 25 halvings)
    enforces descent. An element leaves the active set when its Jacobian
    is rank-deficient (the start is then excluded), when its accepted step
    is below 1e-6 m (converged), when its halving runs out (converged if at
    the floating-point floor of the cost, see below) or after 100
    iterations (not converged). Per epoch the lowest-cost start wins, the
    first on a tie. Elements are columns of (., E S) arrays, so every
    reduction runs over a short leading axis.

    Returns per epoch the winning point (E, 2), its cost (E,), converged
    flag (E,) and start index (E,), which is -1 where every start was
    rank-deficient.
    """
    n_epochs, n_starts, _ = starts.shape
    rd = np.repeat(rd, n_starts, axis=0).T.copy()
    p = starts.reshape(-1, 2).T.astype(float)  # (2, E S), a copy
    r, d, d_ref = _range_residuals(sensors, ref, rd, p)
    c = np.sum(r * r, axis=0)
    converged = np.zeros(c.shape, dtype=bool)
    usable = np.full(c.shape, rd.shape[0] >= 2)  # rank(J) <= m
    active = np.flatnonzero(usable)
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        full_rank, step, model_decrease = _qr_step(
            *_jacobian(sensors, ref, p[:, active], d[:, active], d_ref[active]), r[:, active]
        )
        if not full_rank.all():
            usable[active[~full_rank]] = False
            active = active[full_rank]

        trying = np.arange(active.size)
        for _ in range(_MAX_HALVINGS):
            e = active[trying]
            trial = p[:, e] + step[:, trying]
            r_trial, d_trial, d_ref_trial = _range_residuals(sensors, ref, rd[:, e], trial)
            c_trial = np.sum(r_trial * r_trial, axis=0)
            ok = c_trial <= c[e]
            e_ok = e[ok]
            p[:, e_ok], r[:, e_ok], d[:, e_ok] = trial[:, ok], r_trial[:, ok], d_trial[:, ok]
            c[e_ok], d_ref[e_ok] = c_trial[ok], d_ref_trial[ok]
            trying = trying[~ok]
            if trying.size == 0:
                break
            step[:, trying] *= 0.5

        stalled = np.zeros(active.size, dtype=bool)
        stalled[trying] = True
        small = np.hypot(step[0], step[1]) < _STEP_TOL_M
        converged[active] = small & ~stalled
        if trying.size:
            # Halving runs out at the floating-point floor of the cost: each
            # residual cancels distances, so it is off by up to about
            # 2 eps (d_k + d_ref) and the cost by 4 eps sum |r_k| (d_k + d_ref).
            # A start is at its minimum as closely as the cost can tell when
            # the decrease the Gauss-Newton model predicts for the full step,
            # |Q^T r|^2 (the gradient J^T r in the (J^T J)^-1 norm), is below that.
            e = active[trying]
            floor = 4.0 * np.finfo(float).eps * np.sum(np.abs(r[:, e]) * (d[:, e] + d_ref[e]), axis=0)
            converged[e] = model_decrease[trying] <= floor
        active = active[~(stalled | small)]

    best = np.argmin(np.where(usable, c, np.inf).reshape(n_epochs, n_starts), axis=1)
    k = np.arange(n_epochs) * n_starts + best
    best = np.where(usable[k], best, -1)
    return p[:, k].T, c[k], converged[k], best


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


def _epoch_rows(t_ms: np.ndarray, decimate_ms: Optional[int]) -> np.ndarray:
    """The rows of the never-decreasing ``t_ms`` (N,) on :func:`simulate_columns`' epoch grid.

    Row 0, then each time the first later row at least ``decimate_ms`` after
    the last epoch; every row when ``decimate_ms`` is None or at most 0.
    """
    if decimate_ms is None:
        return np.arange(t_ms.size)
    d = min(max(decimate_ms, 0), int(t_ms[-1]) - int(t_ms[0]) + 1)  # in int64: past the flight is one epoch
    after = np.searchsorted(t_ms, t_ms + d)  # each row's successor on the grid, or past the end
    after = memoryview(np.maximum(after, np.arange(1, after.size + 1), out=after))  # Python ints, no list
    rows, i = [0], after[0]
    while i < len(after):
        rows.append(i)
        i = after[i]
    return np.array(rows)


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
    with a warning after its draws; the warnings come in epoch order. A
    rank-deficient epoch's warning names a range difference at or above
    its sensor baseline (see :func:`_impossible`) where there is one.

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
    rows = _epoch_rows(t_ms, decimate_ms)
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
        fix = xy + noise
    else:
        idx, dt = _arrival_differences(arr, xy, noise)
        rd = SPEED_OF_LIGHT * dt
        fix = _fixes(arr, idx, rd, np.tile(arr.positions.mean(axis=0), (n, 1)))[0]
    lost = np.isnan(fix[:, 0])
    fix += glitch
    far = np.hypot(fix[:, 0], fix[:, 1]) > MAX_RANGE_M  # False where lost (NaN)
    drop = lost | far
    for i in np.flatnonzero(drop).tolist():
        if far[i]:
            log.warning("epoch %d: fix beyond %.0f km of the origin, dropping", t_ms[i], MAX_RANGE_M / 1000)
        elif _impossible(arr, idx, rd[i : i + 1])[0]:  # only TDoA loses epochs
            log.warning("epoch %d: range difference exceeds sensor baseline, dropping", t_ms[i])
        else:
            log.warning("epoch %d: rank-deficient geometry at every start, dropping", t_ms[i])
    return t_ms[~drop], fix[~drop], int(drop.sum())
