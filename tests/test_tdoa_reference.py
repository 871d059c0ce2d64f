"""The batched multi-start solver against a frozen copy of the scalar solver it replaced."""

import bisect

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uavtrack import objects, tdoa
from uavtrack.geodesy import EnuPoint
from uavtrack.objects import TdoaFix, TimedSample, simulate_tdoa, solve_position
from uavtrack.tdoa import GeometryError, SensorArray

ARRAY = SensorArray(np.array([[-200.0, -200], [200, -200], [-200, 200], [200, 200]]))
SIGMA_T = 3.3e-9

# --- frozen reference: the per-epoch scalar solver, five sequential
# descents with Python loops over the sensors. Kept as it was, except that
# it also returns the index of the winning start.

_MAX_ITER = 100
_STEP_TOL_M = 1e-6
_MAX_HALVINGS = 25


def _ref_residuals(arr, m, p):
    ref = arr.positions[arr.reference_idx]
    d_ref = np.linalg.norm(p - ref)
    out = np.empty(len(m.deltas))
    for k, (i, dtau) in enumerate(m.deltas):
        out[k] = tdoa.SPEED_OF_LIGHT * dtau - (np.linalg.norm(p - arr.positions[i]) - d_ref)
    return out


def _ref_descend(arr, m, p):
    ref = arr.positions[arr.reference_idx]
    converged = False
    r = _ref_residuals(arr, m, p)
    for _ in range(_MAX_ITER):
        d_ref = np.linalg.norm(p - ref)
        u_ref = (p - ref) / d_ref if d_ref > 0 else np.zeros(2)
        J = np.empty((len(m.deltas), 2))
        for k, (i, _) in enumerate(m.deltas):
            d_i = np.linalg.norm(p - arr.positions[i])
            u_i = (p - arr.positions[i]) / d_i if d_i > 0 else np.zeros(2)
            J[k] = -(u_i - u_ref)

        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < 1e-9 * max(sv[0], 1.0):
            raise GeometryError("rank-deficient geometry at iterate (collinear sensors?)")

        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        c0 = float(r @ r)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            trial = p + step
            r_trial = _ref_residuals(arr, m, trial)
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


def reference_solve(arr, m, init):
    """(point, cost, converged, winning start index) as the scalar solver found them."""
    c = np.array([arr.centroid.x, arr.centroid.y])
    starts = [np.array([init.x, init.y], dtype=float)] + [s + 0.25 * (c - s) for s in arr.positions]
    best = None
    error = None
    for j, start in enumerate(starts):
        try:
            p, r, converged = _ref_descend(arr, m, np.array(start, dtype=float))
        except GeometryError as exc:
            error = exc
            continue
        cost_val = float(r @ r)
        if best is None or cost_val < best[1]:
            best = (p, cost_val, converged, j)
        if cost_val < 1e-12:
            break
    if best is None:
        raise error
    return best


# --- corpora


def _measurements(targets, seed):
    rng = np.random.default_rng(seed)
    return [simulate_tdoa(ARRAY, EnuPoint(x, y), SIGMA_T, rng) for x, y in targets]


def _solve_all(meas):
    """Every epoch in one batched call, each from the centroid and the sensor starts."""
    idx, rd = objects._range_differences(meas)
    pos = ARRAY.positions
    starts = tdoa._starts(ARRAY, np.tile(pos.mean(axis=0), (len(meas), 1)))
    return tdoa._solve_batch(pos[idx], pos[ARRAY.reference_idx], rd, starts)


def test_matches_frozen_scalar_solver():
    rng = np.random.default_rng(1)
    # anywhere around the array, and within 40 m of a sensor, where the
    # centroid start often ends in a spurious minimum
    targets = np.vstack([
        rng.uniform(-500, 500, (200, 2)),
        ARRAY.positions[rng.integers(0, 4, 200)] + rng.uniform(-40, 40, (200, 2)),
    ])
    meas = _measurements(targets, seed=2)
    points, costs, _, best = _solve_all(meas)
    other_minimum = 0
    for m, p, c, b in zip(meas, points, costs, best):
        ref_p, ref_c, _, ref_b = reference_solve(ARRAY, m, ARRAY.centroid)
        assert b >= 0
        assert np.hypot(*(p - ref_p)) <= 1e-5
        assert c == pytest.approx(ref_c, rel=1e-9, abs=1e-9)
        if ref_b != 0:
            centroid_p, *_ = _ref_descend(ARRAY, m, np.array([ARRAY.centroid.x, ARRAY.centroid.y]))
            other_minimum += np.hypot(*(centroid_p - ref_p)) > 1.0
    # the corpus exercises wins by a non-centroid start in another basin
    assert other_minimum >= 5


def test_no_false_nonconvergence_on_fixed_corpus():
    # 22 of these 2,000 fixes (1.1%) were flagged not converged by the
    # scalar solver: halving ran out at the rounding floor of the cost
    rng = np.random.default_rng(2024)
    meas = [simulate_tdoa(ARRAY, EnuPoint(*rng.uniform(-500, 500, 2)), SIGMA_T, rng) for _ in range(2000)]
    _, _, converged, best = _solve_all(meas)
    assert np.all(best >= 0)
    assert int(np.sum(~converged)) == 0


def test_iteration_cap_still_reports_not_converged(monkeypatch):
    m = simulate_tdoa(ARRAY, EnuPoint(310.0, -120.0), SIGMA_T, np.random.default_rng(0))
    assert solve_position(ARRAY, m, ARRAY.centroid).converged
    monkeypatch.setattr(tdoa, "_MAX_ITER", 2)
    assert not solve_position(ARRAY, m, ARRAY.centroid).converged


_coord = st.floats(-400.0, 400.0, allow_nan=False)


@settings(deadline=None, max_examples=60)
@given(
    targets=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_fix_independent_of_batch(targets, seed, data):
    meas = _measurements(targets, seed)
    k = data.draw(st.integers(0, len(meas) - 1))
    idx, rd = objects._range_differences(meas)
    points, rms, converged = tdoa._fixes(ARRAY, idx, rd, np.tile(ARRAY.positions.mean(axis=0), (len(meas), 1)))
    batch = TdoaFix(EnuPoint(*points[k].tolist()), float(rms[k]), bool(converged[k]))
    assert batch == solve_position(ARRAY, meas[k], ARRAY.centroid)


# --- frozen reference: the per-sensor forward model, one jitter draw per
# sensor in index order, kept as it was; and the per-epoch measurement loop
# with its measure/locate callbacks, reduced to one epoch at a time: each
# epoch is solved on its own by solve_position, which
# test_fix_independent_of_batch ties to the batched solve. The loop draws
# from one generator per flight, one scalar at a time: every epoch's noise
# in epoch order, then every epoch's glitch flag, then every angle, then
# every radius fraction.


def ref_simulate_tdoa(arr, p, sigma_t, rng, t_ms=0):
    target = np.array([p.x, p.y])
    dists = np.linalg.norm(arr.positions - target, axis=1)
    ref = arr.reference_idx
    deltas = []
    for i in range(arr.positions.shape[0]):
        if i == ref:
            continue
        dt = (dists[i] - dists[ref]) / tdoa.SPEED_OF_LIGHT
        if sigma_t > 0:
            dt += rng.normal(0.0, sigma_t)
        deltas.append((i, dt))
    return objects.TdoaMeasurement(t_ms, tuple(deltas))


def ref_simulate_epochs(truth, measure, locate, rng_seed, decimate_ms, outlier_rate, outlier_max_m):
    epochs = []
    for s in truth:
        if decimate_ms is None or not epochs or s.t_ms - epochs[-1].t_ms >= decimate_ms:
            epochs.append(s)
    rng = np.random.default_rng(rng_seed)
    measured = [measure(s, rng) for s in epochs]
    glitches = [None] * len(epochs)
    if outlier_rate > 0:
        hits = [rng.random() < outlier_rate for _ in epochs]
        thetas = [rng.uniform(0.0, 2.0 * np.pi) for _ in epochs]
        radii = [outlier_max_m * np.sqrt(rng.random()) for _ in epochs]
        glitches = [
            (radius * np.cos(theta), radius * np.sin(theta)) if hit else None
            for hit, theta, radius in zip(hits, thetas, radii)
        ]
    out, dropped = [], 0
    for s, m, glitch in zip(epochs, measured, glitches):
        pos = locate(m)
        if pos is None:
            dropped += 1
            continue
        if glitch is not None:
            pos = EnuPoint(pos.x + glitch[0], pos.y + glitch[1])
        out.append((s.t_ms, pos.x, pos.y))
    return out, dropped


def _ref_locate(arr, m):
    try:
        return solve_position(arr, m, arr.centroid).pos
    except GeometryError:
        return None


def _bits(v):
    return float(v).hex()


_sensor = st.tuples(st.floats(-500, 500), st.floats(-500, 500))


def _array(data, n):
    positions = np.array(data.draw(st.lists(_sensor, min_size=n, max_size=n)))
    d = np.linalg.norm(positions[:, None] - positions[None], axis=-1)
    np.fill_diagonal(d, np.inf)
    assume(d.min() >= 1.0)
    return SensorArray(positions, reference_idx=data.draw(st.integers(0, n - 1)))


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(3, 6),
    target=_sensor,
    sigma=st.just(0.0) | st.floats(1e-12, 1e-6),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_forward_model_matches_frozen_per_sensor_loop(n, target, sigma, seed, data):
    arr = _array(data, n)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = simulate_tdoa(arr, EnuPoint(*target), sigma, rng, t_ms=7)
    want = ref_simulate_tdoa(arr, EnuPoint(*target), sigma, ref_rng, t_ms=7)
    assert got.t_ms == want.t_ms
    assert [(i, _bits(d)) for i, d in got.deltas] == [(i, _bits(d)) for i, d in want.deltas]
    assert rng.random() == ref_rng.random()  # as many draws


@settings(deadline=None, max_examples=40)
@given(
    steps=st.lists(st.tuples(st.integers(1, 700), _sensor), min_size=1, max_size=25),
    tdoa_model=st.booleans(),
    collinear=st.booleans(),
    sigma_t=st.just(0.0) | st.floats(1e-10, 1e-7),
    sigma_m=st.floats(0.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
    decimate_ms=st.none() | st.integers(1, 2000),
    outlier_rate=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_flight_matches_frozen_epoch_loop(
    steps, tdoa_model, collinear, sigma_t, sigma_m, seed, decimate_ms, outlier_rate
):
    t = np.cumsum([0] + [dt for dt, _ in steps[1:]])
    truth = [TimedSample(int(k), EnuPoint(*p)) for k, (_, p) in zip(t, steps)]
    if tdoa_model:
        arr = SensorArray(np.array([[0.0, 0], [100, 0], [200, 0]])) if collinear else ARRAY
        got = objects.simulate_flight(truth, arr, sigma_t, seed, decimate_ms, outlier_rate, 150.0)
        want = ref_simulate_epochs(
            truth, lambda s, rng: ref_simulate_tdoa(arr, s.pos, sigma_t, rng, s.t_ms),
            lambda m: _ref_locate(arr, m), seed, decimate_ms, outlier_rate, 150.0,
        )
    else:
        decimate_ms = decimate_ms or 1
        got = objects.position_noise_flight(truth, sigma_m, seed, decimate_ms, outlier_rate, 150.0)
        want = ref_simulate_epochs(
            truth,
            lambda s, rng: EnuPoint(s.pos.x + rng.normal(0.0, sigma_m), s.pos.y + rng.normal(0.0, sigma_m)),
            lambda p: p, seed, decimate_ms, outlier_rate, 150.0,
        )
    rows, dropped = got
    assert dropped == want[1]
    assert [(s.t_ms, _bits(s.pos.x), _bits(s.pos.y)) for s in rows] == [
        (k, _bits(x), _bits(y)) for k, x, y in want[0]
    ]


# --- frozen reference: simulate_columns' epoch grid as it was, a bisect
# walk over the timestamps as Python ints. Kept as it was, except that it is
# a function of its own.


def ref_epoch_rows(t_ms, decimate_ms):
    if decimate_ms is None:
        return list(range(len(t_ms)))
    ts, rows = list(t_ms), [0]
    while (i := bisect.bisect_left(ts, ts[rows[-1]] + decimate_ms, rows[-1] + 1)) < len(ts):
        rows.append(i)
    return rows


@st.composite
def _truth_times(draw):
    """Never-decreasing timestamps on a grid of ``step`` ms with runs of duplicates, and a
    ``decimate_ms``: None, negative, 0, 1, the step, a non-multiple of it or past any flight."""
    step = draw(st.integers(2, 200))
    runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=60))
    t0 = draw(st.integers(-10**6, 10**6))
    t_ms = np.repeat(t0 + step * np.cumsum([gap for gap, _ in runs]), [repeats for _, repeats in runs])
    decimate_ms = draw(st.sampled_from([None, -step, 0, 1, step, 2 * step + 1, 10**30, -10**30]))
    return t_ms, decimate_ms


@settings(deadline=None, max_examples=300)
@given(_truth_times())
@example((np.array([5, 5, 5]), 0))
@example((np.array([0, 100, 100, 200, 250, 300]), 100))
def test_epoch_grid_matches_frozen_bisect_walk(flight):
    t_ms, decimate_ms = flight
    rows = ref_epoch_rows(t_ms.tolist(), decimate_ms)
    xy = np.column_stack([np.arange(len(t_ms)), np.zeros(len(t_ms))]).astype(float)  # x: the truth row
    rf_t, rf_xy, dropped = tdoa.simulate_columns(t_ms, xy, 0.0, 1, decimate_ms, 0.0, 0.0)
    assert dropped == 0
    assert rf_t.tolist() == t_ms[rows].tolist()
    assert rf_xy[:, 0].tolist() == rows
