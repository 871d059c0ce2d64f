"""The batched EKF core against a frozen copy of the scalar filter it replaced."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from uavtrack import ekf
from uavtrack.dataio import AlignedPair, Segment
from uavtrack.ekf import FilterConfig, FilterError, FilterState, MeasurementModel, TrackPoint
from uavtrack.geodesy import EnuPoint
from uavtrack.motionmodels import (
    _SMALL_TURN,
    ModelKind,
    NoiseSigmas,
    jacobian,
    measurement_matrix,
    process_noise,
    transition,
)

# --- frozen reference: one predict and one update call per step, the gain
# from np.linalg.solve, a Python loop over the segment. Kept as it was,
# except for the function names and the turn-rate projection onto
# [-ekf._OMEGA_MAX, ekf._OMEGA_MAX] after each CT update, which the filter
# gained later; the motion-model matrices come from the library, whose own
# tests pin them.


def _symmetrize(P):
    return 0.5 * (P + P.T)


def ref_predict(fs, mm, T, Q):
    F = jacobian(mm, fs.s, T)
    s_pred = transition(mm, fs.s, T)
    P_pred = _symmetrize(F @ fs.P @ F.T + Q)
    return FilterState(s_pred, P_pred, fs.t_ms + round(T * 1000))


def ref_update(fs_pred, z, meas):
    H = np.asarray(meas.H, dtype=float)
    R = np.asarray(meas.R, dtype=float)
    n = fs_pred.s.shape[0]
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


def _ref_initial_state(seg, first, cfg):
    s = np.zeros(seg.mm.state_dim)
    s[0], s[1] = first.rf.x, first.rf.y
    var = {"x": cfg.R[0, 0], "y": cfg.R[1, 1], "vx": cfg.v_max**2, "vy": cfg.v_max**2,
           "ax": cfg.accel_var, "ay": cfg.accel_var, "omega": cfg.omega_var}
    P = np.diag(np.array([var[k] for k in seg.mm.states], dtype=float))
    return FilterState(s, P, first.t_ms)


def ref_run_segment(seg, pairs, cfg):
    if len(pairs) < 2:
        return None
    meas = MeasurementModel(measurement_matrix(seg.mm), cfg.R)
    fs = _ref_initial_state(seg, pairs[0], cfg)
    track = [TrackPoint(fs.t_ms, EnuPoint(fs.s[0], fs.s[1]), fs)]
    for prev, cur in zip(pairs, pairs[1:]):
        T = (cur.t_ms - prev.t_ms) / 1000.0
        if T <= 0:
            raise FilterError(f"segment {seg.id}: non-increasing timestamps at {cur.t_ms}")
        Q = process_noise(seg.mm, T, seg.sigmas)
        fs = ref_update(ref_predict(fs, seg.mm, T, Q), cur.rf, meas)
        if seg.mm is ModelKind.CT:
            s = fs.s.copy()
            s[4] = min(max(s[4], -ekf._OMEGA_MAX), ekf._OMEGA_MAX)
            fs = FilterState(s, fs.P, fs.t_ms)
        track.append(TrackPoint(cur.t_ms, EnuPoint(fs.s[0], fs.s[1]), fs))
    return track


# --- flights


def _flight(rng, n, mean_dt_ms, omega_turn):
    """``n`` fixes at jittered intervals of a turning target, with 5 m noise."""
    t = np.concatenate([[0], np.cumsum(rng.integers(mean_dt_ms // 2, 2 * mean_dt_ms, n - 1))])
    heading = rng.uniform(-np.pi, np.pi) + omega_turn * t / 1000.0
    speed = rng.uniform(2.0, 12.0)
    xy = rng.uniform(-500, 500, 2) + np.cumsum(
        speed * np.c_[np.cos(heading), np.sin(heading)] * np.diff(t, prepend=0)[:, None] / 1000.0, axis=0
    )
    return t.astype(np.int64), xy + rng.normal(0, 5.0, (n, 2))


def _sigmas(rng):
    return NoiseSigmas(
        accel=rng.uniform(0.01, 2.0), jerk=rng.uniform(0.01, 1.0), omega=rng.uniform(1e-4, 0.1)
    )


def _filter_config(rng):
    r = rng.uniform(1.0, 100.0, 2)
    return FilterConfig(
        R=np.diag(r), v_max=rng.uniform(1.0, 30.0), accel_var=rng.uniform(0.1, 50.0),
        omega_var=10 ** rng.uniform(-4, 0),
    )


def _assert_close(states, covs, ref_track):
    ref_s = np.array([tp.state.s for tp in ref_track])
    ref_P = np.array([tp.state.P for tp in ref_track])
    assert np.abs(states[:, :2] - ref_s[:, :2]).max() <= 1e-9
    scale = np.abs(ref_P).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(covs - ref_P) <= 1e-9 * scale)


@settings(deadline=None, max_examples=60)
@given(
    mm=st.sampled_from(list(ModelKind)),
    lengths=st.lists(st.integers(2, 200), min_size=1, max_size=4),
    mean_dt_ms=st.integers(200, 1000),
    turn=st.floats(0.2, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
# without the turn-rate bound this CT filter diverges (its estimate reaches
# -5.4 rad/s) and the two paths part by 5.9e-9 m
@example(mm=ModelKind.CT, lengths=[175, 175], mean_dt_ms=496, turn=1.0, seed=1)
# these CT filters grow a 1e-10 m change of their first fix by factors of
# 2.5e2, 8.5e5 and 9.5e7, so the two paths agree only while they round alike
@example(mm=ModelKind.CT, lengths=[93, 2, 45, 200], mean_dt_ms=924, turn=4.0, seed=103)
@example(mm=ModelKind.CT, lengths=[157, 57], mean_dt_ms=931, turn=1.0, seed=10570)
@example(mm=ModelKind.CT, lengths=[183], mean_dt_ms=738, turn=2.2654339133495998, seed=3750758462)
def test_batched_core_matches_frozen_scalar_filter(mm, lengths, mean_dt_ms, turn, seed):
    # the target turns at about ``turn`` times the rate where the CT step
    # switches to its series, so its estimate moves across the switch
    rng = np.random.default_rng(seed)
    t, z = _flight(rng, sum(lengths), mean_dt_ms, turn * _SMALL_TURN / (mean_dt_ms / 1000.0))
    edges = np.concatenate([[0], np.cumsum(lengths)])
    slices = [slice(a, b) for a, b in zip(edges, edges[1:])]
    segs = [Segment(f"S{i}", sl.start, sl.stop - 1, mm, _sigmas(rng)) for i, sl in enumerate(slices)]
    cfg = _filter_config(rng)

    results = ekf._run_batch(segs, t, z, slices, cfg)
    for seg, sl, (states, covs) in zip(segs, slices, results):
        pairs = [AlignedPair(int(ti), EnuPoint(0.0, 0.0), EnuPoint(*zi)) for ti, zi in zip(t[sl], z[sl])]
        _assert_close(states, covs, ref_run_segment(seg, pairs, cfg))


def _random_cov(rng, n):
    A = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0, n)
    return A @ A.T + 1e-3 * np.eye(n)


@settings(deadline=None, max_examples=200)
@given(
    mm=st.sampled_from(list(ModelKind)),
    T=st.floats(0.1, 2.0),
    turn=st.sampled_from([0.0, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0, 100.0]),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_step_matches_frozen_scalar_step(mm, T, turn, sign, seed):
    rng = np.random.default_rng(seed)
    n = mm.state_dim
    s = rng.normal(0, 10, n)
    if mm is ModelKind.CT:
        s[4] = sign * turn * _SMALL_TURN / T
    fs = FilterState(s, _random_cov(rng, n), 0)
    Q = process_noise(mm, T, _sigmas(rng))
    meas = MeasurementModel(measurement_matrix(mm), _random_cov(rng, 2))
    z = EnuPoint(*rng.normal(0, 30, 2))

    pred, ref_pred = ekf.predict(fs, mm, T, Q), ref_predict(fs, mm, T, Q)
    assert np.allclose(pred.s, ref_pred.s, rtol=1e-12, atol=1e-12)
    assert np.allclose(pred.P, ref_pred.P, rtol=1e-12, atol=1e-12 * np.abs(ref_pred.P).max())
    upd, ref_upd = ekf.update(ref_pred, z, meas), ref_update(ref_pred, z, meas)
    assert np.allclose(upd.s, ref_upd.s, rtol=1e-9, atol=1e-9)
    assert np.allclose(upd.P, ref_upd.P, rtol=1e-9, atol=1e-9 * np.abs(ref_upd.P).max())
