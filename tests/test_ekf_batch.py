"""Batched EKF sweep: batch independence, per-segment failures, the CT prior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavtrack import ekf, objects, trajgen
from uavtrack.config import RunConfig
from uavtrack.dataio import Segment
from uavtrack.ekf import FilterConfig
from uavtrack.geodesy import EnuPoint
from uavtrack.motionmodels import ModelKind, NoiseSigmas, measurement_matrix
from uavtrack.objects import AlignedPair, position_noise_flight, run_trajectory


def _pairs(t_ms, uav, rf):
    return [AlignedPair(int(t), EnuPoint(*u), EnuPoint(*r)) for t, u, r in zip(t_ms, uav, rf)]


@settings(deadline=None, max_examples=100)
@given(
    mm=st.sampled_from(list(ModelKind)),
    lengths=st.lists(st.integers(2, 40), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_segment_alone_equals_segment_inside_batch(mm, lengths, seed, data):
    rng = np.random.default_rng(seed)
    K = sum(lengths)
    t = np.cumsum(rng.integers(100, 2000, K)).astype(np.int64)
    z = np.cumsum(rng.normal(0, 5, (K, 2)), axis=0)
    edges = np.concatenate([[0], np.cumsum(lengths)])
    slices = [slice(a, b) for a, b in zip(edges, edges[1:])]
    segs = [
        Segment(f"S{i}", sl.start, sl.stop - 1, mm,
                NoiseSigmas(*rng.uniform(0.01, 1.0, 2), omega=rng.uniform(1e-3, 0.1)))
        for i, sl in enumerate(slices)
    ]
    cfg = FilterConfig(R=np.diag(rng.uniform(1, 50, 2)), omega_var=0.01)

    batch = ekf._run_batch(segs, t, z, slices, cfg)
    k = data.draw(st.integers(0, len(segs) - 1))
    alone_s, alone_P = ekf._run_batch([segs[k]], t, z, [slices[k]], cfg)[0]
    assert alone_s.shape == (lengths[k], mm.state_dim)
    assert np.array_equal(batch[k][0], alone_s)
    assert np.array_equal(batch[k][1], alone_P)


def test_singular_segment_warns_once_and_spares_its_neighbour():
    # R = 0 and v_max = 0: the prior is P = 0, so with no process noise the
    # innovation covariance of S1 is singular; S2's process noise is not zero
    t = np.arange(20) * 1000
    xy = np.c_[np.arange(20.0), 0.5 * np.arange(20.0)]
    pairs = _pairs(t, xy, xy)
    cfg = FilterConfig(R=np.zeros((2, 2)), v_max=0.0)
    s1 = Segment("S1", 0, 9, ModelKind.CV, NoiseSigmas(accel=0.0))
    s2 = Segment("S2", 10, 19, ModelKind.CV, NoiseSigmas(accel=0.2))

    results, warnings = run_trajectory([s2, s1], pairs, cfg)
    assert warnings == [f"segment S1: singular innovation covariance: {np.zeros((2, 2))}"]
    assert [seg.id for seg, _ in results] == ["S2"]
    alone, alone_warnings = run_trajectory([s2], pairs[10:], cfg, indices=range(10, 20))
    assert not alone_warnings
    for a, b in zip(results[0][1], alone[0][1]):
        assert a.t_ms == b.t_ms
        assert np.array_equal(a.state.s, b.state.s)
        assert np.array_equal(a.state.P, b.state.P)


def _zero_pivot_matrix():
    """A 2 x 2 matrix whose determinant is not 0 but whose LU meets an exactly zero pivot."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        c, a, b = np.sort(rng.uniform(1.0, 10.0, 3))  # |a| >= |c|: a is the first pivot
        for d in ((c * (1.0 / a)) * b, (c / a) * b):
            M = np.array([[a, b], [c, d]])
            if M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] != 0.0:
                try:
                    np.linalg.solve(M, np.eye(2))
                except np.linalg.LinAlgError:
                    return M
    pytest.skip("LAPACK met no exactly zero pivot on these matrices")


def test_zero_pivot_row_is_flagged_and_spares_its_neighbour():
    # row 0 has P = 0, so its S is R, whose transpose the gain solve cannot
    # factor although its determinant is not 0; row 1 has S = R + I
    R = _zero_pivot_matrix().T
    H = measurement_matrix(ModelKind.CV)
    s = np.zeros((2, 4))
    P = np.stack([np.zeros((4, 4)), np.eye(4)])
    z = np.array([[1.0, 2.0], [1.0, 2.0]])
    s_out, P_out, _, ok = ekf._update_step(s, P, z, H, R)
    assert ok.tolist() == [False, True]
    alone_s, alone_P, _, _ = ekf._update_step(s[1:], P[1:], z[1:], H, R)
    assert np.array_equal(s_out[1:], alone_s) and np.array_equal(P_out[1:], alone_P)
    with pytest.raises(ekf.FilterError, match="singular innovation covariance"):
        objects.update(objects.FilterState(s[0], P[0], 0), EnuPoint(1.0, 2.0), objects.MeasurementModel(H, R))


def test_failures_warn_in_start_order_and_stop_at_the_first_bad_step():
    t = np.arange(30) * 1000
    t[25] = t[24]  # S3 meets a repeated timestamp
    xy = np.c_[np.arange(30.0), np.zeros(30)]
    pairs = _pairs(t, xy, xy)
    cfg = FilterConfig(R=np.zeros((2, 2)), v_max=0.0)
    segs = [
        Segment("S3", 20, 29, ModelKind.CV, NoiseSigmas(accel=0.2)),
        Segment("S1", 0, 9, ModelKind.CV, NoiseSigmas(accel=0.0)),  # singular at its first step
        Segment("S2", 10, 10, ModelKind.CA, NoiseSigmas(jerk=0.1)),  # one pair
    ]
    results, warnings = run_trajectory(segs, pairs, cfg)
    assert results == []
    assert warnings == [
        f"segment S1: singular innovation covariance: {np.zeros((2, 2))}",
        "segment S2: too few pairs, skipped",
        "segment S3: non-increasing timestamps at 24000",
    ]
    # a singular step before the bad timestamp is the one reported
    t[5] = t[4]
    _, warnings = run_trajectory(segs[1:2], _pairs(t, xy, xy), cfg)
    assert warnings == [f"segment S1: singular innovation covariance: {np.zeros((2, 2))}"]
    first_ten = Segment("S3", 0, 9, ModelKind.CV, NoiseSigmas(accel=0.2))  # S3 over the first ten pairs
    _, warnings = run_trajectory([first_ten], _pairs(t[:10], xy[:10], xy[:10]), FilterConfig(R=np.eye(2)))
    assert warnings == ["segment S3: non-increasing timestamps at 4000"]


@pytest.mark.parametrize("mm", list(ModelKind))
@pytest.mark.parametrize("dt_ms", [0, -400], ids=["repeated", "decreasing"])
def test_stopped_segment_leaves_its_batch_neighbours_bit_identical(mm, dt_ms):
    # the stopped segment is the longest, so it keeps stepping to its end
    # inside the batch after its bad step, beside both neighbours
    rng = np.random.default_rng(5)
    lengths = [30, 12, 20]
    t = np.cumsum(rng.integers(200, 1500, sum(lengths))).astype(np.int64)
    t[3] = t[2] + dt_ms
    z = np.cumsum(rng.normal(0, 5, (sum(lengths), 2)), axis=0)
    edges = np.cumsum([0, *lengths])
    slices = [slice(a, b) for a, b in zip(edges, edges[1:])]
    segs = [Segment(f"S{i}", sl.start, sl.stop - 1, mm, NoiseSigmas(0.3, 0.1, omega=0.02))
            for i, sl in enumerate(slices)]
    cfg = FilterConfig(R=np.diag([9.0, 16.0]))

    stopped, *batch = ekf._run_batch(segs, t, z, slices, cfg)
    assert isinstance(stopped, ekf.FilterError)
    assert str(stopped) == f"non-increasing timestamps at {t[3]}"
    for got, want in zip(batch, ekf._run_batch(segs[1:], t, z, slices[1:], cfg)):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_step_both_non_increasing_and_singular_reports_the_timestamp():
    # R = 0, v_max = 0 and no process noise: S is 0 at every step
    xy = np.c_[np.arange(4.0), np.zeros(4)]
    cfg = FilterConfig(R=np.zeros((2, 2)), v_max=0.0)
    seg = Segment("S1", 0, 3, ModelKind.CV, NoiseSigmas(accel=0.0))
    t = np.array([1000, 1000, 2000, 3000])
    _, warnings = run_trajectory([seg], _pairs(t, xy, xy), cfg)
    assert warnings == ["segment S1: non-increasing timestamps at 1000"]
    t = np.array([0, 1000, 1000, 2000])  # singular one step before the repeat
    _, warnings = run_trajectory([seg], _pairs(t, xy, xy), cfg)
    assert warnings == [f"segment S1: singular innovation covariance: {np.zeros((2, 2))}"]


@pytest.mark.parametrize("seed", range(8))
def test_long_ct_leg_beats_raw_fixes_under_default_prior(seed):
    # 60 s turning at 0.05 rad/s, 10 Hz fixes with 9 m noise per axis. Under
    # a 1.0 (rad/s)^2 turn-rate prior the filter diverged on 4 of these 8
    # flights, ending up to 2.7 times worse than the raw fixes.
    leg = {"mm": "CT", "duration_s": 60, "omega": 0.05, "speed": 3.0}
    truth, _ = objects.generate_truth([trajgen.leg_from_dict(leg)], speed=3.0, dt_ms=100)
    rf, _ = position_noise_flight(truth, 9.0, seed, 100, 0.0, 200.0)
    pairs = objects.align(truth, rf, tol_ms=1)
    seg = Segment("S1", 0, len(pairs) - 1, ModelKind.CT, NoiseSigmas(accel=0.2, omega=0.02))
    [(_, track)], _ = run_trajectory([seg], pairs, FilterConfig(R=objects.estimate_R(pairs, "mean")))

    raw = np.mean([p.error_m() for p in pairs])
    est = np.mean([np.hypot(tp.pos.x - p.uav.x, tp.pos.y - p.uav.y) for tp, p in zip(track, pairs)])
    assert est < raw


def test_config_default_prior_is_the_filter_default():
    assert RunConfig.from_dict({}).data["filter"]["omega_var"] == FilterConfig.omega_var == 0.01


def test_ct_turn_rate_estimate_stays_within_bound(monkeypatch):
    # fixes that jump back and forth drive the turn-rate estimate hard; a
    # loose prior lets it run to several rad/s without the bound
    rng = np.random.default_rng(3)
    t = np.arange(60, dtype=np.int64) * 500
    z = rng.normal(0, 40, (60, 2))
    seg = Segment("S1", 0, 59, ModelKind.CT, NoiseSigmas(accel=2.0, omega=0.5))
    loose = FilterConfig(R=np.diag([4.0, 4.0]), omega_var=4.0)
    bounded = ekf._run_batch([seg], t, z, [slice(0, 60)], loose)[0][0]
    assert np.abs(bounded[:, 4]).max() == ekf._OMEGA_MAX == 1.0
    monkeypatch.setattr(ekf, "_OMEGA_MAX", np.inf)
    free = ekf._run_batch([seg], t, z, [slice(0, 60)], loose)[0][0]
    assert np.abs(free[:, 4]).max() > 1.0
