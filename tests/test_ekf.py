import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from uavtrack import ekf
from uavtrack.dataio import Segment
from uavtrack.ekf import FilterConfig, FilterError, filter_segments
from uavtrack.geodesy import EnuPoint
from uavtrack.motionmodels import ModelKind, NoiseSigmas, measurement_matrix
from uavtrack.objects import (
    AlignedPair,
    FilterState,
    MeasurementModel,
    estimate_R,
    jacobian,
    pair_columns,
    predict,
    process_noise,
    run_trajectory,
    transition,
    update,
)


def _pairs_from_arrays(t_ms, uav, rf):
    return [
        AlignedPair(int(t), EnuPoint(*u), EnuPoint(*r))
        for t, u, r in zip(t_ms, uav, rf)
    ]


class TestPredict:
    def test_cv_mean_and_covariance(self):
        fs = FilterState(np.array([0.0, 0, 1, 0]), np.eye(4), 0)
        out = predict(fs, ModelKind.CV, 1.0, np.zeros((4, 4)))
        assert np.allclose(out.s, [1, 0, 1, 0])
        assert out.P[0, 0] == pytest.approx(2.0)
        assert out.P[0, 2] == pytest.approx(1.0)

    def test_deterministic_propagation(self):
        fs = FilterState(np.array([1.0, 2, 3, 4]), np.zeros((4, 4)), 0)
        out = predict(fs, ModelKind.CV, 0.5, np.zeros((4, 4)))
        assert np.all(out.P == 0)

    def test_ct_matches_matrix_product_oracle(self):
        s = np.array([0.0, 0, 1, 0, np.pi / 2])
        P = np.diag([1.0, 2, 3, 4, 0.5])
        Q = process_noise(ModelKind.CT, 1.0, NoiseSigmas(accel=0.3, omega=0.05))
        fs = FilterState(s, P, 0)
        out = predict(fs, ModelKind.CT, 1.0, Q)
        assert np.allclose(out.s, transition(ModelKind.CT, s, 1.0))
        F = jacobian(ModelKind.CT, s, 1.0)
        assert np.allclose(out.P, F @ P @ F.T + Q, atol=1e-12)

    def test_dimension_mismatch(self):
        fs = FilterState(np.zeros(4), np.eye(4), 0)
        with pytest.raises(FilterError):
            predict(fs, ModelKind.CA, 1.0, np.zeros((6, 6)))


class TestUpdate:
    def _meas(self, mm, R):
        return MeasurementModel(measurement_matrix(mm), np.asarray(R, float))

    def test_scalar_gain_half(self):
        fs = FilterState(np.array([0.0, 0, 0, 0]), np.eye(4), 0)
        out = update(fs, EnuPoint(2.0, 2.0), self._meas(ModelKind.CV, np.eye(2)))
        assert np.allclose(out.s[:2], [1.0, 1.0])

    def test_no_trust_limit(self):
        fs = FilterState(np.array([3.0, 4, 1, 1]), np.eye(4), 0)
        out = update(fs, EnuPoint(100.0, -100.0), self._meas(ModelKind.CV, 1e12 * np.eye(2)))
        assert np.allclose(out.s, fs.s, atol=1e-6)

    def test_full_trust_limit(self):
        fs = FilterState(np.array([3.0, 4, 1, 1]), np.eye(4), 0)
        out = update(fs, EnuPoint(7.0, 8.0), self._meas(ModelKind.CV, np.zeros((2, 2))))
        assert np.allclose(out.s[:2], [7.0, 8.0], atol=1e-12)

    def test_never_increases_position_covariance(self):
        rng = np.random.default_rng(1)
        H = measurement_matrix(ModelKind.CV)
        for _ in range(50):
            A = rng.normal(size=(4, 4))
            P = A @ A.T + 1e-6 * np.eye(4)
            R = np.diag(rng.uniform(0.1, 10, 2))
            fs = FilterState(rng.normal(size=4), P, 0)
            out = update(fs, EnuPoint(*rng.normal(size=2)), MeasurementModel(H, R))
            before = np.trace(H @ P @ H.T)
            after = np.trace(H @ out.P @ H.T)
            assert after <= before + 1e-9

    @pytest.mark.parametrize(
        "H, R", [(np.eye(2, 5), np.eye(2)), (np.eye(2, 4), np.eye(3))], ids=["H_of_another_model", "R_3x3"]
    )
    def test_dimension_mismatch(self, H, R):
        fs = FilterState(np.zeros(4), np.eye(4), 0)
        with pytest.raises(FilterError, match="inconsistent measurement dimensions"):
            update(fs, EnuPoint(0, 0), MeasurementModel(H, R))

    def test_measurement_other_than_the_position_rejected(self):
        # the update applies H by slicing out the two leading states
        fs = FilterState(np.zeros(4), np.eye(4), 0)
        with pytest.raises(FilterError, match="H must be the position selector"):
            update(fs, EnuPoint(0, 0), MeasurementModel(np.eye(4)[[0, 2]], np.eye(2)))

    def test_singular_innovation(self):
        fs = FilterState(np.zeros(4), np.zeros((4, 4)), 0)
        with pytest.raises(FilterError):
            update(fs, EnuPoint(0, 0), self._meas(ModelKind.CV, np.zeros((2, 2))))


class TestEstimateR:
    def test_zero_error(self):
        pairs = _pairs_from_arrays([0, 1000], [(1, 2), (3, 4)], [(1, 2), (3, 4)])
        assert np.all(estimate_R(pairs) == 0)

    def test_mean_mode(self):
        pairs = _pairs_from_arrays(
            [0, 1000, 2000], [(0, 0)] * 3, [(3, 0), (0, 4), (5, 0)]
        )
        assert np.allclose(estimate_R(pairs, "mean"), np.diag([4.0, 4.0]))

    def test_mse_mode(self):
        pairs = _pairs_from_arrays([0, 1000], [(0, 0)] * 2, [(3, -4), (3, -4)])
        assert np.allclose(estimate_R(pairs, "mse"), np.diag([9.0, 16.0]))

    def test_empty(self):
        with pytest.raises(FilterError):
            estimate_R([])


class TestFilterConfig:
    @pytest.mark.parametrize("key", ["v_max", "accel_var", "omega_var"])
    @pytest.mark.parametrize("value", [-0.01, -25.0, float("nan"), float("inf")])
    def test_bad_prior_rejected(self, key, value):
        with pytest.raises(FilterError, match=f"{key} must be finite and >= 0"):
            FilterConfig(R=np.eye(2), **{key: value})

    def test_zero_priors_accepted(self):
        FilterConfig(R=np.eye(2), v_max=0.0, accel_var=0.0, omega_var=0.0)


def _track(seg, pairs, cfg):
    """The track points of one segment over all ``pairs``, or None when it is skipped."""
    results, warnings = run_trajectory([seg], pairs, cfg)
    assert len(results) + len(warnings) == 1
    return results[0][1] if results else None


class TestRunSegment:
    # one segment through run_trajectory
    def _segment(self, mm=ModelKind.CV, n=50, sig=None):
        return Segment("S1", 0, n - 1, mm, sig or NoiseSigmas(accel=0.1))

    def test_converges_to_constant_measurement(self):
        n = 51
        t = np.arange(n) * 1000
        pairs = _pairs_from_arrays(t, [(5, 5)] * n, [(5, 5)] * n)
        cfg = FilterConfig(R=np.diag([25.0, 25.0]))
        track = _track(self._segment(n=n), pairs, cfg)
        err = np.hypot(track[-1].pos.x - 5, track[-1].pos.y - 5)
        assert err < 0.01

    def test_decays_from_divergent_start(self):
        # long-run steady-state convergence from a 36 m initial offset
        n = 301
        t = np.arange(n) * 1000
        pairs = _pairs_from_arrays(t, [(5, 5)] * n, [(5, 5)] * n)
        pairs[0] = AlignedPair(0, EnuPoint(5, 5), EnuPoint(30.0, -20.0))
        cfg = FilterConfig(R=np.diag([25.0, 25.0]))
        track = _track(self._segment(n=n), pairs, cfg)
        errs = [np.hypot(tp.pos.x - 5, tp.pos.y - 5) for tp in track]
        assert errs[50] < 1.0
        assert errs[-1] < 0.01

    def test_noiseless_cv_flight_tracks_exactly(self):
        n = 30
        t = np.arange(n) * 1000
        truth = [(2.0 * k, 1.0 * k) for k in range(n)]
        pairs = _pairs_from_arrays(t, truth, truth)
        seg = self._segment(n=n)
        track = _track(seg, pairs, FilterConfig(R=estimate_R(pairs)))  # zero error
        for tp, (x, y) in zip(track, truth):
            assert np.hypot(tp.pos.x - x, tp.pos.y - y) < 1e-6

    def test_single_pair_skipped(self):
        pairs = _pairs_from_arrays([0], [(0, 0)], [(0, 0)])
        assert _track(self._segment(n=1), pairs, FilterConfig(R=np.eye(2))) is None

    def test_initializes_at_first_rf_measurement(self):
        pairs = _pairs_from_arrays([0, 1000], [(0, 0), (1, 1)], [(9, 9), (10, 10)])
        track = _track(
            Segment("S1", 0, 1, ModelKind.CV, NoiseSigmas(accel=0.1)),
            pairs,
            FilterConfig(R=np.eye(2)),
        )
        assert (track[0].pos.x, track[0].pos.y) == (9.0, 9.0)


class TestRunTrajectory:
    def _setup(self, n=40):
        rng = np.random.default_rng(0)
        t = np.arange(n) * 1000
        truth = [(1.0 * k, 0.5 * k) for k in range(n)]
        rf = [(x + rng.normal(0, 2), y + rng.normal(0, 2)) for x, y in truth]
        return _pairs_from_arrays(t, truth, rf)

    def test_single_segment_equals_run_segment(self):
        pairs = self._setup()
        seg = Segment("S1", 0, len(pairs) - 1, ModelKind.CV, NoiseSigmas(accel=0.2))
        cfg = FilterConfig(R=np.diag([4.0, 4.0]))
        results, warnings = run_trajectory([seg], pairs, cfg)
        assert not warnings
        t, _, rf = pair_columns(pairs)  # the segment filtered directly, a batch of one
        direct, _ = ekf._run_batch([seg], t, rf, [slice(0, len(pairs))], cfg)[0]
        assert all(
            np.allclose(a.state.s, s) for a, s in zip(results[0][1], direct)
        )

    def test_segments_independent(self):
        pairs = self._setup()
        s1 = Segment("S1", 0, 19, ModelKind.CV, NoiseSigmas(accel=0.2))
        s2 = Segment("S2", 20, 39, ModelKind.CV, NoiseSigmas(accel=0.2))
        cfg = FilterConfig(R=np.diag([4.0, 4.0]))
        both, _ = run_trajectory([s1, s2], pairs, cfg)
        only_s2, _ = run_trajectory([s2], pairs[20:], cfg, indices=range(20, 40))
        for a, b in zip(both[1][1], only_s2[0][1]):
            assert np.array_equal(a.state.s, b.state.s)
            assert np.array_equal(a.state.P, b.state.P)

    def test_order_permutation_invariant(self):
        pairs = self._setup()
        s1 = Segment("S1", 0, 19, ModelKind.CV, NoiseSigmas(accel=0.2))
        s2 = Segment("S2", 20, 39, ModelKind.CV, NoiseSigmas(accel=0.2))
        cfg = FilterConfig(R=np.diag([4.0, 4.0]))
        a, _ = run_trajectory([s1, s2], pairs, cfg)
        b, _ = run_trajectory([s2, s1], pairs, cfg)
        assert [seg.id for seg, _ in a] == [seg.id for seg, _ in b]
        for (_, ta), (_, tb) in zip(a, b):
            assert all(np.array_equal(x.state.s, y.state.s) for x, y in zip(ta, tb))

    @given(
        st.sets(st.integers(0, 300), max_size=50).map(sorted),
        st.integers(-3, 303),
        st.integers(0, 40),
    )
    @example([0, 5, 10], 1, 3)  # segment inside a gap: no pairs
    @example([0, 5, 10], 5, 0)  # one-pair segment
    @example([], 0, 10)
    def test_segment_partition_matches_brute_force(self, indices, start, span):
        seg = Segment("S1", start, start + span, ModelKind.CV, NoiseSigmas(accel=0.2))
        brute = [i for i in indices if seg.start_idx <= i <= seg.end_idx]
        idx = np.array(indices, dtype=np.int64)  # as track passes the kept positions
        z = np.c_[idx, np.zeros(len(idx))].astype(float)
        tracks, _ = filter_segments([seg], 1000 * idx, z, idx, FilterConfig(R=np.eye(2)))
        assert [idx[tr.rows].tolist() for tr in tracks] == ([brute] if len(brute) >= 2 else [])

        pairs = _pairs_from_arrays([1000 * i for i in indices], [(0, 0)] * len(indices),
                                   [(float(i), 0.0) for i in indices])
        cfg = FilterConfig(R=np.eye(2))
        results, warnings = run_trajectory([seg], pairs, cfg, indices=indices)
        tracked = [tp.t_ms for tp in results[0][1]] if results else []
        assert tracked == ([1000 * i for i in brute] if len(brute) >= 2 else [])
        assert len(warnings) == (len(brute) < 2)
        if len(indices) >= 2:
            for bad in (indices[::-1], [indices[0]] + indices[:-1]):
                with pytest.raises(ValueError, match="strictly ascending"):
                    run_trajectory([seg], pairs, cfg, indices=bad)

    def test_truncation_equivalence(self):
        # causal: estimate at epoch k ignores later measurements
        pairs = self._setup()
        seg_full = Segment("S1", 0, 39, ModelKind.CV, NoiseSigmas(accel=0.2))
        seg_half = Segment("S1", 0, 19, ModelKind.CV, NoiseSigmas(accel=0.2))
        cfg = FilterConfig(R=np.diag([4.0, 4.0]))
        full = _track(seg_full, pairs, cfg)
        half = _track(seg_half, pairs[:20], cfg)
        for a, b in zip(full[:20], half):
            assert np.allclose(a.state.s, b.state.s)


class TestCovarianceHealth:
    def test_symmetric_psd_through_cycles(self):
        rng = np.random.default_rng(123)
        for mm in ModelKind:
            n = mm.state_dim
            sig = NoiseSigmas(accel=0.5, jerk=0.2, omega=0.05)
            meas = MeasurementModel(measurement_matrix(mm), np.diag([25.0, 25.0]))
            fs = FilterState(rng.normal(size=n), np.diag(rng.uniform(1, 100, n)), 0)
            for _ in range(300):
                T = rng.uniform(0.1, 2.0)
                fs = predict(fs, mm, T, process_noise(mm, T, sig))
                fs = update(fs, EnuPoint(*rng.normal(0, 30, 2)), meas)
                assert np.abs(fs.P - fs.P.T).max() < 1e-9
                assert np.linalg.eigvalsh(fs.P).min() > -1e-9
