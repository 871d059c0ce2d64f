import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from uavtrack import ekf
from uavtrack.dataio import Segment
from uavtrack.ekf import FilterConfig, FilterError, estimate_R_arrays, filter_segments
from uavtrack.motionmodels import (
    LAYOUT, ModelKind, NoiseSigmas, noise_rows, process_noise_rows, propagate_rows, sigma_rows, state_mask,
)


def _predict(s, P, T, Q, turn=False):
    """The filter's time update of one state ``s`` (7,) and covariance ``P`` (7, 7) in the common layout."""
    f, F = propagate_rows(np.array(s, dtype=float)[:, None], np.array([T]), np.array([turn]))
    return f[:, 0], ekf._predict_cov(F, P[None], Q[None])[0]


def _update(s, P, z, R):
    """The filter's measurement update of one state ``s`` (n,) and covariance ``P`` (n, n) with the fix ``z``:
    the updated state and covariance, and False where the innovation covariance is singular."""
    s, P, _, ok = ekf._update_step(np.array([s], dtype=float), P[None], np.array([z], dtype=float),
                                   np.eye(2, len(s)), np.asarray(R, dtype=float))
    return s[0], P[0], ok[0]


class TestPredict:
    def test_cv_mean_and_covariance(self):
        s, P = _predict([0.0, 0, 1, 0, 0, 0, 0], np.diag([1.0, 1, 1, 1, 0, 0, 0]), 1.0, np.zeros((7, 7)))
        assert np.allclose(s, [1, 0, 1, 0, 0, 0, 0])
        assert P[0, 0] == pytest.approx(2.0)
        assert P[0, 2] == pytest.approx(1.0)

    def test_deterministic_propagation(self):
        _, P = _predict([1.0, 2, 3, 4, 0, 0, 0], np.zeros((7, 7)), 0.5, np.zeros((7, 7)))
        assert np.all(P == 0)

    def test_ct_matches_matrix_product_oracle(self):
        s = np.array([0.0, 0, 1, 0, 0, 0, np.pi / 2])
        P = np.diag([1.0, 2, 3, 4, 0, 0, 0.5])
        Q = process_noise_rows(np.array([1.0]), noise_rows(sigma_rows([NoiseSigmas(accel=0.3, omega=0.05)]),
                                                           state_mask([ModelKind.CT])))[0]
        out_s, out_P = _predict(s, P, 1.0, Q, turn=True)
        f, F = propagate_rows(s[:, None], np.array([1.0]), np.array([True]))
        assert np.allclose(out_s, f[:, 0])
        assert np.allclose(out_P, F[0] @ P @ F[0].T + Q, atol=1e-12)


class TestUpdate:
    def test_scalar_gain_half(self):
        s, _, _ = _update([0.0, 0, 0, 0], np.eye(4), [2.0, 2.0], np.eye(2))
        assert np.allclose(s[:2], [1.0, 1.0])

    def test_no_trust_limit(self):
        s0 = np.array([3.0, 4, 1, 1])
        s, _, _ = _update(s0, np.eye(4), [100.0, -100.0], 1e12 * np.eye(2))
        assert np.allclose(s, s0, atol=1e-6)

    def test_full_trust_limit(self):
        s, _, _ = _update([3.0, 4, 1, 1], np.eye(4), [7.0, 8.0], np.zeros((2, 2)))
        assert np.allclose(s[:2], [7.0, 8.0], atol=1e-12)

    def test_never_increases_position_covariance(self):
        rng = np.random.default_rng(1)
        H = np.eye(2, 4)
        for _ in range(50):
            A = rng.normal(size=(4, 4))
            P = A @ A.T + 1e-6 * np.eye(4)
            R = np.diag(rng.uniform(0.1, 10, 2))
            _, out_P, _ = _update(rng.normal(size=4), P, rng.normal(size=2), R)
            before = np.trace(H @ P @ H.T)
            after = np.trace(H @ out_P @ H.T)
            assert after <= before + 1e-9

    def test_singular_innovation(self):
        with np.errstate(all="ignore"):
            _, _, ok = _update(np.zeros(4), np.zeros((4, 4)), [0.0, 0.0], np.zeros((2, 2)))
        assert not ok


class TestEstimateR:
    def test_zero_error(self):
        xy = np.array([(1.0, 2), (3, 4)])
        assert np.all(estimate_R_arrays(xy, xy) == 0)

    def test_mean_mode(self):
        uav, rf = np.zeros((3, 2)), np.array([(3.0, 0), (0, 4), (5, 0)])
        assert np.allclose(estimate_R_arrays(uav, rf, "mean"), np.diag([4.0, 4.0]))

    def test_mse_mode(self):
        uav, rf = np.zeros((2, 2)), np.array([(3.0, -4), (3, -4)])
        assert np.allclose(estimate_R_arrays(uav, rf, "mse"), np.diag([9.0, 16.0]))

    def test_empty(self):
        with pytest.raises(FilterError):
            estimate_R_arrays(np.empty((0, 2)), np.empty((0, 2)))


class TestFilterConfig:
    @pytest.mark.parametrize("key", ["v_max", "accel_var", "omega_var"])
    @pytest.mark.parametrize("value", [-0.01, -25.0, float("nan"), float("inf")])
    def test_bad_prior_rejected(self, key, value):
        with pytest.raises(FilterError, match=f"{key} must be finite and >= 0"):
            FilterConfig(R=np.eye(2), **{key: value})

    def test_zero_priors_accepted(self):
        FilterConfig(R=np.eye(2), v_max=0.0, accel_var=0.0, omega_var=0.0)


def _track(seg, t_ms, z, cfg):
    """The (K, n) states of one segment over every fix ``z`` (K, 2) at ``t_ms`` (K,), or None when it is skipped."""
    tracks, warnings = filter_segments([seg], np.asarray(t_ms), np.asarray(z, dtype=float), np.arange(len(t_ms)), cfg)
    assert len(tracks) + len(warnings) == 1
    return tracks[0].states if tracks else None


class TestRunSegment:
    # one segment through filter_segments
    def _segment(self, mm=ModelKind.CV, n=50, sig=None):
        return Segment("S1", 0, n - 1, mm, sig or NoiseSigmas(accel=0.1))

    def test_converges_to_constant_measurement(self):
        n = 51
        cfg = FilterConfig(R=np.diag([25.0, 25.0]))
        track = _track(self._segment(n=n), np.arange(n) * 1000, np.full((n, 2), 5.0), cfg)
        assert np.hypot(*(track[-1, :2] - 5)) < 0.01

    def test_decays_from_divergent_start(self):
        # long-run steady-state convergence from a 36 m initial offset
        n = 301
        z = np.full((n, 2), 5.0)
        z[0] = (30.0, -20.0)
        cfg = FilterConfig(R=np.diag([25.0, 25.0]))
        track = _track(self._segment(n=n), np.arange(n) * 1000, z, cfg)
        errs = np.hypot(track[:, 0] - 5, track[:, 1] - 5)
        assert errs[50] < 1.0
        assert errs[-1] < 0.01

    def test_noiseless_cv_flight_tracks_exactly(self):
        n = 30
        truth = np.c_[2.0 * np.arange(n), 1.0 * np.arange(n)]
        cfg = FilterConfig(R=estimate_R_arrays(truth, truth))  # zero error
        track = _track(self._segment(n=n), np.arange(n) * 1000, truth, cfg)
        assert np.all(np.hypot(*(track[:, :2] - truth).T) < 1e-6)

    def test_single_pair_skipped(self):
        assert _track(self._segment(n=1), [0], [(0, 0)], FilterConfig(R=np.eye(2))) is None

    def test_initializes_at_first_rf_measurement(self):
        seg = Segment("S1", 0, 1, ModelKind.CV, NoiseSigmas(accel=0.1))
        track = _track(seg, [0, 1000], [(9, 9), (10, 10)], FilterConfig(R=np.eye(2)))
        assert track[0, :2].tolist() == [9.0, 9.0]


class TestRunTrajectory:
    def _setup(self, n=40):
        """Times (n,) and noisy fixes (n, 2) of a straight flight."""
        rng = np.random.default_rng(0)
        truth = [(1.0 * k, 0.5 * k) for k in range(n)]
        rf = [(x + rng.normal(0, 2), y + rng.normal(0, 2)) for x, y in truth]
        return np.arange(n) * 1000, np.array(rf)

    def test_single_segment_equals_run_segment(self):
        t, rf = self._setup()
        seg = Segment("S1", 0, len(t) - 1, ModelKind.CV, NoiseSigmas(accel=0.2))
        cfg = FilterConfig(R=np.diag([4.0, 4.0]))
        tracks, warnings = filter_segments([seg], t, rf, np.arange(len(t)), cfg)
        assert not warnings
        direct, _ = ekf._run_batch([seg], t, rf, [slice(0, len(t))], cfg)[0]  # a batch of one
        assert np.allclose(tracks[0].states, direct)

    def test_segments_independent(self):
        t, rf = self._setup()
        s1 = Segment("S1", 0, 19, ModelKind.CV, NoiseSigmas(accel=0.2))
        s2 = Segment("S2", 20, 39, ModelKind.CV, NoiseSigmas(accel=0.2))
        cfg = FilterConfig(R=np.diag([4.0, 4.0]))
        both, _ = filter_segments([s1, s2], t, rf, np.arange(40), cfg)
        only_s2, _ = filter_segments([s2], t[20:], rf[20:], np.arange(20, 40), cfg)
        assert np.array_equal(both[1].states, only_s2[0].states)
        assert np.array_equal(both[1].covs, only_s2[0].covs)

    def test_order_permutation_invariant(self):
        t, rf = self._setup()
        s1 = Segment("S1", 0, 19, ModelKind.CV, NoiseSigmas(accel=0.2))
        s2 = Segment("S2", 20, 39, ModelKind.CV, NoiseSigmas(accel=0.2))
        cfg = FilterConfig(R=np.diag([4.0, 4.0]))
        a, _ = filter_segments([s1, s2], t, rf, np.arange(40), cfg)
        b, _ = filter_segments([s2, s1], t, rf, np.arange(40), cfg)
        assert [tr.segment.id for tr in a] == [tr.segment.id for tr in b]
        assert all(np.array_equal(ta.states, tb.states) for ta, tb in zip(a, b))

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
        tracks, warnings = filter_segments([seg], 1000 * idx, z, idx, FilterConfig(R=np.eye(2)))
        assert [idx[tr.rows].tolist() for tr in tracks] == ([brute] if len(brute) >= 2 else [])
        assert len(warnings) == (len(brute) < 2)

    def test_truncation_equivalence(self):
        # causal: estimate at epoch k ignores later measurements
        t, rf = self._setup()
        seg_full = Segment("S1", 0, 39, ModelKind.CV, NoiseSigmas(accel=0.2))
        seg_half = Segment("S1", 0, 19, ModelKind.CV, NoiseSigmas(accel=0.2))
        cfg = FilterConfig(R=np.diag([4.0, 4.0]))
        full = _track(seg_full, t, rf, cfg)
        half = _track(seg_half, t[:20], rf[:20], cfg)
        assert np.allclose(full[:20], half)


class TestCovarianceHealth:
    def test_symmetric_psd_through_cycles(self):
        # the filter's steps on one state in the common layout
        rng = np.random.default_rng(123)
        H, R = np.eye(2, len(LAYOUT)), np.diag([25.0, 25.0])
        for mm in ModelKind:
            c, n = mm.columns, mm.state_dim
            q = noise_rows(sigma_rows([NoiseSigmas(accel=0.5, jerk=0.2, omega=0.05)]), state_mask([mm]))
            s, P = np.zeros((1, len(LAYOUT))), np.zeros((1, len(LAYOUT), len(LAYOUT)))
            s[0, c] = rng.normal(size=n)
            P[0, c, c] = rng.uniform(1, 100, n)
            for _ in range(300):
                T = np.array([rng.uniform(0.1, 2.0)])
                f, F = propagate_rows(s.T, T, np.array([mm is ModelKind.CT]))
                P = ekf._predict_cov(F, P, process_noise_rows(T, q))
                s, P, _, ok = ekf._update_step(f.T, P, rng.normal(0, 30, (1, 2)), H, R)
                assert ok[0]
                assert np.abs(P[0] - P[0].T).max() < 1e-9
                assert np.linalg.eigvalsh(P[0]).min() > -1e-9
