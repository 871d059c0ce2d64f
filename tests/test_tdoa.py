import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavtrack.geodesy import MAX_RANGE_M
from uavtrack.tdoa import (
    SPEED_OF_LIGHT, ArrayError, SensorArray, _arrival_differences, _fixes, _range_residuals, simulate_columns,
)

SQUARE = SensorArray(np.array([[-50.0, -50], [50, -50], [-50, 50], [50, 50]]))
CORNERS = SensorArray(np.array([[0.0, 0], [100, 0], [0, 100], [100, 100]]))
README_ARRAY = SensorArray(np.array([[-200.0, -200], [200, -200], [-200, 200], [200, 200]]))


def _rng(seed=0):
    return np.random.default_rng(seed)


def _range_differences(arr, xy, jitter=0.0):
    """Sensor indices and range differences c·Δτ (E, m) of emitters at ``xy`` (E, 2) with timing ``jitter``."""
    idx, dt = _arrival_differences(arr, np.asarray(xy, dtype=float).reshape(-1, 2), jitter)
    return idx, SPEED_OF_LIGHT * dt


def _solve(arr, idx, rd, init=None):
    """Fixes (E, 2), NaN where lost, RMS residuals and converged flags of the epochs ``rd`` (E, m),
    each solved from ``init`` (E, 2), the array centroid by default, and the sensor starts."""
    if init is None:
        init = np.tile(arr.positions.mean(axis=0), (len(rd), 1))
    return _fixes(arr, idx, rd, np.asarray(init, dtype=float).reshape(-1, 2))


def _cost(arr, idx, rd, p):
    """Sum of squared range-difference residuals of one epoch ``rd`` (1, m) at each point of ``p`` (N, 2)."""
    pos = arr.positions
    r = _range_residuals(pos[idx], pos[arr.reference_idx], rd.T, np.asarray(p, dtype=float).reshape(-1, 2).T)[0]
    return np.sum(r * r, axis=0)


class TestSensorArray:
    def test_too_few_sensors(self):
        with pytest.raises(ArrayError):
            SensorArray(np.array([[0.0, 0]]))

    def test_too_close_sensors(self):
        with pytest.raises(ArrayError):
            SensorArray(np.array([[0.0, 0], [0.5, 0], [100, 0]]))

    def test_bad_reference(self):
        with pytest.raises(ArrayError):
            SensorArray(np.array([[0.0, 0], [100, 0], [0, 100]]), reference_idx=5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_position_rejected(self, value):
        # a NaN distance fails no "closer than 1 m" test, so the array has to check itself
        with pytest.raises(ArrayError, match="sensor positions must be finite"):
            SensorArray(np.array([[0.0, 0], [100, 0], [0, 100], [value, 200]]))


class TestSimulateTdoa:
    def test_center_of_square_all_zero(self):
        _, dt = _arrival_differences(SQUARE, np.zeros((1, 2)), 0.0)
        assert np.all(np.abs(dt) < 1e-15)

    def test_two_sensor_direct_distance(self):
        arr = SensorArray(np.array([[0.0, 0], [100, 0]]))
        idx, dt = _arrival_differences(arr, np.zeros((1, 2)), 0.0)
        assert idx == [1] and dt.shape == (1, 1)
        assert dt[0, 0] == pytest.approx(100.0 / SPEED_OF_LIGHT, rel=1e-12)

    def test_reference_excluded(self):
        arr = SensorArray(SQUARE.positions, reference_idx=2)
        idx, dt = _arrival_differences(arr, np.array([[5.0, 5.0]]), 0.0)
        assert idx == [0, 1, 3] and dt.shape == (1, 3)

    @pytest.mark.parametrize("sigma_t", [-1e-9, float("nan")])
    def test_bad_sigma_rejected(self, sigma_t):
        # a NaN jitter sigma would otherwise give noiseless deltas
        with pytest.raises(ValueError, match=f"sigma must be >= 0, got {sigma_t}"):
            simulate_columns(np.array([0]), np.array([[5.0, 5.0]]), sigma_t, 0, None, 0.0, 0.0, arr=SQUARE)


class TestSolvePosition:
    def test_noiseless_exact_recovery(self):
        fix, _, converged = _solve(CORNERS, *_range_differences(CORNERS, [30, 40]))
        assert converged[0]
        assert np.hypot(fix[0, 0] - 30, fix[0, 1] - 40) < 1e-6

    def test_noiseless_round_trip_random_targets(self):
        xy = _rng(3).uniform(-49, 49, (100, 2))
        fix, _, _ = _solve(SQUARE, *_range_differences(SQUARE, xy))
        assert np.all(np.hypot(*(fix - xy).T) < 1e-6)

    def test_noisy_near_grid_minimum(self):
        # brute-force grid oracle at 0.5 m over a local window
        truth = np.array([30.0, 40.0])
        idx, rd = _range_differences(CORNERS, truth, _rng(11).normal(0.0, 3.3e-9, (1, 3)))
        fix = _solve(CORNERS, idx, rd)[0][0]
        xs = np.arange(truth[0] - 20, truth[0] + 20, 0.5)
        ys = np.arange(truth[1] - 20, truth[1] + 20, 0.5)
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        best = grid[np.argmin(_cost(CORNERS, idx, rd, grid))]
        assert np.hypot(*(fix - best)) < 1.0

    def test_descent_property(self):
        rng = _rng(5)
        for _ in range(20):
            p = rng.uniform(-40, 40, 2)
            idx, rd = _range_differences(SQUARE, p, rng.normal(0.0, 2e-9, (1, 3)))
            init = rng.uniform(-40, 40, (1, 2))
            fix = _solve(SQUARE, idx, rd, init)[0]
            assert _cost(SQUARE, idx, rd, fix)[0] <= _cost(SQUARE, idx, rd, init)[0] + 1e-12

    def test_translation_equivariance(self):
        shift = np.array([123.0, -456.0])
        arr2 = SensorArray(SQUARE.positions + shift)
        p = np.array([10.0, 20.0])
        f1 = _solve(SQUARE, *_range_differences(SQUARE, p))[0][0]
        f2 = _solve(arr2, *_range_differences(arr2, p + shift))[0][0]
        assert f2 - f1 == pytest.approx(shift, abs=1e-9)

    @settings(deadline=None, max_examples=200)
    @given(
        theta=st.floats(0.0, 2 * np.pi),
        target=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
        offset=st.tuples(st.floats(-1000.0, 1000.0), st.floats(-1000.0, 1000.0)),
    )
    def test_rotation_equivariance(self, theta, target, offset):
        # rotating the array and the target about the centroid rotates the
        # noiseless fix; the array is off the origin so the centroid matters
        arr = SensorArray(README_ARRAY.positions + offset)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        centroid = arr.positions.mean(axis=0)
        turned = SensorArray((arr.positions - centroid) @ rot.T + centroid)
        p = np.array(target) + centroid
        p_turned = rot @ (p - centroid) + centroid
        f1 = _solve(arr, *_range_differences(arr, p))[0][0]
        f2 = _solve(turned, *_range_differences(turned, p_turned))[0][0]
        expected = rot @ (f1 - centroid) + centroid
        assert np.hypot(*(f2 - expected)) <= 1e-6

    def test_two_sensors_degenerate(self):
        # one range difference: every start is rank-deficient and the epoch is lost
        arr = SensorArray(np.array([[0.0, 0], [100, 0]]))
        idx, rd = _range_differences(arr, [10, 10])
        assert np.isnan(_solve(arr, idx, rd, [[0.0, 0.0]])[0]).all()

    def test_collinear_sensors_degenerate(self):
        arr = SensorArray(np.array([[0.0, 0], [100, 0], [200, 0]]))
        idx, rd = _range_differences(arr, [50, 0])
        assert np.isnan(_solve(arr, idx, rd, [[50.0, 0.0]])[0]).all()

    def test_target_on_a_baseline_extension_is_solved(self):
        # beyond sensor 1 on the line through the reference, |rd_1| equals
        # the baseline; with half a metre more no hyperbola of sensor 1
        # exists, yet the other sensors pin the least-squares fix
        idx, rd = _range_differences(README_ARRAY, [400, -200])
        assert abs(rd[0, 0]) == 400.0
        excess = rd.copy()
        excess[0, 0] -= 0.5
        fix, _, converged = _solve(README_ARRAY, idx, np.vstack([rd, excess]))
        assert converged.all()
        assert np.all(np.hypot(fix[:, 0] - 400, fix[:, 1] + 200) < 1e-6)

    def test_monotone_degradation_with_noise(self):
        rng = _rng(9)
        rmse = []
        for sigma_ns in (0.0, 1.0, 3.0, 10.0):
            xy, jitter = np.empty((200, 2)), np.zeros((200, 3))
            for k in range(200):
                xy[k] = rng.uniform(-45, 45), rng.uniform(-45, 45)
                if sigma_ns > 0:
                    jitter[k] = rng.normal(0.0, sigma_ns * 1e-9, 3)
            fix = _solve(SQUARE, *_range_differences(SQUARE, xy, jitter))[0]
            rmse.append(np.sqrt(np.mean(np.sum((fix - xy) ** 2, axis=1))))
        assert all(a <= b + 1e-9 for a, b in zip(rmse, rmse[1:]))


class TestSimulateFlight:
    def _truth(self, n=20):
        k = np.arange(n)
        return 1000 * k, np.column_stack((2.0 * k - 20, 1.0 * k - 10))

    def test_noiseless_chain_matches_truth(self):
        t_ms, xy = self._truth()
        rf_t, rf, dropped = simulate_columns(t_ms, xy, 0.0, 1, None, 0.0, 200.0, arr=SQUARE)
        assert dropped == 0 and rf_t.tolist() == t_ms.tolist()
        assert np.all(np.hypot(*(rf - xy).T) < 1e-5)

    def test_deterministic_under_seed(self):
        a = simulate_columns(*self._truth(), 2e-9, 42, None, 0.0, 200.0, arr=SQUARE)
        b = simulate_columns(*self._truth(), 2e-9, 42, None, 0.0, 200.0, arr=SQUARE)
        assert a[0].tolist() == b[0].tolist() and a[1].tobytes() == b[1].tobytes() and a[2] == b[2]

    def test_decimation(self):
        k = np.arange(100)
        rf_t, _, _ = simulate_columns(100 * k, np.c_[0.1 * k, np.zeros(100)], 0.0, 1, 1000, 0.0, 200.0, arr=SQUARE)
        assert rf_t.tolist() == list(range(0, 10000, 1000))

    @pytest.mark.parametrize("arr", [SQUARE, None], ids=["tdoa", "position"])
    def test_negative_sigma_rejected(self, arr):
        t_ms, xy = np.arange(0, 5000, 1000), np.zeros((5, 2))
        with pytest.raises(ValueError, match="sigma must be >= 0, got -1.0"):
            simulate_columns(t_ms, xy, -1.0, 1, None, 0.0, 0.0, arr=arr)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="empty ground-truth trajectory"):
            simulate_columns(np.empty(0, np.int64), np.empty((0, 2)), 0.0, 1, 1000, 0.0, 0.0, arr=SQUARE)

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="must not decrease"):
            simulate_columns(np.array([0, 1000, 500]), np.zeros((3, 2)), 0.0, 1, None, 0.0, 200.0, arr=SQUARE)

    def test_dropped_epochs_leave_gaps_in_the_grid(self):
        # truth on the line of a collinear array: every start is rank-deficient
        arr = SensorArray(np.array([[0.0, 0], [100, 0], [200, 0]]))
        k = np.arange(50)
        rf_t, _, dropped = simulate_columns(100 * k, np.c_[50 + 0.5 * k, np.zeros(50)], 1e-9, 1, 1000, 0.0, 200.0,
                                            arr=arr)
        assert rf_t.size == 0
        assert dropped == 5  # grid epochs 0, 1000, ..., 4000

    def test_fix_past_geodesy_limit_dropped(self, caplog):
        # glitches of up to 2 km on a target 49.5 km out throw some fixes past 50 km
        t_ms, xy = 1000 * np.arange(40), np.tile([49_500.0, 0.0], (40, 1))
        with caplog.at_level(logging.WARNING, logger="uavtrack.tdoa"):
            rf_t, rf, dropped = simulate_columns(t_ms, xy, 0.0, 5, 1000, 0.5, 2000.0)
        far = sorted(set(t_ms.tolist()) - set(rf_t.tolist()))
        assert far and dropped == len(far)
        assert [r.getMessage() for r in caplog.records] == [
            f"epoch {t}: fix beyond 50 km of the origin, dropping" for t in far
        ]
        assert np.all(np.hypot(rf[:, 0], rf[:, 1]) <= MAX_RANGE_M)

    def test_lost_epochs_name_their_cause(self, caplog):
        # 600 m of timing noise on the README array: most lost epochs have a
        # range difference beyond its sensor baseline, and their descent ran
        # away; one is lost to rank-deficiency alone and one lands past 50 km
        n = 100
        xy = _rng(1).uniform(-600, 600, (n, 2))
        t_ms = 1000 * np.arange(n)
        with caplog.at_level(logging.WARNING, logger="uavtrack.tdoa"):
            got_t, _, dropped = simulate_columns(t_ms, xy, 2e-6, 7, None, 0.0, 200.0, arr=README_ARRAY)
        lost = sorted(set(t_ms.tolist()) - set(got_t.tolist()))
        assert dropped == len(lost)

        # the flight's noise is its first draw, one (E, m) array
        pos = README_ARRAY.positions
        d = np.linalg.norm(pos - xy[:, None, :], axis=-1)
        dt = (d[:, 1:] - d[:, :1]) / SPEED_OF_LIGHT + _rng(7).normal(0.0, 2e-6, (n, 3))
        beyond = np.any(np.abs(SPEED_OF_LIGHT * dt) >= np.linalg.norm(pos[1:] - pos[0], axis=1), axis=1)
        causes = {}
        for msg in (r.getMessage() for r in caplog.records):
            if msg.startswith("epoch "):
                t, cause = msg.removeprefix("epoch ").split(": ", 1)
                causes[int(t)] = cause
        assert sorted(causes) == lost
        assert sum(c == "range difference exceeds sensor baseline, dropping" for c in causes.values()) == 27
        for t, cause in causes.items():
            k = t // 1000
            if cause == "fix beyond 50 km of the origin, dropping":
                continue
            # every start of the epoch is rank-deficient
            assert np.isnan(_solve(README_ARRAY, [1, 2, 3], SPEED_OF_LIGHT * dt[k : k + 1])[0]).all()
            if beyond[k]:
                assert cause == "range difference exceeds sensor baseline, dropping"
            else:
                assert cause == "rank-deficient geometry at every start, dropping"

    def test_outlier_injection(self):
        t_ms, xy = self._truth(100)
        _, rf, _ = simulate_columns(t_ms, xy, 0.0, 3, None, 0.5, 200.0, arr=SQUARE)
        errs = np.hypot(*(rf - xy).T)
        assert max(errs) > 10  # some glitches injected
        assert max(errs) <= 200 + 1e-6


class TestFlightStream:
    """Statistics of the one generator per flight, over 20,000 position-noise epochs at the origin."""

    N = 20_000
    SIGMA = 4.0

    def _fixes(self, outlier_rate):
        t_ms = 1000 * np.arange(self.N, dtype=np.int64)
        got_t, fix, dropped = simulate_columns(t_ms, np.zeros((self.N, 2)), self.SIGMA, 11, 1000, outlier_rate, 150.0)
        assert dropped == 0 and got_t.tolist() == t_ms.tolist()
        return fix

    def test_noise_moments(self):
        fix = self._fixes(0.0)
        # five standard errors: sigma/sqrt(N) for a mean, about sigma/sqrt(2N) for a std
        assert np.all(np.abs(fix.mean(axis=0)) < 5 * self.SIGMA / np.sqrt(self.N))
        assert np.all(np.abs(fix.std(axis=0, ddof=1) - self.SIGMA) < 5 * self.SIGMA / np.sqrt(2 * self.N))
        assert abs(np.corrcoef(fix.T)[0, 1]) < 5 / np.sqrt(self.N)

    def test_glitches_drawn_after_the_noise(self):
        rate, max_m = 0.3, 150.0
        # the noise comes first in the stream, so the same seed without
        # outliers gives the same noise and the difference is the glitch
        offset = self._fixes(rate) - self._fixes(0.0)
        hit = np.any(offset != 0.0, axis=1)
        k = int(hit.sum())
        assert abs(k - rate * self.N) < 5 * np.sqrt(self.N * rate * (1 - rate))
        radius = np.hypot(offset[:, 0], offset[:, 1])
        assert radius.max() <= max_m + 1e-9
        # uniform in the disk: half the glitches lie within max_m / sqrt(2)
        assert abs(np.count_nonzero(radius[hit] <= max_m / np.sqrt(2)) - k / 2) < 5 * np.sqrt(k / 4)


class TestCramerRaoBound:
    """Solver RMS error against c·σ_t·GDOP at σ_t 3.3 ns on the README array.

    Each TDoA carries i.i.d. timing jitter, so the range differences have
    covariance (c·σ_t)²·I and the efficient estimator's position RMS is
    c·σ_t·√tr((JᵀJ)⁻¹), J the range-difference Jacobian at the target. At
    this noise the fix is near-linear in the jitter and the solver should
    attain the bound.
    """

    N = 4000
    SIGMA_T = 3.3e-9

    @staticmethod
    def _gdop(p: np.ndarray) -> float:
        s = README_ARRAY.positions
        u = (p - s) / np.linalg.norm(p - s, axis=1)[:, None]  # unit vectors sensor -> target
        ref = README_ARRAY.reference_idx
        J = np.delete(u, ref, axis=0) - u[ref]
        return float(np.sqrt(np.trace(np.linalg.inv(J.T @ J))))

    @pytest.mark.parametrize(
        "point", [(50, 50), (20, 70), (90, 10), (150, -40), (-60, 130), (250, 250), (500, 0)]
    )
    def test_rms_error_attains_bound(self, point):
        p = np.array(point, dtype=float)
        xy = np.tile(p, (self.N, 1))
        _, fix, dropped = simulate_columns(
            1000 * np.arange(self.N, dtype=np.int64), xy, self.SIGMA_T, 7, 1000, 0.0, 0.0, arr=README_ARRAY
        )
        assert dropped == 0
        rms = np.sqrt(np.mean(np.sum((fix - xy) ** 2, axis=1)))
        gdop = self._gdop(p)
        assert gdop < 10
        # 4,000 draws put one standard error of the RMS at about 1%
        assert rms / (SPEED_OF_LIGHT * self.SIGMA_T * gdop) == pytest.approx(1.0, abs=0.05)
