import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavtrack.dataio import TimedSample
from uavtrack.geodesy import MAX_RANGE_M, EnuPoint
from uavtrack.tdoa import (
    SPEED_OF_LIGHT,
    ArrayError,
    GeometryError,
    SensorArray,
    cost,
    position_noise_flight,
    simulate_columns,
    simulate_flight,
    TdoaMeasurement,
    simulate_tdoa,
    solve_position,
)

SQUARE = SensorArray(np.array([[-50.0, -50], [50, -50], [-50, 50], [50, 50]]))
CORNERS = SensorArray(np.array([[0.0, 0], [100, 0], [0, 100], [100, 100]]))
README_ARRAY = SensorArray(np.array([[-200.0, -200], [200, -200], [-200, 200], [200, 200]]))


def _rng(seed=0):
    return np.random.default_rng(seed)


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


class TestSimulateTdoa:
    def test_center_of_square_all_zero(self):
        m = simulate_tdoa(SQUARE, EnuPoint(0, 0), 0.0, _rng())
        assert all(abs(dt) < 1e-15 for _, dt in m.deltas)

    def test_two_sensor_direct_distance(self):
        arr = SensorArray(np.array([[0.0, 0], [100, 0]]))
        m = simulate_tdoa(arr, EnuPoint(0, 0), 0.0, _rng())
        assert len(m.deltas) == 1
        idx, dt = m.deltas[0]
        assert idx == 1
        assert dt == pytest.approx(100.0 / SPEED_OF_LIGHT, rel=1e-12)

    def test_deterministic_under_seed(self):
        a = simulate_tdoa(SQUARE, EnuPoint(10, 20), 1e-9, _rng(7))
        b = simulate_tdoa(SQUARE, EnuPoint(10, 20), 1e-9, _rng(7))
        assert a == b

    def test_reference_excluded(self):
        m = simulate_tdoa(SQUARE, EnuPoint(5, 5), 0.0, _rng())
        assert all(i != SQUARE.reference_idx for i, _ in m.deltas)

    @pytest.mark.parametrize("sigma_t", [-1e-9, float("nan")])
    def test_bad_sigma_rejected(self, sigma_t):
        # a NaN jitter sigma would otherwise give noiseless deltas
        with pytest.raises(ValueError, match=f"sigma_t must be >= 0, got {sigma_t}"):
            simulate_tdoa(SQUARE, EnuPoint(5, 5), sigma_t, _rng())


class TestSolvePosition:
    def test_noiseless_exact_recovery(self):
        m = simulate_tdoa(CORNERS, EnuPoint(30, 40), 0.0, _rng())
        fix = solve_position(CORNERS, m, CORNERS.centroid)
        assert fix.converged
        assert np.hypot(fix.pos.x - 30, fix.pos.y - 40) < 1e-6

    def test_noiseless_round_trip_random_targets(self):
        rng = _rng(3)
        for _ in range(100):
            p = EnuPoint(rng.uniform(-49, 49), rng.uniform(-49, 49))
            m = simulate_tdoa(SQUARE, p, 0.0, rng)
            fix = solve_position(SQUARE, m, SQUARE.centroid)
            assert np.hypot(fix.pos.x - p.x, fix.pos.y - p.y) < 1e-6

    def test_noisy_near_grid_minimum(self):
        # brute-force grid oracle at 0.5 m over a local window
        rng = _rng(11)
        truth = EnuPoint(30, 40)
        m = simulate_tdoa(CORNERS, truth, 3.3e-9, rng)
        fix = solve_position(CORNERS, m, CORNERS.centroid)
        xs = np.arange(truth.x - 20, truth.x + 20, 0.5)
        ys = np.arange(truth.y - 20, truth.y + 20, 0.5)
        best, best_c = None, np.inf
        for x in xs:
            for y in ys:
                c = cost(CORNERS, m, EnuPoint(x, y))
                if c < best_c:
                    best, best_c = (x, y), c
        assert np.hypot(fix.pos.x - best[0], fix.pos.y - best[1]) < 1.0

    def test_descent_property(self):
        rng = _rng(5)
        for _ in range(20):
            p = EnuPoint(rng.uniform(-40, 40), rng.uniform(-40, 40))
            m = simulate_tdoa(SQUARE, p, 2e-9, rng)
            init = EnuPoint(rng.uniform(-40, 40), rng.uniform(-40, 40))
            fix = solve_position(SQUARE, m, init)
            assert cost(SQUARE, m, fix.pos) <= cost(SQUARE, m, init) + 1e-12

    def test_translation_equivariance(self):
        shift = np.array([123.0, -456.0])
        arr2 = SensorArray(SQUARE.positions + shift)
        p = EnuPoint(10, 20)
        m1 = simulate_tdoa(SQUARE, p, 0.0, _rng())
        m2 = simulate_tdoa(arr2, EnuPoint(p.x + shift[0], p.y + shift[1]), 0.0, _rng())
        f1 = solve_position(SQUARE, m1, SQUARE.centroid)
        f2 = solve_position(arr2, m2, arr2.centroid)
        assert f2.pos.x - f1.pos.x == pytest.approx(shift[0], abs=1e-9)
        assert f2.pos.y - f1.pos.y == pytest.approx(shift[1], abs=1e-9)

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
        centroid = np.array([arr.centroid.x, arr.centroid.y])
        turned = SensorArray((arr.positions - centroid) @ rot.T + centroid)
        p = np.array(target) + centroid
        p_turned = rot @ (p - centroid) + centroid
        f1 = solve_position(arr, simulate_tdoa(arr, EnuPoint(*p), 0.0, _rng()), arr.centroid)
        f2 = solve_position(turned, simulate_tdoa(turned, EnuPoint(*p_turned), 0.0, _rng()), turned.centroid)
        expected = rot @ (np.array([f1.pos.x, f1.pos.y]) - centroid) + centroid
        assert np.hypot(f2.pos.x - expected[0], f2.pos.y - expected[1]) <= 1e-6

    def test_two_sensors_degenerate(self):
        arr = SensorArray(np.array([[0.0, 0], [100, 0]]))
        m = simulate_tdoa(arr, EnuPoint(10, 10), 0.0, _rng())
        with pytest.raises(GeometryError):
            solve_position(arr, m, EnuPoint(0, 0))

    def test_collinear_sensors_degenerate(self):
        arr = SensorArray(np.array([[0.0, 0], [100, 0], [200, 0]]))
        m = simulate_tdoa(arr, EnuPoint(50, 0), 0.0, _rng())
        with pytest.raises(GeometryError):
            solve_position(arr, m, EnuPoint(50, 0))

    def test_target_on_a_baseline_extension_is_solved(self):
        # beyond sensor 1 on the line through the reference, |rd_1| equals
        # the baseline; with half a metre more no hyperbola of sensor 1
        # exists, yet the other sensors pin the least-squares fix
        m = simulate_tdoa(README_ARRAY, EnuPoint(400, -200), 0.0, _rng())
        assert abs(m.deltas[0][1]) * SPEED_OF_LIGHT == 400.0
        excess = TdoaMeasurement(0, ((1, m.deltas[0][1] - 0.5 / SPEED_OF_LIGHT),) + m.deltas[1:])
        for meas in (m, excess):
            fix = solve_position(README_ARRAY, meas, README_ARRAY.centroid)
            assert fix.converged
            assert np.hypot(fix.pos.x - 400, fix.pos.y + 200) < 1e-6

    def test_monotone_degradation_with_noise(self):
        rng = _rng(9)
        rmse = []
        for sigma_ns in (0.0, 1.0, 3.0, 10.0):
            errs = []
            for k in range(200):
                p = EnuPoint(rng.uniform(-45, 45), rng.uniform(-45, 45))
                m = simulate_tdoa(SQUARE, p, sigma_ns * 1e-9, rng)
                fix = solve_position(SQUARE, m, SQUARE.centroid)
                errs.append(np.hypot(fix.pos.x - p.x, fix.pos.y - p.y))
            rmse.append(np.sqrt(np.mean(np.square(errs))))
        assert all(a <= b + 1e-9 for a, b in zip(rmse, rmse[1:]))


class TestSimulateFlight:
    def _truth(self, n=20):
        return [TimedSample(1000 * k, EnuPoint(2.0 * k - 20, 1.0 * k - 10)) for k in range(n)]

    def test_noiseless_chain_matches_truth(self):
        rf, dropped = simulate_flight(self._truth(), SQUARE, 0.0, rng_seed=1)
        assert dropped == 0
        for t, r in zip(self._truth(), rf):
            assert np.hypot(t.pos.x - r.pos.x, t.pos.y - r.pos.y) < 1e-5

    def test_deterministic_under_seed(self):
        a, _ = simulate_flight(self._truth(), SQUARE, 2e-9, rng_seed=42)
        b, _ = simulate_flight(self._truth(), SQUARE, 2e-9, rng_seed=42)
        assert a == b

    def test_decimation(self):
        truth = [TimedSample(100 * k, EnuPoint(0.1 * k, 0)) for k in range(100)]
        rf, _ = simulate_flight(truth, SQUARE, 0.0, rng_seed=1, decimate_ms=1000)
        assert [s.t_ms for s in rf] == list(range(0, 10000, 1000))

    @pytest.mark.parametrize("arr", [SQUARE, None], ids=["tdoa", "position"])
    def test_negative_sigma_rejected(self, arr):
        t_ms, xy = np.arange(0, 5000, 1000), np.zeros((5, 2))
        with pytest.raises(ValueError, match="sigma must be >= 0, got -1.0"):
            simulate_columns(t_ms, xy, -1.0, 1, None, 0.0, 0.0, arr=arr)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="empty ground-truth trajectory"):
            simulate_columns(np.empty(0, np.int64), np.empty((0, 2)), 0.0, 1, 1000, 0.0, 0.0, arr=SQUARE)

    def test_decreasing_timestamps_rejected(self):
        truth = [TimedSample(t, EnuPoint(0.0, 0.0)) for t in (0, 1000, 500)]
        with pytest.raises(ValueError, match="must not decrease"):
            simulate_flight(truth, SQUARE, 0.0, rng_seed=1)

    def test_dropped_epochs_leave_gaps_in_the_grid(self):
        # truth on the line of a collinear array: every start is rank-deficient
        arr = SensorArray(np.array([[0.0, 0], [100, 0], [200, 0]]))
        truth = [TimedSample(100 * k, EnuPoint(50 + 0.5 * k, 0)) for k in range(50)]
        rf, dropped = simulate_flight(truth, arr, 1e-9, rng_seed=1, decimate_ms=1000)
        assert rf == []
        assert dropped == 5  # grid epochs 0, 1000, ..., 4000

    def test_fix_past_geodesy_limit_dropped(self, caplog):
        # glitches of up to 2 km on a target 49.5 km out throw some fixes past 50 km
        truth = [TimedSample(1000 * k, EnuPoint(49_500.0, 0.0)) for k in range(40)]
        with caplog.at_level(logging.WARNING, logger="uavtrack.tdoa"):
            rf, dropped = position_noise_flight(truth, 0.0, 5, 1000, 0.5, 2000.0)
        kept = [r.t_ms for r in rf]
        far = [s.t_ms for s in truth if s.t_ms not in kept]
        assert far and dropped == len(far)
        assert [r.getMessage() for r in caplog.records] == [
            f"epoch {t}: fix beyond 50 km of the origin, dropping" for t in far
        ]
        assert all(np.hypot(r.pos.x, r.pos.y) <= MAX_RANGE_M for r in rf)

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
            m = TdoaMeasurement(t, tuple(zip([1, 2, 3], dt[k].tolist())))
            with pytest.raises(GeometryError) as exc:
                solve_position(README_ARRAY, m, README_ARRAY.centroid)
            if beyond[k]:
                assert cause == "range difference exceeds sensor baseline, dropping"
                assert str(exc.value).startswith("range difference exceeds sensor baseline")
            else:
                assert cause == "rank-deficient geometry at every start, dropping"
                assert "collinear sensors?" in str(exc.value)

    def test_outlier_injection(self):
        rf, _ = simulate_flight(
            self._truth(100), SQUARE, 0.0, rng_seed=3, outlier_rate=0.5, outlier_max_m=200.0
        )
        errs = [np.hypot(t.pos.x - r.pos.x, t.pos.y - r.pos.y) for t, r in zip(self._truth(100), rf)]
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
