"""Release gate: one test per acceptance criterion, each printing a verdict line."""

import json
import time

import numpy as np
import pytest
from scipy.stats import chi2

from uavtrack import ekf, metrics, objects, trajgen
from uavtrack.cli import _segments_from_boundaries, main
from uavtrack.geodesy import EnuPoint
from uavtrack.metrics import cdf, euclidean_errors, stats
from uavtrack.motionmodels import ModelKind, NoiseSigmas, measurement_matrix
from uavtrack.objects import (
    AlignedPair,
    FilterState,
    MeasurementModel,
    TimedSample,
    jacobian,
    predict,
    process_noise,
    quantile,
    simulate_flight,
    simulate_tdoa,
    solve_position,
    transition,
    update,
)
from uavtrack.objects import position_noise_flight as _position_noise_flight
from uavtrack.tdoa import SPEED_OF_LIGHT, SensorArray

CORNERS = SensorArray(np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]]))


def _verdict(capfd, num, name, ok):
    with capfd.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


class TestCriterion1RoundTrip:
    def test_noiseless_round_trip(self, capfd):
        rng = np.random.default_rng(1)
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(1000):
            p = EnuPoint(rng.uniform(1, 99), rng.uniform(1, 99))
            m = simulate_tdoa(CORNERS, p, 0.0, rng)
            fix = solve_position(CORNERS, m, CORNERS.centroid)
            worst = max(worst, float(np.hypot(fix.pos.x - p.x, fix.pos.y - p.y)))
        elapsed = time.monotonic() - t0
        _verdict(capfd, 1, "noiseless TDoA round trip", worst < 1e-6 and elapsed < 5.0)


class TestCriterion2GridOracle:
    def test_noisy_solutions_match_brute_force(self, capfd):
        t0 = time.monotonic()
        # per-sensor range-difference grids are target-independent, so the
        # 0.1 m brute-force argmin reduces to one linear combination per case
        xs = np.arange(-100.0, 200.0 + 1e-9, 0.1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        ref = CORNERS.positions[CORNERS.reference_idx]
        d_ref = np.hypot(gx - ref[0], gy - ref[1])
        D = [np.hypot(gx - s[0], gy - s[1]) - d_ref for s in CORNERS.positions[1:]]
        sum_d2 = sum(d * d for d in D)

        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            p = EnuPoint(rng.uniform(1, 99), rng.uniform(1, 99))
            m = simulate_tdoa(CORNERS, p, 3.3e-9, rng)
            ranges = [SPEED_OF_LIGHT * dt for _, dt in m.deltas]
            f = sum_d2 - 2.0 * sum(c * d for c, d in zip(ranges, D))
            i, j = np.unravel_index(np.argmin(f), f.shape)
            fix = solve_position(CORNERS, m, CORNERS.centroid)
            worst = max(worst, float(np.hypot(fix.pos.x - xs[i], fix.pos.y - xs[j])))
        elapsed = time.monotonic() - t0
        _verdict(capfd, 2, "noisy TDoA matches grid oracle", worst < 0.2 and elapsed < 120.0)


class TestCriterion3Jacobians:
    def test_finite_difference_agreement(self, capfd):
        h = 1e-6
        rng = np.random.default_rng(3)
        worst = 0.0
        for mm in ModelKind:
            n = mm.state_dim
            for _ in range(100):
                s = rng.normal(0, 10, n)
                if mm is ModelKind.CT:
                    s[4] = rng.uniform(-1.0, 1.0)
                T = rng.uniform(0.1, 2.0)
                J = jacobian(mm, s, T)
                fd = np.empty((n, n))
                for j in range(n):
                    hi, lo = s.copy(), s.copy()
                    hi[j] += h
                    lo[j] -= h
                    fd[:, j] = (transition(mm, hi, T) - transition(mm, lo, T)) / (2 * h)
                dev = np.abs(J - fd).max() / max(1.0, np.abs(J).max())
                worst = max(worst, float(dev))
        _verdict(capfd, 3, "analytic Jacobians vs finite differences", worst < 1e-5)


class TestCriterion4CovarianceHealth:
    def test_ten_thousand_cycles(self, capfd):
        rng = np.random.default_rng(4)
        ok = True
        for mm in ModelKind:
            n = mm.state_dim
            sig = NoiseSigmas(accel=0.5, jerk=0.2, omega=0.05)
            meas = MeasurementModel(measurement_matrix(mm), np.diag([25.0, 25.0]))
            fs = FilterState(rng.normal(size=n), np.diag(rng.uniform(1, 100, n)), 0)
            for _ in range(3334):
                T = rng.uniform(0.1, 2.0)
                fs = predict(fs, mm, T, process_noise(mm, T, sig))
                fs = update(fs, EnuPoint(*rng.normal(0, 30, 2)), meas)
                if np.abs(fs.P - fs.P.T).max() >= 1e-9 or np.linalg.eigvalsh(fs.P).min() <= -1e-9:
                    ok = False
        _verdict(capfd, 4, "covariance symmetric and PSD over 10k cycles", ok)


class TestCriterion5Consistency:
    def _run_averages(self, mm, s0, sig, P0, rng, runs=100, steps=200):
        n = mm.state_dim
        Q = process_noise(mm, 1.0, sig)
        R = np.diag([25.0, 25.0])
        meas = MeasurementModel(measurement_matrix(mm), R)
        avgs = []
        for _ in range(runs):
            truth = np.array(s0, float)
            fs = FilterState(truth + rng.multivariate_normal(np.zeros(n), P0), P0.copy(), 0)
            vals = []
            for _ in range(steps):
                truth = transition(mm, truth, 1.0) + rng.multivariate_normal(np.zeros(n), Q)
                z = meas.H @ truth + rng.multivariate_normal(np.zeros(2), R)
                fs = update(predict(fs, mm, 1.0, Q), EnuPoint(*z), meas)
                e = truth[:2] - fs.s[:2]
                vals.append(e @ np.linalg.solve(fs.P[:2, :2], e))
            avgs.append(np.mean(vals))
        return np.mean(avgs)

    def test_nees_within_interval(self, capfd):
        # 95% interval for the mean of 100 independent chi-square(2) run
        # averages: position error has 2 observed DOF per run
        runs = 100
        lo = chi2.ppf(0.025, 2 * runs) / runs
        hi = chi2.ppf(0.975, 2 * runs) / runs
        rng = np.random.default_rng(2024)
        cv = self._run_averages(
            ModelKind.CV, [0, 0, 5, 2], NoiseSigmas(accel=0.5), np.diag([25.0, 25.0, 4.0, 4.0]), rng
        )
        ct = self._run_averages(
            ModelKind.CT,
            [0, 0, 5, 0, 0.1],
            NoiseSigmas(accel=0.3, omega=0.01),
            np.diag([25.0, 25.0, 4.0, 4.0, 4e-4]),
            rng,
        )
        _verdict(capfd, 5, "matched-model NEES consistency", lo <= cv <= hi and lo <= ct <= hi)


ELEVEN_LEGS = [
    {"mm": "CT", "duration_s": 25, "omega": 0.15, "speed": 8},
    {"mm": "CT", "duration_s": 20, "omega": -0.2},
    {"mm": "CV", "duration_s": 20},
    {"mm": "CA", "duration_s": 15, "accel": 0.4},
    {"mm": "CA", "duration_s": 15, "accel": -0.3},
    {"mm": "CV", "duration_s": 20},
    {"mm": "CA", "duration_s": 15, "accel": 0.3},
    {"mm": "CV", "duration_s": 15},
    {"mm": "CV", "duration_s": 20, "speed": 6},
    {"mm": "CV", "duration_s": 15},
    {"mm": "CV", "duration_s": 20, "speed": 10},
]


class TestCriterion6ElevenSegments:
    def test_ekf_beats_raw_rf(self, capfd):
        t0 = time.monotonic()
        legs = [trajgen.leg_from_dict(d) for d in ELEVEN_LEGS]
        truth, bounds = objects.generate_truth(legs, speed=8.0)
        defaults = {"accel": 0.2, "jerk": 0.1, "omega": 0.02}
        segments = _segments_from_boundaries(bounds, ELEVEN_LEGS, 10, defaults)
        sigma_pos = 9.0 / np.sqrt(2)  # ~9 m RMSE planar noise

        wins_max = wins_std = total = 0
        for seed in range(50):
            rf, _ = _position_noise_flight(truth, sigma_pos, seed, 1000, 0.0, 200.0)
            pairs = objects.align(truth, rf, tol_ms=1)
            kept = objects.clean(pairs, 60.0)
            kept_idx = [i for i, p in enumerate(pairs) if p.error_m() <= 60.0]
            cfg = ekf.FilterConfig(R=objects.estimate_R(kept, "mean"))
            results, _ = objects.run_trajectory(segments, kept, cfg, indices=kept_idx)
            by_index = dict(zip(kept_idx, kept))
            for seg, track in results:
                sp = [by_index[i] for i in sorted(by_index) if seg.start_idx <= i <= seg.end_idx]
                rf_s = stats(euclidean_errors([p.uav for p in sp], [p.rf for p in sp]))
                ekf_s = stats(euclidean_errors([p.uav for p in sp], [tp.pos for tp in track]))
                total += 1
                wins_max += ekf_s.max_m < rf_s.max_m
                wins_std += ekf_s.std_m < rf_s.std_m
        elapsed = time.monotonic() - t0
        ok = wins_max / total >= 0.80 and wins_std / total >= 0.70 and elapsed < 180.0
        _verdict(capfd, 6, "eleven-segment EKF improvement", ok)


class TestCriterion7Cleaning:
    def test_outlier_rejection(self, capfd):
        truth = [TimedSample(1000 * k, EnuPoint(0.4 * k, 0.2 * k)) for k in range(200)]
        rf, dropped = simulate_flight(
            truth, CORNERS, 3.3e-9, rng_seed=7, outlier_rate=0.1, outlier_max_m=200.0
        )
        assert dropped == 0
        pairs = [AlignedPair(t.t_ms, t.pos, r.pos) for t, r in zip(truth, rf)]
        raw = [p.error_m() for p in pairs]
        kept = objects.clean(pairs, 60.0)
        clean_errs = [p.error_m() for p in kept]
        raw_max = quantile(cdf(raw), 1.0)
        clean_max = quantile(cdf(clean_errs), 1.0)
        ok = raw_max > 60.0 and clean_max <= 60.0 and clean_max < raw_max
        _verdict(capfd, 7, "60 m cleaning contract", ok)


class TestCriterion8Determinism:
    def test_byte_identical_runs(self, capfd, tmp_path):
        cfg = {
            "sensors": {
                "reference_idx": 0,
                "sensors": [
                    {"x": -200.0, "y": -200.0},
                    {"x": 200.0, "y": -200.0},
                    {"x": -200.0, "y": 200.0},
                    {"x": 200.0, "y": 200.0},
                ],
            },
            "sim": {
                "seed": 11,
                "sigma_t": 3.3e-9,
                "legs": [
                    {"mm": "CT", "duration_s": 30, "omega": 0.2, "speed": 8},
                    {"mm": "CV", "duration_s": 20},
                    {"mm": "CA", "duration_s": 15, "accel": 0.5},
                ],
            },
            "paths": {
                "truth": str(tmp_path / "data/truth.csv"),
                "rf": str(tmp_path / "data/rf.csv"),
                "segments": str(tmp_path / "data/segments.json"),
            },
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

        def run(tag):
            out = tmp_path / tag
            assert main(["--config", str(cfg_path), "--out", str(tmp_path / "data"), "simulate"]) == 0
            assert main(["--config", str(cfg_path), "--out", str(out), "track"]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        _verdict(capfd, 8, "simulate+track byte determinism", run("r1") == run("r2"))


class TestCriterion9MetricsExamples:
    def test_unit_examples_exact(self, capfd):
        ok = euclidean_errors([EnuPoint(0, 0)], [EnuPoint(3, 4)])[0] == pytest.approx(5.0)
        s = stats([1, 2, 3, 4])
        ok = ok and s.std_m == pytest.approx(np.sqrt(5 / 3)) and s.mean_m == pytest.approx(2.5)
        curve = cdf([1, 2, 3])
        ok = ok and quantile(curve, 0.5) == 2 and quantile(curve, 1 / 3) == 1 and quantile(curve, 1.0) == 3
        _verdict(capfd, 9, "metrics unit examples", ok)
