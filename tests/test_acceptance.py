"""Release gate: one test per acceptance criterion, each printing a verdict line."""

import json
import time

import numpy as np
import pytest
from scipy.stats import chi2

from uavtrack import ekf, trajgen
from uavtrack.cli import _segments_from_boundaries, main
from uavtrack.dataio import kept_mask, match_times
from uavtrack.metrics import cdf, euclidean_errors, quantile, stats
from uavtrack.motionmodels import (
    LAYOUT, ModelKind, NoiseSigmas, noise_rows, process_noise_rows, propagate_rows, sigma_rows, state_mask,
)
from uavtrack.tdoa import SPEED_OF_LIGHT, SensorArray, _arrival_differences, _fixes, simulate_columns

CORNERS = SensorArray(np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]]))
CENTROID = CORNERS.positions.mean(axis=0)[None]


def _tdoa_fix(p, jitter):
    """Range differences (3,) on CORNERS of an emitter at ``p`` (1, 2) with timing
    ``jitter`` (3,), and its fix (2,) solved from the centroid and the sensor starts."""
    idx, dt = _arrival_differences(CORNERS, p, jitter)
    rd = SPEED_OF_LIGHT * dt
    return rd[0], _fixes(CORNERS, idx, rd, CENTROID)[0][0]


def _propagate(mm, s, T):
    """States ``s`` (B, n) of model ``mm`` over steps ``T`` (B,) and their (B, n, n) Jacobians,
    by :func:`propagate_rows` on the common layout."""
    c = mm.columns
    rows = np.zeros((len(LAYOUT), len(s)))
    rows[c] = s.T
    f, F = propagate_rows(rows, T, np.full(len(T), mm is ModelKind.CT))
    return f[c].T, F[:, c[:, None], c]


def _process_noise(mm, T, sig):
    """(1, n, n) process noise of model ``mm`` over one step ``T`` (1,)."""
    c = mm.columns
    return process_noise_rows(T, noise_rows(sigma_rows([sig]), state_mask([mm])))[:, c[:, None], c]


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
            p = np.array([[rng.uniform(1, 99), rng.uniform(1, 99)]])
            _, fix = _tdoa_fix(p, np.zeros(3))
            worst = max(worst, float(np.hypot(fix[0] - p[0, 0], fix[1] - p[0, 1])))
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
            p = np.array([[rng.uniform(1, 99), rng.uniform(1, 99)]])
            ranges, fix = _tdoa_fix(p, rng.normal(0.0, 3.3e-9, size=3))
            f = sum_d2 - 2.0 * sum(c * d for c, d in zip(ranges, D))
            i, j = np.unravel_index(np.argmin(f), f.shape)
            worst = max(worst, float(np.hypot(fix[0] - xs[i], fix[1] - xs[j])))
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
                T = np.array([rng.uniform(0.1, 2.0)])
                J = _propagate(mm, s[None], T)[1][0]
                fd = np.empty((n, n))
                for j in range(n):
                    hi, lo = s.copy(), s.copy()
                    hi[j] += h
                    lo[j] -= h
                    fd[:, j] = (_propagate(mm, hi[None], T)[0][0] - _propagate(mm, lo[None], T)[0][0]) / (2 * h)
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
            H, R = np.eye(2, n), np.diag([25.0, 25.0])
            s, P = rng.normal(size=(1, n)), np.diag(rng.uniform(1, 100, n))[None]
            for _ in range(3334):
                T = np.array([rng.uniform(0.1, 2.0)])
                s, F = _propagate(mm, s, T)
                P = ekf._predict_cov(F, P, _process_noise(mm, T, sig))
                s, P, _, finite = ekf._update_step(s, P, rng.normal(0, 30, (1, 2)), H, R)
                if not finite[0] or np.abs(P[0] - P[0].T).max() >= 1e-9 or np.linalg.eigvalsh(P[0]).min() <= -1e-9:
                    ok = False
        _verdict(capfd, 4, "covariance symmetric and PSD over 10k cycles", ok)


class TestCriterion5Consistency:
    def _run_averages(self, mm, s0, sig, P0, rng, runs=100, steps=200):
        # the runs filter side by side as one (runs, n) batch; their noise is
        # drawn first, in run order and within a run in step order
        n, T = mm.state_dim, np.ones(runs)
        Q = _process_noise(mm, T[:1], sig)
        R = np.diag([25.0, 25.0])
        init, w, v = np.empty((runs, n)), np.empty((steps, runs, n)), np.empty((steps, runs, 2))
        for r in range(runs):
            init[r] = rng.multivariate_normal(np.zeros(n), P0)
            for k in range(steps):
                w[k, r] = rng.multivariate_normal(np.zeros(n), Q[0])
                v[k, r] = rng.multivariate_normal(np.zeros(2), R)
        truth = np.tile(np.array(s0, float), (runs, 1))
        s, P = truth + init, np.tile(P0, (runs, 1, 1))
        vals = np.empty((runs, steps))
        for k in range(steps):
            truth = _propagate(mm, truth, T)[0] + w[k]
            s, F = _propagate(mm, s, T)
            s, P, _, _ = ekf._update_step(s, ekf._predict_cov(F, P, Q), truth[:, :2] + v[k], np.eye(2, n), R)
            e = truth[:, :2] - s[:, :2]
            x = np.linalg.solve(P[:, :2, :2], e[:, :, None])[:, :, 0]
            vals[:, k] = e[:, 0] * x[:, 0] + e[:, 1] * x[:, 1]
        return np.mean(np.mean(vals, axis=1))

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
        t_ms, xy, bounds = trajgen.truth_columns(legs, speed=8.0)
        defaults = {"accel": 0.2, "jerk": 0.1, "omega": 0.02}
        segments = _segments_from_boundaries(bounds, ELEVEN_LEGS, 10, defaults)
        sigma_pos = 9.0 / np.sqrt(2)  # ~9 m RMSE planar noise

        wins_max = wins_std = total = 0
        for seed in range(50):
            rf_t, rf, _ = simulate_columns(t_ms, xy, sigma_pos, seed, 1000, 0.0, 200.0)
            rf_idx, uav_idx = match_times(t_ms, rf_t, 1)
            uav, rf, t = xy[uav_idx], rf[rf_idx], rf_t[rf_idx]  # the aligned pairs
            kept_idx = np.flatnonzero(kept_mask(uav, rf, 60.0))
            uav, rf, t = uav[kept_idx], rf[kept_idx], t[kept_idx]
            cfg = ekf.FilterConfig(R=ekf.estimate_R_arrays(uav, rf, "mean"))
            tracks, _ = ekf.filter_segments(segments, t, rf, kept_idx, cfg)
            for tr in tracks:
                rf_s = stats(euclidean_errors(uav[tr.rows], rf[tr.rows]))
                ekf_s = stats(euclidean_errors(uav[tr.rows], tr.states[:, :2]))
                total += 1
                wins_max += ekf_s.max_m < rf_s.max_m
                wins_std += ekf_s.std_m < rf_s.std_m
        elapsed = time.monotonic() - t0
        ok = wins_max / total >= 0.80 and wins_std / total >= 0.70 and elapsed < 180.0
        _verdict(capfd, 6, "eleven-segment EKF improvement", ok)


class TestCriterion7Cleaning:
    def test_outlier_rejection(self, capfd):
        k = np.arange(200)
        truth = np.column_stack((0.4 * k, 0.2 * k))
        _, rf, dropped = simulate_columns(1000 * k, truth, 3.3e-9, 7, None, 0.1, 200.0, arr=CORNERS)
        assert dropped == 0
        raw = euclidean_errors(truth, rf)
        clean_errs = raw[kept_mask(truth, rf, 60.0)]
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
        ok = euclidean_errors(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0)
        s = stats([1, 2, 3, 4])
        ok = ok and s.std_m == pytest.approx(np.sqrt(5 / 3)) and s.mean_m == pytest.approx(2.5)
        curve = cdf([1, 2, 3])
        ok = ok and quantile(curve, 0.5) == 2 and quantile(curve, 1 / 3) == 1 and quantile(curve, 1.0) == 3
        _verdict(capfd, 9, "metrics unit examples", ok)
