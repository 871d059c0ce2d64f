"""Seeded workload generator for the pipeline benchmark.

Each workload is a `uavtrack` run config (sensor array, flight legs,
measurement model) drawn from a seed, plus the counts the pipeline must
report for it. The flight is built leg by leg with rejection sampling so
it stays inside a radius around the sensor array; a flight that cannot
be completed is redrawn. `check_extent` re-checks the finished flight
before any timing, because a flight beyond the 50 km geodesy limit only
fails at the very end of `simulate`.

Leg kinematics follow `uavtrack.trajgen` (speed reset at leg entry,
acceleration along the entry heading, exact circular arcs) in closed
form, so the generator does not depend on the code it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRUTH_DT_MS = 100          # every workload uses 10 Hz truth
GEODESY_LIMIT_M = 50_000.0  # uavtrack.geodesy.MAX_RANGE_M
MAX_FROM_ARRAY_M = 1_000.0  # no workload strays further from the array
SENSORS = [(-200.0, -200.0), (200.0, -200.0), (-200.0, 200.0), (200.0, 200.0)]


class WorkloadError(ValueError):
    pass


@dataclass(frozen=True)
class Spec:
    noise_model: str       # "tdoa" or "position"
    n_legs: int
    total_s: int           # flight length; leg durations are scaled to sum to it
    leg_s: tuple           # (min, max) leg duration before scaling
    radius_m: float        # flight stays within this distance of the array centre
    speed: tuple           # (min, max) m/s
    omega: tuple           # (min, max) |turn rate| for CT legs, rad/s
    rf_interval_ms: int
    outlier_rate: float = 0.0


# Each flight keeps one pipeline pass under about 6 s, so a 60 s run holds
# about ten runs of every command: host speed moves in phases, and only a
# median over many runs per command stays steady from run to run.
WORKLOADS = {
    # The only workload that runs the TDoA solver (about 75% of simulate).
    # Flight loops close to the array, so raw fixes are accurate (about
    # 1 m) and a solver change that moves accuracy shows in rf_err_mean_m.
    "tdoa_loiter": Spec(
        noise_model="tdoa", n_legs=32, total_s=480, leg_s=(10, 20),
        radius_m=300.0, speed=(4.0, 8.0), omega=(0.05, 0.2), rf_interval_ms=1000,
    ),
    # Solver bypassed. 27k truth samples make simulate geodesy-bound, and
    # 400 short segments of about 7 epochs expose the O(segments x pairs)
    # scans in ekf.run_trajectory and cmd_track.
    "dense_segments": Spec(
        noise_model="position", n_legs=400, total_s=2700, leg_s=(5, 8.5),
        radius_m=MAX_FROM_ARRAY_M, speed=(4.0, 10.0), omega=(0.2, 0.5), rf_interval_ms=1000,
    ),
    # Solver bypassed, few long segments at the truth rate: track is bound
    # by EKF steps, and with 12 segments a segment-axis change should not
    # move it. Outliers make cleaning drop about 5% of pairs. Not listed in
    # BENCHMARK.json: three workloads only fit the run budget with 40 s runs,
    # which were too short for steady medians on a noisy host.
    "long_legs_10hz": Spec(
        noise_model="position", n_legs=12, total_s=760, leg_s=(30, 120),
        radius_m=MAX_FROM_ARRAY_M, speed=(2.0, 5.0), omega=(0.01, 0.05), rf_interval_ms=100,
        outlier_rate=0.05,
    ),
}


def _leg_path(x, y, vx, vy, leg, t):
    """Positions at times ``t`` (s) into ``leg`` and the exit state."""
    if "speed" in leg:
        v = math.hypot(vx, vy)
        vx, vy = vx / v * leg["speed"], vy / v * leg["speed"]
    T = leg["duration_s"]
    if leg["mm"] == "CV":
        px, py = x + vx * t, y + vy * t
        end = (x + vx * T, y + vy * T, vx, vy)
    elif leg["mm"] == "CA":
        v = math.hypot(vx, vy)
        ax, ay = leg["accel"] * vx / v, leg["accel"] * vy / v
        px, py = x + vx * t + 0.5 * ax * t * t, y + vy * t + 0.5 * ay * t * t
        end = (px[-1], py[-1], vx + ax * T, vy + ay * T)
    else:
        w = leg["omega"]
        s, c = np.sin(w * t), np.cos(w * t)
        px = x + (vx * s - vy * (1.0 - c)) / w
        py = y + (vx * (1.0 - c) + vy * s) / w
        end = (px[-1], py[-1], vx * c[-1] - vy * s[-1], vx * s[-1] + vy * c[-1])
    return px, py, end


def _durations(spec: Spec, rng) -> list:
    """Leg durations in whole truth steps, scaled to sum to ``total_s``."""
    raw = rng.uniform(*spec.leg_s, size=spec.n_legs)
    steps = np.floor(raw / raw.sum() * spec.total_s * 1000 / TRUTH_DT_MS).astype(int)
    steps[-1] += spec.total_s * 1000 // TRUTH_DT_MS - steps.sum()
    return [int(n) * TRUTH_DT_MS / 1000 for n in steps]


def _draw_leg(spec: Spec, rng, T: float, v: float) -> dict:
    mm = str(rng.choice(["CV", "CA", "CT"]))
    leg = {"mm": mm, "duration_s": T}
    if mm == "CA":
        lo = max(-0.3, (spec.speed[0] - v) / T)
        hi = min(0.3, (spec.speed[1] - v) / T)
        leg["accel"] = round(float(rng.uniform(lo, hi)), 4)
    else:
        leg["speed"] = round(float(rng.uniform(*spec.speed)), 2)
    if mm == "CT":
        leg["omega"] = round(float(rng.uniform(*spec.omega) * rng.choice([-1, 1])), 4)
    return leg


def _flight(spec: Spec, rng, tries_per_leg: int = 200):
    """One attempt at a flight inside ``spec.radius_m``; None if it gets stuck."""
    r0 = rng.uniform(0.0, 0.5 * spec.radius_m)
    a0 = rng.uniform(0.0, 2.0 * math.pi)
    heading = float(rng.uniform(0.0, 360.0))
    speed = float(rng.uniform(*spec.speed))
    start = (round(r0 * math.cos(a0), 3), round(r0 * math.sin(a0), 3))
    x, y = start
    vx, vy = speed * math.cos(math.radians(heading)), speed * math.sin(math.radians(heading))
    # a leg must end where the tightest turn still fits inside the radius
    end_radius = spec.radius_m - 2.0 * spec.speed[1] / spec.omega[1]
    legs = []
    for T in _durations(spec, rng):
        t = np.append(np.arange(1.0, T, 1.0), T)
        for _ in range(tries_per_leg):
            leg = _draw_leg(spec, rng, T, math.hypot(vx, vy))
            px, py, end = _leg_path(x, y, vx, vy, leg, t)
            if np.max(np.hypot(px, py)) <= spec.radius_m and math.hypot(end[0], end[1]) <= end_radius:
                break
        else:
            return None
        legs.append(leg)
        x, y, vx, vy = end
    return start, heading, speed, legs


def check_extent(sim: dict) -> float:
    """Largest distance (m) of the flight from the array centre.

    Raises WorkloadError for a flight beyond the geodesy limit or more
    than MAX_FROM_ARRAY_M from the array.
    """
    x, y = sim["start"]["x"], sim["start"]["y"]
    h = math.radians(sim["heading_deg"])
    vx, vy = sim["speed"] * math.cos(h), sim["speed"] * math.sin(h)
    far = math.hypot(x, y)
    for leg in sim["legs"]:
        T = leg["duration_s"]
        px, py, (x, y, vx, vy) = _leg_path(x, y, vx, vy, leg, np.linspace(0.0, T, int(T * 10) + 1))
        far = max(far, float(np.max(np.hypot(px, py))))
    if far > GEODESY_LIMIT_M:
        raise WorkloadError(f"flight reaches {far:.0f} m, beyond the geodesy limit")
    if far > MAX_FROM_ARRAY_M:
        raise WorkloadError(f"flight strays {far:.0f} m from the array")
    return far


def expected_counts(sim: dict) -> dict:
    """Counts the pipeline must report for ``sim``: truth samples, RF epochs, segments."""
    n_truth = 1 + sum(max(round(leg["duration_s"] * 1000 / TRUTH_DT_MS), 1) for leg in sim["legs"])
    step = sim["rf_interval_ms"] // TRUTH_DT_MS
    n_rf = (n_truth - 1) // step + 1
    n_segments, first, prev_end = 0, 0, -1
    for leg in sim["legs"]:
        last = first + max(round(leg["duration_s"] * 1000 / TRUTH_DT_MS), 1)
        start_rf, end_rf = max(prev_end + 1, -(-first // step)), last // step
        if end_rf >= start_rf:
            n_segments += 1
            prev_end = end_rf
        first = last
    return {"n_truth": n_truth, "n_rf": n_rf, "n_segments": n_segments}


def generate(name: str, seed: int, max_attempts: int = 50) -> dict:
    """Run config for workload ``name`` drawn from ``seed``."""
    spec = WORKLOADS[name]
    rng = np.random.default_rng(np.random.SeedSequence([seed, sorted(WORKLOADS).index(name)]))
    for _ in range(max_attempts):
        flight = _flight(spec, rng)
        if flight is not None:
            break
    else:
        raise WorkloadError(f"{name}: no flight inside {spec.radius_m} m after {max_attempts} attempts")
    start, heading, speed, legs = flight
    sim = {
        "seed": seed,
        "noise_model": spec.noise_model,
        "outlier_rate": spec.outlier_rate,
        "legs": legs,
        "start": {"x": start[0], "y": start[1]},
        "heading_deg": round(heading, 3),
        "speed": round(speed, 3),
        "truth_dt_ms": TRUTH_DT_MS,
        "rf_interval_ms": spec.rf_interval_ms,
    }
    check_extent(sim)
    return {
        "sensors": {"reference_idx": 0, "sensors": [{"x": x, "y": y} for x, y in SENSORS]},
        "sim": sim,
    }
