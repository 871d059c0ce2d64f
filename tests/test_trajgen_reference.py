"""The truth generator against a frozen copy of the per-step loop it replaced."""

import math
import sys

import numpy as np
from hypothesis import example, given, settings, strategies as st

from uavtrack.geodesy import EnuPoint
from uavtrack.motionmodels import ModelKind, propagate_batch
from uavtrack.trajgen import LegSpec, truth_columns

# --- frozen reference: one Python step per sample with the CV/CA/CT
# kinematics written out. Kept as it was, except that it returns
# (t_ms, x, y) tuples instead of TimedSample objects and that it takes
# a speed, or a CA leg's speed change per sample, below the smallest
# normal double as a standstill, as truth_columns does: the components of
# such a speed round to a few subnormal steps, so a turn leaves each
# generator with its own heading.


def _standstill(speed):
    return 0.0 if abs(speed) < sys.float_info.min else speed


def ref_generate_truth(legs, start, heading_deg, speed, dt_ms):
    x, y = start.x, start.y
    h = math.radians(heading_deg)
    vx, vy = _standstill(speed) * math.cos(h), _standstill(speed) * math.sin(h)
    dt = dt_ms / 1000.0

    samples = [(0, x, y)]
    boundaries = []
    t_ms = 0
    for leg in legs:
        if leg.speed is not None:
            v = math.hypot(vx, vy)
            if v > 0:
                vx, vy = vx / v * _standstill(leg.speed), vy / v * _standstill(leg.speed)
            else:
                vx, vy = _standstill(leg.speed), 0.0
        # fixed acceleration vector along heading at leg entry
        if leg.mm is ModelKind.CA:
            v = math.hypot(vx, vy)
            ux, uy = (vx / v, vy / v) if v > 0 else (1.0, 0.0)
            a = _standstill(leg.accel * dt_ms / 1000) and leg.accel
            ax, ay = a * ux, a * uy
        first = len(samples) - 1
        n_steps = round(leg.duration_s * 1000 / dt_ms)
        for _ in range(max(n_steps, 1)):
            if leg.mm is ModelKind.CV:
                x += vx * dt
                y += vy * dt
            elif leg.mm is ModelKind.CA:
                x += vx * dt + 0.5 * ax * dt * dt
                y += vy * dt + 0.5 * ay * dt * dt
                vx += ax * dt
                vy += ay * dt
            else:  # CT: exact circular arc
                w = leg.omega
                swt, cwt = math.sin(w * dt), math.cos(w * dt)
                x += (vx * swt - vy * (1.0 - cwt)) / w
                y += (vx * (1.0 - cwt) + vy * swt) / w
                vx, vy = vx * cwt - vy * swt, vx * swt + vy * cwt
            t_ms += dt_ms
            samples.append((t_ms, x, y))
        boundaries.append((leg, first, len(samples) - 1))
    return samples, boundaries


# --- random leg chains of at most 120 s. A decelerating CA leg resets its
# speed high enough to end above 1 m/s: the heading of a standstill reached
# mid-flight is undefined, so the two generators may take different ones.

_duration = st.floats(0.01, 20.0)
_speed = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
_cv = st.builds(LegSpec, st.just(ModelKind.CV), _duration, speed=st.one_of(st.none(), _speed))
_ct = st.builds(
    LegSpec, st.just(ModelKind.CT), _duration, speed=st.one_of(st.none(), _speed),
    omega=st.floats(0.01, 0.5) | st.floats(-0.5, -0.01),
)
_ca_up = st.builds(
    LegSpec, st.just(ModelKind.CA), _duration, speed=st.one_of(st.none(), _speed), accel=st.floats(0.0, 0.5)
)
def _turn(speed):
    return LegSpec(ModelKind.CT, 2.0, speed=speed, omega=0.5)


_ca_down = st.builds(
    lambda d, a, margin: LegSpec(ModelKind.CA, d, speed=a * d + margin, accel=-a),
    _duration, st.floats(0.0, 0.5), st.floats(1.0, 10.0),
)


@settings(deadline=None, max_examples=150)
@given(
    legs=st.lists(st.one_of(_cv, _ct, _ca_up, _ca_down), min_size=1, max_size=6),
    start=st.tuples(st.floats(-1000, 1000), st.floats(-1000, 1000)),
    heading=st.floats(-180, 180),
    speed=_speed,
    dt_ms=st.integers(10, 1000),
)
# turns at the smallest subnormal and the smallest normal speed: the next
# leg's heading must not depend on how each generator rounds the turn
@example([_turn(5e-324), LegSpec(ModelKind.CV, 2.0, speed=1.0)], (0.0, 0.0), 45.0, 1.0, 100)
@example([_turn(5e-324), LegSpec(ModelKind.CA, 2.0, accel=0.5)], (0.0, 0.0), 100.0, 1.0, 10)
@example([_turn(sys.float_info.min), LegSpec(ModelKind.CV, 2.0, speed=1.0)], (0.0, 0.0), 49.306207435723536, 1.0, 10)
@example([LegSpec(ModelKind.CT, 2.0, omega=0.5), LegSpec(ModelKind.CA, 2.0, accel=0.5)], (0.0, 0.0), 45.0, 5e-324, 100)
# a standstill whose CA leg adds 5e-324 m/s² for 2 s: the closed form ends
# at 1e-323 m/s, while each per-step increment 5e-324 * 0.01 rounds to 0
@example(
    [LegSpec(ModelKind.CA, 2.0, accel=5e-324), _turn(None), LegSpec(ModelKind.CV, 2.0, speed=1.0)], (0.0, 0.0), 0.0, 0.0, 10
)
def test_matches_frozen_per_step_loop(legs, start, heading, speed, dt_ms):
    t_ms, xy, boundaries = truth_columns(legs, EnuPoint(*start), heading, speed, dt_ms)
    ref, ref_boundaries = ref_generate_truth(legs, EnuPoint(*start), heading, speed, dt_ms)
    assert t_ms.tolist() == [t for t, _, _ in ref]
    assert boundaries == ref_boundaries
    assert np.max(np.hypot(*(xy - np.array([(x, y) for _, x, y in ref])).T)) <= 1e-8


# --- the former sampling: each leg's entry state tiled over the leg's
# samples and stepped by one propagate_batch call (kept as it was, except
# that it returns the positions only and takes the standstill rules above)


def tiled_truth_xy(legs, start, heading_deg, speed, dt_ms):
    x, y = start.x, start.y
    h = math.radians(heading_deg)
    vx, vy = _standstill(speed) * math.cos(h), _standstill(speed) * math.sin(h)

    xy = [np.array([[x, y]])]
    for leg in legs:
        if leg.speed is not None:
            v, s = math.hypot(vx, vy), _standstill(leg.speed)
            vx, vy = (vx / v * s, vy / v * s) if v > 0 else (s, 0.0)
        tail = [leg.omega] if leg.mm is ModelKind.CT else []
        if leg.mm is ModelKind.CA:
            v = math.hypot(vx, vy)
            ux, uy = (vx / v, vy / v) if v > 0 else (1.0, 0.0)
            a = _standstill(leg.accel * dt_ms / 1000) and leg.accel
            tail = [a * ux, a * uy]
        n = max(round(leg.duration_s * 1000 / dt_ms), 1)
        entry = np.tile([x, y, vx, vy, *tail], (n, 1))
        states = propagate_batch(leg.mm, entry, np.arange(1, n + 1) * dt_ms / 1000.0)[0]
        x, y, vx, vy = states[-1, :4].tolist()
        xy.append(states[:, :2])
    return np.concatenate(xy)


@settings(deadline=None, max_examples=150)
@given(
    legs=st.lists(st.one_of(_cv, _ct, _ca_up, _ca_down), min_size=1, max_size=6),
    start=st.tuples(st.floats(-1000, 1000), st.floats(-1000, 1000)),
    heading=st.floats(-180, 180),
    speed=_speed,
    dt_ms=st.integers(10, 1000),
)
def test_legs_match_tiled_propagate_batch_bit_for_bit(legs, start, heading, speed, dt_ms):
    _, xy, boundaries = truth_columns(legs, EnuPoint(*start), heading, speed, dt_ms)
    tiled = tiled_truth_xy(legs, EnuPoint(*start), heading, speed, dt_ms)
    for _, first, last in boundaries:
        assert np.array_equal(xy[first : last + 1], tiled[first : last + 1])
