"""The truth generator against a frozen copy of the per-step loop it replaced."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from uavtrack.geodesy import EnuPoint
from uavtrack.motionmodels import ModelKind
from uavtrack.trajgen import LegSpec, truth_columns

# --- frozen reference: one Python step per sample with the CV/CA/CT
# kinematics written out. Kept as it was, except that it returns
# (t_ms, x, y) tuples instead of TimedSample objects.


def ref_generate_truth(legs, start, heading_deg, speed, dt_ms):
    x, y = start.x, start.y
    h = math.radians(heading_deg)
    vx, vy = speed * math.cos(h), speed * math.sin(h)
    dt = dt_ms / 1000.0

    samples = [(0, x, y)]
    boundaries = []
    t_ms = 0
    for leg in legs:
        if leg.speed is not None:
            v = math.hypot(vx, vy)
            if v > 0:
                vx, vy = vx / v * leg.speed, vy / v * leg.speed
            else:
                vx, vy = leg.speed, 0.0
        # fixed acceleration vector along heading at leg entry
        if leg.mm is ModelKind.CA:
            v = math.hypot(vx, vy)
            ux, uy = (vx / v, vy / v) if v > 0 else (1.0, 0.0)
            ax, ay = leg.accel * ux, leg.accel * uy
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
def test_matches_frozen_per_step_loop(legs, start, heading, speed, dt_ms):
    t_ms, xy, boundaries = truth_columns(legs, EnuPoint(*start), heading, speed, dt_ms)
    ref, ref_boundaries = ref_generate_truth(legs, EnuPoint(*start), heading, speed, dt_ms)
    assert t_ms.tolist() == [t for t, _, _ in ref]
    assert boundaries == ref_boundaries
    assert np.max(np.hypot(*(xy - np.array([(x, y) for _, x, y in ref])).T)) <= 1e-8
