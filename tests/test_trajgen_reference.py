"""The truth generator against frozen copies of the per-step loop and the per-leg sampling it replaced."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uavtrack.geodesy import BLOCK_ROWS, EnuPoint
from uavtrack.motionmodels import _SMALL_TURN, LAYOUT, ModelKind, propagate_batch, propagate_rows
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


# --- the per-leg sampling that the two-pass truth_columns replaced: one
# propagate_states call per leg, each leg's entry state over its elapsed
# times, the next leg entered from the last row. Kept as it was, except
# that propagate_states is reduced to its one-entry-state case.


def _leg_states(mm, entry, T):
    cols = np.zeros((len(LAYOUT), len(T)))
    for i, col in enumerate(mm.columns.tolist()):
        cols[col] = entry[i]
    f = propagate_rows(cols, T, np.full(len(T), mm is ModelKind.CT), jacobian=False)[0]
    return f[mm.columns].T


def per_leg_truth_columns(legs, start, heading_deg, speed, dt_ms):
    x, y = start.x, start.y
    h, v = math.radians(heading_deg), _standstill(speed)
    vx, vy = v * math.cos(h), v * math.sin(h)

    xy = [np.array([[x, y]])]
    boundaries = []
    last = 0
    for leg in legs:
        if leg.speed is not None:
            v, s = math.hypot(vx, vy), _standstill(leg.speed)
            vx, vy = (vx / v * s, vy / v * s) if v > 0 else (s, 0.0)
        tail = [leg.omega] if leg.mm is ModelKind.CT else []
        if leg.mm is ModelKind.CA:  # fixed acceleration vector along heading at leg entry
            v, a = math.hypot(vx, vy), _standstill(leg.accel * dt_ms / 1000) and leg.accel
            ux, uy = (vx / v, vy / v) if v > 0 else (1.0, 0.0)
            tail = [a * ux, a * uy]
        # every sample of the leg from its entry state: the transitions are exact
        n = max(round(leg.duration_s * 1000 / dt_ms), 1)
        entry = np.array([x, y, vx, vy, *tail])
        states = _leg_states(leg.mm, entry, np.arange(1, n + 1) * dt_ms / 1000.0)
        x, y, vx, vy = states[-1, :4].tolist()
        xy.append(states[:, :2])
        boundaries.append((leg, last, last + n))
        last += n
    return np.arange(last + 1, dtype=np.int64) * dt_ms, np.concatenate(xy), boundaries


# --- flights for it: CV, CA and CT legs in any order; CT legs whose turn
# over the whole leg, |omega n dt|, lies on either side of _SMALL_TURN, where
# the arc's coefficients switch to their series; legs shorter than half a
# sample, which still take one; and speeds and per-sample speed changes
# below the smallest normal double, which _standstill takes as 0

_durations = st.floats(0.01, 20.0) | st.floats(1e-4, 0.004)
_speeds = st.floats(0.0, 20.0) | st.sampled_from([0.0, 5e-324, sys.float_info.min])
_accels = st.floats(-0.5, 0.5) | st.sampled_from([0.0, 5e-324, -5e-324, 10 * sys.float_info.min])


@st.composite
def _flights(draw):
    dt_ms = draw(st.integers(10, 1000))

    def near_small_turn(duration, speed, ratio, sign):
        T = max(round(duration * 1000 / dt_ms), 1) * dt_ms / 1000.0
        return LegSpec(ModelKind.CT, duration, speed=speed, omega=sign * ratio * _SMALL_TURN / T)

    reset = st.none() | _speeds
    leg = st.one_of(
        st.builds(LegSpec, st.just(ModelKind.CV), _durations, speed=reset),
        st.builds(LegSpec, st.just(ModelKind.CA), _durations, speed=reset, accel=_accels),
        st.builds(LegSpec, st.just(ModelKind.CT), _durations, speed=reset,
                  omega=st.floats(0.01, 0.5) | st.floats(-0.5, -0.01)),
        st.builds(near_small_turn, _durations, reset, st.floats(0.25, 4.0), st.sampled_from([1.0, -1.0])),
    )
    legs = draw(st.lists(leg, min_size=1, max_size=8))
    start = draw(st.tuples(st.floats(-1000, 1000), st.floats(-1000, 1000)))
    return legs, start, draw(st.floats(-180, 180)), draw(_speeds), dt_ms


@settings(deadline=None, max_examples=300)
@given(_flights())
@example(([_turn(5e-324), LegSpec(ModelKind.CA, 2.0, accel=0.5)], (0.0, 0.0), 100.0, 1.0, 10))
@example(([LegSpec(ModelKind.CA, 2.0, accel=5e-324), _turn(None), LegSpec(ModelKind.CV, 0.001)], (0.0, 0.0), 0.0, 0.0, 10))
@example(([LegSpec(ModelKind.CT, 1.0, omega=_SMALL_TURN * (1 - 1e-9)),
           LegSpec(ModelKind.CT, 1.0, omega=-_SMALL_TURN * (1 + 1e-9))], (1.0, -2.0), 30.0, 7.0, 100))
def test_two_passes_match_the_per_leg_sampling_bit_for_bit(flight):
    legs, start, heading, speed, dt_ms = flight
    t_ms, xy, boundaries = truth_columns(legs, EnuPoint(*start), heading, speed, dt_ms)
    ref_t, ref_xy, ref_boundaries = per_leg_truth_columns(legs, EnuPoint(*start), heading, speed, dt_ms)
    assert t_ms.dtype == ref_t.dtype and np.array_equal(t_ms, ref_t)
    assert xy.shape == ref_xy.shape and np.array_equal(xy, ref_xy)
    assert xy.tobytes() == ref_xy.tobytes()  # signed zeros too
    assert boundaries == ref_boundaries


# --- pinned flights across the sample blocks of truth_columns' second pass
# (BLOCK_ROWS samples each after the start row, at 100 ms here): legs that
# straddle a block edge, one-sample legs on either side of one, a block of
# CT rows only, and CT legs whose per-row turn |omega T| crosses _SMALL_TURN
# inside a block, so one propagate_rows call takes both forms of the arc


def _leg(mm, n, **kw):
    """A leg of ``n`` samples at 100 ms."""
    return LegSpec(mm, n / 10, **kw)


_CV, _CA, _CT = ModelKind.CV, ModelKind.CA, ModelKind.CT
_MID_TURN = _SMALL_TURN / (BLOCK_ROWS // 2 * 0.1)  # |omega T| reaches _SMALL_TURN mid-block
_PINNED = {
    # 2 * BLOCK_ROWS + 1 rows: a one-sample leg ends block 1, block 2 is one CT leg
    "two_blocks": [
        _leg(_CV, BLOCK_ROWS - 96, speed=5.0), _leg(_CA, 95, accel=0.2), _leg(_CV, 1),
        _leg(_CT, BLOCK_ROWS, omega=_MID_TURN),
    ],
    # 3 * BLOCK_ROWS + 17 rows: CT and CA legs straddle edges, a one-sample CT leg starts block 3
    "three_blocks": [
        _leg(_CA, 3000, accel=0.01), _leg(_CT, 2000, omega=0.05), _leg(_CV, 2 * BLOCK_ROWS - 5000),
        _leg(_CT, 1, omega=-0.3), _leg(_CA, 4000, speed=8.0, accel=-0.001), _leg(_CT, 111, omega=-0.004),
    ],
}


@pytest.mark.parametrize("name, rows", [("two_blocks", 2 * BLOCK_ROWS + 1), ("three_blocks", 3 * BLOCK_ROWS + 17)])
def test_pinned_flights_across_blocks_match_the_per_leg_sampling_bit_for_bit(name, rows):
    legs = _PINNED[name]
    t_ms, xy, boundaries = truth_columns(legs, EnuPoint(12.5, -40.0), 30.0, 10.0, 100)
    ref_t, ref_xy, ref_boundaries = per_leg_truth_columns(legs, EnuPoint(12.5, -40.0), 30.0, 10.0, 100)
    assert len(t_ms) == rows
    edges = range(BLOCK_ROWS, rows - 1, BLOCK_ROWS)  # the last sample of each full block
    assert any(last - first == 1 and (last in edges or last - 1 in edges) for _, first, last in boundaries)
    assert np.array_equal(t_ms, ref_t)
    assert xy.tobytes() == ref_xy.tobytes()
    assert boundaries == ref_boundaries
