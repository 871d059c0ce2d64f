"""Synthetic ground-truth trajectories built from motion-model legs.

A flight is a chain of CV / CA / CT legs with continuous position and
velocity across leg boundaries, sampled on a fixed grid (100 ms default,
matching a typical onboard GPS logger).
"""

from __future__ import annotations

import math
import sys
from typing import Any, Optional, Sequence

import numpy as np

from .geodesy import EnuPoint
from .motionmodels import ModelKind, _finite_number, _turn_coeffs, propagate_rows
from .records import record


class LegError(ValueError):
    pass


@record
class LegSpec:
    """One flight leg.

    ``speed`` resets the speed magnitude at leg entry (heading kept);
    ``accel`` (m/s^2, along current heading, CA only) and ``omega``
    (rad/s, CT only) parameterize the motion.
    """

    mm: ModelKind
    duration_s: float
    speed: Optional[float] = None
    accel: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise LegError(f"leg duration must be positive, got {self.duration_s}")
        if self.mm is ModelKind.CT and self.omega == 0.0:
            raise LegError("CT leg requires a nonzero omega")


# the keys of a leg's config entry, and the one each model adds
_LEG_KEYS = frozenset({"mm", "duration_s", "speed", "sigmas"})
_MODEL_KEYS = {ModelKind.CA: "accel", ModelKind.CT: "omega"}


def check_leg_keys(d: Any) -> None:
    """LegError naming the first key of leg entry ``d`` that its model's leg does not take.

    An entry that is no dict or names no known model passes: :func:`leg_from_dict` rejects it.
    """
    try:
        mm = ModelKind(d["mm"])
    except (KeyError, TypeError, ValueError):
        return
    extra = [k for k in d if k not in _LEG_KEYS and k != _MODEL_KEYS.get(mm)]
    if extra:
        raise LegError(f"a {mm.value} leg takes no key {extra[0]!r}")


def leg_from_dict(d: dict) -> LegSpec:
    """A leg from its config entry; each number it gives must be a finite number (``motionmodels._finite_number``),
    and each key one its model's leg takes (:func:`check_leg_keys`)."""
    try:
        mm = ModelKind(d["mm"])
        numbers = {k: _finite_number(d[k], k) for k in ("duration_s", "speed", "accel", "omega") if k in d}
        check_leg_keys(d)
        return LegSpec(mm, **numbers)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise LegError(f"invalid leg spec {d!r}: {exc}") from exc


def _standstill(speed: float) -> float:
    """0 for a speed (or speed change per sample) below the smallest normal double: no heading."""
    return 0.0 if abs(speed) < sys.float_info.min else speed


def truth_columns(
    legs: Sequence[LegSpec],
    start: EnuPoint = EnuPoint(0.0, 0.0),
    heading_deg: float = 0.0,
    speed: float = 10.0,
    dt_ms: int = 100,
) -> tuple[np.ndarray, np.ndarray, list[tuple[LegSpec, int, int]]]:
    """Sample the leg chain on a ``dt_ms`` grid.

    Returns ``t_ms`` (int64, (N,)), local positions ``xy`` (N, 2) and one
    boundary (leg, first_sample_idx, last_sample_idx) per leg into them.
    """
    if not legs:
        raise LegError("at least one leg required")
    if dt_ms <= 0:
        raise LegError(f"dt_ms must be positive, got {dt_ms}")

    # pass 1, per leg: its entry state, and its exit by the leg's exact transition over its
    # n samples, in propagate_rows' order of operations, so each exit has that row's bits
    ns = [max(round(leg.duration_s * 1000 / dt_ms), 1) for leg in legs]
    turns = [(leg.omega, n * dt_ms / 1000.0) for leg, n in zip(legs, ns) if leg.mm is ModelKind.CT]
    arcs = zip(*(c.tolist() for c in _turn_coeffs(*np.array(turns).reshape(-1, 2).T)[:4]))
    x, y = start.x, start.y
    h, v = math.radians(heading_deg), _standstill(speed)
    vx, vy = v * math.cos(h), v * math.sin(h)
    entries = []
    CA, CT = ModelKind.CA, ModelKind.CT  # locals: the loop reads them on every leg
    for leg, n in zip(legs, ns):
        if leg.speed is not None:
            v, s = math.hypot(vx, vy), _standstill(leg.speed)
            vx, vy = (vx / v * s, vy / v * s) if v > 0 else (s, 0.0)
        ax = ay = 0.0
        if leg.mm is CA:  # fixed acceleration vector along heading at leg entry
            v, a = math.hypot(vx, vy), _standstill(leg.accel * dt_ms / 1000) and leg.accel
            ux, uy = (vx / v, vy / v) if v > 0 else (1.0, 0.0)
            ax, ay = a * ux, a * uy
        entries.append((x, y, vx, vy, ax, ay, leg.omega if leg.mm is CT else 0.0))
        if leg.mm is CT:
            swt_w, cwt_w, c, sn = next(arcs)
            x, y, vx, vy = x + vx * swt_w - vy * cwt_w, y + vx * cwt_w + vy * swt_w, vx * c - vy * sn, vx * sn + vy * c
        else:
            T = n * dt_ms / 1000.0
            half = 0.5 * T * T
            x, y, vx, vy = x + T * vx + half * ax, y + T * vy + half * ay, vx + T * ax, vy + T * ay

    # pass 2, whole flight: every sample from its leg's entry state over its elapsed time
    last = sum(ns)
    firsts = np.cumsum(ns) - ns
    elapsed = np.arange(1, last + 1)
    elapsed -= np.repeat(firsts, ns)  # in place, as del below: fewer fresh pages to fault in
    turn = np.repeat([leg.mm is CT for leg in legs], ns)
    cols = np.repeat(np.array(entries).T, ns, axis=1)  # (7, N), one contiguous row per state
    f = propagate_rows(cols, elapsed * dt_ms / 1000.0, turn, jacobian=False)[0]
    del cols, elapsed
    xy = np.empty((last + 1, 2))
    xy[0] = start.x, start.y
    xy[1:] = f[:2].T
    boundaries = [(leg, first, first + n) for leg, first, n in zip(legs, firsts.tolist(), ns)]
    return np.arange(last + 1, dtype=np.int64) * dt_ms, xy, boundaries
