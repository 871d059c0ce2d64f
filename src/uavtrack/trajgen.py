"""Synthetic ground-truth trajectories built from motion-model legs.

A flight is a chain of CV / CA / CT legs with continuous position and
velocity across leg boundaries, sampled on a fixed grid (100 ms default,
matching a typical onboard GPS logger).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataio import TimedSample, timed_samples
from .geodesy import EnuPoint
from .motionmodels import ModelKind, propagate_states


class LegError(ValueError):
    pass


@dataclass(frozen=True)
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


def leg_from_dict(d: dict) -> LegSpec:
    try:
        mm = ModelKind(d["mm"])
        return LegSpec(
            mm=mm,
            duration_s=float(d["duration_s"]),
            speed=float(d["speed"]) if "speed" in d else None,
            accel=float(d.get("accel", 0.0)),
            omega=float(d.get("omega", 0.0)),
        )
    except (KeyError, ValueError, TypeError) as exc:
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

    x, y = start.x, start.y
    h, v = math.radians(heading_deg), _standstill(speed)
    vx, vy = v * math.cos(h), v * math.sin(h)

    xy = [np.array([[x, y]])]
    boundaries: list[tuple[LegSpec, int, int]] = []
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
        states = propagate_states(leg.mm, entry, np.arange(1, n + 1) * dt_ms / 1000.0)
        x, y, vx, vy = states[-1, :4].tolist()
        xy.append(states[:, :2])
        boundaries.append((leg, last, last + n))
        last += n
    return np.arange(last + 1, dtype=np.int64) * dt_ms, np.concatenate(xy), boundaries


def generate_truth(
    legs: Sequence[LegSpec],
    start: EnuPoint = EnuPoint(0.0, 0.0),
    heading_deg: float = 0.0,
    speed: float = 10.0,
    dt_ms: int = 100,
) -> tuple[list[TimedSample], list[tuple[LegSpec, int, int]]]:
    """:func:`truth_columns` as one :class:`TimedSample` per sample."""
    t_ms, xy, boundaries = truth_columns(legs, start, heading_deg, speed, dt_ms)
    return timed_samples(t_ms, xy), boundaries
