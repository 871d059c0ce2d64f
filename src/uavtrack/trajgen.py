"""Synthetic ground-truth trajectories built from motion-model legs.

A flight is a chain of CV / CA / CT legs with continuous position and
velocity across leg boundaries, sampled on a fixed grid (100 ms default,
matching a typical onboard GPS logger).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .dataio import TimedSample
from .geodesy import EnuPoint
from .motionmodels import ModelKind


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


def generate_truth(
    legs: Sequence[LegSpec],
    start: EnuPoint = EnuPoint(0.0, 0.0),
    heading_deg: float = 0.0,
    speed: float = 10.0,
    dt_ms: int = 100,
) -> tuple[list[TimedSample], list[tuple[LegSpec, int, int]]]:
    """Sample the leg chain on a ``dt_ms`` grid.

    Returns (samples, boundaries) where each boundary is
    (leg, first_sample_idx, last_sample_idx) into the returned sequence.
    """
    if not legs:
        raise LegError("at least one leg required")
    if dt_ms <= 0:
        raise LegError(f"dt_ms must be positive, got {dt_ms}")

    x, y = start.x, start.y
    h = math.radians(heading_deg)
    vx, vy = speed * math.cos(h), speed * math.sin(h)
    dt = dt_ms / 1000.0

    samples: list[TimedSample] = [TimedSample(0, EnuPoint(x, y))]
    boundaries: list[tuple[LegSpec, int, int]] = []
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
            samples.append(TimedSample(t_ms, EnuPoint(x, y)))
        boundaries.append((leg, first, len(samples) - 1))
    return samples, boundaries
