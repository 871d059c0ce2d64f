"""Kinematic motion models: CV, CA, and CT.

Each model provides its state transition, transition Jacobian,
process-noise covariance, and the position-selecting measurement matrix.
``ModelKind.states`` gives each state layout (SI units throughout).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

# below this rotation angle the CT update switches to its series expansion
_SMALL_TURN = 1e-6


class ModelError(ValueError):
    """Dimension or parameter contract violation."""


class ModelKind(str, enum.Enum):
    CV = "CV"
    CA = "CA"
    CT = "CT"

    @property
    def states(self) -> tuple[str, ...]:
        """Names of the state components, in state-vector order."""
        tail = {ModelKind.CV: (), ModelKind.CA: ("ax", "ay"), ModelKind.CT: ("omega",)}[self]
        return ("x", "y", "vx", "vy") + tail

    @property
    def state_dim(self) -> int:
        return len(self.states)

    @property
    def noise_keys(self) -> tuple[str, ...]:
        """The :class:`NoiseSigmas` fields that drive this model's process noise."""
        return {ModelKind.CV: ("accel",), ModelKind.CA: ("jerk",), ModelKind.CT: ("accel", "omega")}[self]


@dataclass(frozen=True)
class NoiseSigmas:
    """Process-noise standard deviations.

    ``accel`` (m/s^2) and ``jerk`` (m/s^3) drive position/velocity
    diffusion, ``omega`` (rad/s) is the turn-rate random walk per step;
    ``ModelKind.noise_keys`` says which ones each model uses.
    """

    accel: float = 0.0
    jerk: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if self.accel < 0 or self.jerk < 0 or self.omega < 0:
            raise ModelError(f"negative noise sigma: {self}")

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSigmas":
        """Sigmas from a ``{field: value}`` mapping; an unknown field is a ModelError."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ModelError(f"unknown sigma keys: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in d.items()})


def _check_state(mm: ModelKind, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (mm.state_dim,):
        raise ModelError(f"{mm.value} expects state of length {mm.state_dim}, got shape {s.shape}")
    return s


def _check_dt(T: float) -> float:
    if not T > 0:
        raise ModelError(f"time step must be positive, got {T}")
    return float(T)


def _per_axis(block: np.ndarray, n: int) -> np.ndarray:
    """n x n matrix holding the per-axis ``block`` on the x and on the y states.

    The layout interleaves the axes, ``[x, y, vx, vy, (ax, ay)]``: a block
    over ``[pos, vel, (acc)]`` lands on the even indices for x and on the
    odd ones for y, with no cross-axis terms.
    """
    m = 2 * len(block)
    M = np.zeros((n, n))
    M[0:m:2, 0:m:2] = block
    M[1:m:2, 1:m:2] = block
    return M


def _linear_matrix(mm: ModelKind, T: float) -> np.ndarray:
    """CV/CA transition matrix: the per-axis kinematic chain on both axes."""
    if mm is ModelKind.CV:
        chain = np.array([[1.0, T], [0.0, 1.0]])
    else:
        chain = np.array([[1.0, T, 0.5 * T * T], [0.0, 1.0, T], [0.0, 0.0, 1.0]])
    return _per_axis(chain, mm.state_dim)


def _turn_coeffs(w: float, T: float) -> tuple[float, float, float, float]:
    """(sin(wT)/w, (1-cos(wT))/w, cos(wT), sin(wT)) with small-angle series."""
    a = w * T
    c, s = math.cos(a), math.sin(a)
    if abs(a) < _SMALL_TURN:
        # second-order series; limit is the CV update
        swt_w = T - w * w * T**3 / 6.0
        cwt_w = w * T * T / 2.0 - w**3 * T**4 / 24.0
    else:
        swt_w = s / w
        cwt_w = (1.0 - c) / w
    return swt_w, cwt_w, c, s


def transition(mm: ModelKind, s: Sequence[float], T: float) -> np.ndarray:
    """Propagate state ``s`` over ``T`` seconds under model ``mm``."""
    s = _check_state(mm, s)
    T = _check_dt(T)
    if mm is not ModelKind.CT:
        return _linear_matrix(mm, T) @ s

    x, y, vx, vy, w = s
    swt_w, cwt_w, c, sn = _turn_coeffs(w, T)
    return np.array([
        x + vx * swt_w - vy * cwt_w,
        y + vx * cwt_w + vy * swt_w,
        vx * c - vy * sn,
        vx * sn + vy * c,
        w,
    ])


def jacobian(mm: ModelKind, s: Sequence[float], T: float) -> np.ndarray:
    """Transition Jacobian df/ds evaluated at ``s``."""
    s = _check_state(mm, s)
    T = _check_dt(T)
    if mm is not ModelKind.CT:
        return _linear_matrix(mm, T)

    _, _, vx, vy, w = s
    swt_w, cwt_w, c, sn = _turn_coeffs(w, T)
    a = w * T
    if abs(a) < _SMALL_TURN:
        dswt_dw = -w * T**3 / 3.0
        dcwt_dw = T * T / 2.0 - w * w * T**4 / 8.0
    else:
        dswt_dw = (a * c - sn) / (w * w)
        dcwt_dw = (a * sn - (1.0 - c)) / (w * w)

    J = np.zeros((5, 5))
    J[0, 0] = J[1, 1] = J[4, 4] = 1.0
    J[0, 2] = swt_w
    J[0, 3] = -cwt_w
    J[0, 4] = vx * dswt_dw - vy * dcwt_dw
    J[1, 2] = cwt_w
    J[1, 3] = swt_w
    J[1, 4] = vx * dcwt_dw + vy * dswt_dw
    J[2, 2] = c
    J[2, 3] = -sn
    J[2, 4] = T * (-vx * sn - vy * c)
    J[3, 2] = sn
    J[3, 3] = c
    J[3, 4] = T * (vx * c - vy * sn)
    return J


def process_noise(mm: ModelKind, T: float, sig: NoiseSigmas) -> np.ndarray:
    """Process-noise covariance Q for one step of length ``T``.

    Piecewise-constant white-noise construction: per-axis outer products,
    no cross-axis correlation.
    """
    T = _check_dt(T)
    if mm is ModelKind.CA:
        g, sigma = np.array([0.5 * T * T, T, 1.0]), sig.jerk  # [pos, vel, acc] per axis
    else:
        g, sigma = np.array([0.5 * T * T, T]), sig.accel  # [pos, vel] per axis
    Q = _per_axis(sigma**2 * np.outer(g, g), mm.state_dim)
    if mm is ModelKind.CT:
        Q[4, 4] = sig.omega**2 * T * T
    return Q


def measurement_matrix(mm: ModelKind) -> np.ndarray:
    """2 x state_dim selector of the (x, y) position components."""
    return np.eye(2, mm.state_dim)
