"""Kinematic motion models: CV, CA, and CT.

Each model provides its state transition, transition Jacobian,
process-noise covariance, and the position-selecting measurement matrix.
``ModelKind.states`` gives each state layout (SI units throughout).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

# below this rotation angle |omega T| the CT coefficients switch to their
# Taylor series, where the closed forms would lose digits to cancellation
_SMALL_TURN = 1e-2


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
    """(B, n, n) matrices holding each per-axis ``block`` on the x and on the y states.

    The layout interleaves the axes, ``[x, y, vx, vy, (ax, ay)]``: a (B, m, m)
    block over ``[pos, vel, (acc)]`` lands on the even indices for x and on
    the odd ones for y, with no cross-axis terms.
    """
    m = 2 * block.shape[-1]
    M = np.zeros((block.shape[0], n, n))
    M[:, 0:m:2, 0:m:2] = block
    M[:, 1:m:2, 1:m:2] = block
    return M


# CV/CA transition matrix F = I + T D1 (+ T^2/2 D2): the per-axis kinematic
# chain [[1, T, T^2/2], [0, 1, T], [0, 0, 1]] on both axes, as 0/1 masks
_CHAIN_MASKS = {
    mm: [_per_axis(np.eye(m, k=k)[None], mm.state_dim)[0] for k in range(m)]
    for mm, m in ((ModelKind.CV, 2), (ModelKind.CA, 3))
}


def _turn_coeffs(w: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, ...]:
    """CT coefficients at turn rates ``w`` over steps ``T`` (arrays of one shape).

    Returns ``sin(wT)/w``, ``(1-cos(wT))/w``, ``cos(wT)``, ``sin(wT)`` and
    the w-derivatives of the first two. Below ``|wT| < _SMALL_TURN`` the two
    ratios and their derivatives are Taylor series (limit: the CV update),
    exact to rounding there; above it the closed forms lose at most about
    ``3e-16 / (wT)^2`` relative, ``1 - cos`` being taken as ``2 sin^2(wT/2)``.
    """
    a = w * T
    c, sn = np.cos(a), np.sin(a)
    vers = 2.0 * np.sin(0.5 * a) ** 2  # 1 - cos(a) without cancellation
    small = np.abs(a) < _SMALL_TURN
    w_div = np.where(small, 1.0, w)  # the closed forms are discarded there
    ww = w_div * w_div
    coeffs = [sn / w_div, vers / w_div, (a * c - sn) / ww, (a * sn - vers) / ww]
    if small.any():
        a2 = a * a
        series = [
            T * (1.0 - a2 / 6.0 * (1.0 - a2 / 20.0)),
            T * (0.5 * a * (1.0 - a2 / 12.0 * (1.0 - a2 / 30.0))),
            T * T * (-a / 3.0 * (1.0 - a2 / 10.0 * (1.0 - a2 / 28.0))),
            T * T * (0.5 * (1.0 - a2 / 4.0 * (1.0 - a2 / 18.0))),
        ]
        coeffs = [np.where(small, x, y) for x, y in zip(series, coeffs)]
    swt_w, cwt_w, dswt_dw, dcwt_dw = coeffs
    return swt_w, cwt_w, c, sn, dswt_dw, dcwt_dw


def _arc(x, y, vx, vy, w, swt_w, cwt_w, c, sn) -> list[np.ndarray]:
    """The CT state columns after one step: the exact circular arc."""
    return [x + vx * swt_w - vy * cwt_w, y + vx * cwt_w + vy * swt_w, vx * c - vy * sn, vx * sn + vy * c, w]


def propagate_states(mm: ModelKind, s: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The states of :func:`propagate_batch`, without the Jacobians.

    ``s`` (..., n) and the steps ``T`` broadcast against each other, so one
    entry state (n,) over an array of elapsed times is that state's
    trajectory. CV/CA take the per-axis chain ``p + T v (+ T^2/2 a)``, the
    sums of the transition matrix applied to ``s`` without its zero terms
    (the same bits as ``F @ s`` with numpy 2.4 on x86-64); CT takes the arc.
    """
    d = mm.state_dim
    cols = [s[..., i] for i in range(d)]
    if mm is ModelKind.CT:
        out = _arc(*cols, *_turn_coeffs(cols[4], T)[:4])
    elif mm is ModelKind.CV:
        x, y, vx, vy = cols
        out = [x + T * vx, y + T * vy, vx, vy]
    else:
        x, y, vx, vy, ax, ay = cols
        half = 0.5 * T * T
        out = [x + T * vx + half * ax, y + T * vy + half * ay, vx + T * ax, vy + T * ay, ax, ay]
    f = np.empty(np.broadcast_shapes(s.shape[:-1], np.shape(T)) + (d,))
    for i, col in enumerate(out):
        f[..., i] = col
    return f


def propagate_batch(mm: ModelKind, s: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the (B, n) states ``s`` propagated over its step ``T[b]`` seconds,
    and the (B, n, n) transition Jacobians df/ds there."""
    if mm is not ModelKind.CT:
        F = np.eye(mm.state_dim) + T[:, None, None] * _CHAIN_MASKS[mm][1]
        if mm is ModelKind.CA:
            F += (0.5 * T * T)[:, None, None] * _CHAIN_MASKS[mm][2]
        return propagate_states(mm, s, T), F

    x, y, vx, vy, w = s.T
    swt_w, cwt_w, c, sn, dswt_dw, dcwt_dw = _turn_coeffs(w, T)
    f = np.stack(_arc(x, y, vx, vy, w, swt_w, cwt_w, c, sn), axis=1)
    one, zero = np.ones_like(w), np.zeros_like(w)
    J = np.stack([
        one, zero, swt_w, -cwt_w, vx * dswt_dw - vy * dcwt_dw,
        zero, one, cwt_w, swt_w, vx * dcwt_dw + vy * dswt_dw,
        zero, zero, c, -sn, T * (-vx * sn - vy * c),
        zero, zero, sn, c, T * (vx * c - vy * sn),
        zero, zero, zero, zero, one,
    ], axis=1).reshape(-1, 5, 5)
    return f, J


def process_noise_batch(mm: ModelKind, T: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """(B, n, n) process-noise covariances for steps ``T`` and sigma rows ``sig``.

    ``sig`` is (B, 3): the :class:`NoiseSigmas` fields ``accel``, ``jerk``
    and ``omega`` of each row. Piecewise-constant white-noise construction:
    per-axis outer products, no cross-axis correlation.
    """
    half = 0.5 * T * T
    if mm is ModelKind.CA:
        # [pos, vel, acc] per axis
        g, sigma = np.stack([half, T, np.ones_like(T)], axis=1), sig[:, 1]
    else:
        g, sigma = np.stack([half, T], axis=1), sig[:, 0]  # [pos, vel] per axis
    Q = _per_axis((sigma**2)[:, None, None] * (g[:, :, None] * g[:, None, :]), mm.state_dim)
    if mm is ModelKind.CT:
        Q[:, 4, 4] = sig[:, 2] ** 2 * T * T
    return Q


def transition(mm: ModelKind, s: Sequence[float], T: float) -> np.ndarray:
    """Propagate state ``s`` over ``T`` seconds under model ``mm``."""
    s = _check_state(mm, s)
    return propagate_batch(mm, s[None], np.array([_check_dt(T)]))[0][0]


def jacobian(mm: ModelKind, s: Sequence[float], T: float) -> np.ndarray:
    """Transition Jacobian df/ds evaluated at ``s``."""
    s = _check_state(mm, s)
    return propagate_batch(mm, s[None], np.array([_check_dt(T)]))[1][0]


def process_noise(mm: ModelKind, T: float, sig: NoiseSigmas) -> np.ndarray:
    """Process-noise covariance Q for one step of length ``T``."""
    return process_noise_batch(mm, np.array([_check_dt(T)]), sigma_rows([sig]))[0]


def sigma_rows(sigmas: Sequence[NoiseSigmas]) -> np.ndarray:
    """(B, 3) array of the ``accel``, ``jerk`` and ``omega`` sigmas, one row per entry."""
    return np.array([(s.accel, s.jerk, s.omega) for s in sigmas], dtype=float).reshape(-1, 3)


def measurement_matrix(mm: ModelKind) -> np.ndarray:
    """2 x state_dim selector of the (x, y) position components."""
    return np.eye(2, mm.state_dim)
