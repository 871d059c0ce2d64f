"""Kinematic motion models CV, CA and CT over one common state layout.

Every model's states (``ModelKind.states``, SI units) are a subset of
:data:`LAYOUT`. The transition, its Jacobian and the process noise are
written once, over a batch of mixed models' states in that layout, where
a state that a model lacks holds 0; a model's states and matrices are the
slices at ``ModelKind.columns``.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Optional, Sequence

import numpy as np

from .records import record

# below this rotation angle |omega T| the CT coefficients switch to their
# Taylor series, where the closed forms would lose digits to cancellation
_SMALL_TURN = 1e-2

LAYOUT = ("x", "y", "vx", "vy", "ax", "ay", "omega")


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
    def columns(self) -> np.ndarray:
        """Positions of the model's states in :data:`LAYOUT`."""
        return _COLUMNS[self]

    @property
    def noise_keys(self) -> tuple[str, ...]:
        """The :class:`NoiseSigmas` fields that drive this model's process noise."""
        return {ModelKind.CV: ("accel",), ModelKind.CA: ("jerk",), ModelKind.CT: ("accel", "omega")}[self]


_COLUMNS = {mm: np.array([LAYOUT.index(k) for k in mm.states]) for mm in ModelKind}
# entries (row-major 7 x 7) where the CT Jacobian differs from the chain's:
# the x, y, vx and vy rows in the vx, vy and omega columns
_ARC_JACOBIAN = np.array([7 * row + col for row in range(4) for col in (2, 3, 6)])


def _finite_number(value: Any, name: str, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float if it is a finite number, else ``error`` naming ``name``. A bool or a
    string is none, though ``float()`` takes ``true`` and ``"nan"``; OverflowError past the largest float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number)) or not -math.inf < value < math.inf:
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


@record
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
        for name, v in vars(self).items():
            object.__setattr__(self, name, _finite_number(v, f"noise sigma {name}", ModelError))
        if self.accel < 0 or self.jerk < 0 or self.omega < 0:
            raise ModelError(f"negative noise sigma: {self}")

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSigmas":
        """Sigmas from a ``{field: value}`` dict; an unknown field, or no dict, is a ModelError."""
        if not isinstance(d, dict):
            raise ModelError(f"expected a {{name: value}} object, got {d!r}")
        unknown = set(d) - set(cls._fields)
        if unknown:
            raise ModelError(f"unknown sigma keys: {sorted(unknown)}")
        return cls(**d)


def state_mask(kinds: Sequence[ModelKind]) -> np.ndarray:
    """(B, 7) flags of the :data:`LAYOUT` states that each row's model has."""
    return np.array([[k in mm.states for k in LAYOUT] for mm in kinds]).reshape(-1, len(LAYOUT))


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


def propagate_rows(cols: np.ndarray, T: np.ndarray, turn: np.ndarray,
                   jacobian: bool = True) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Layout columns ``cols`` (7, B), one row per state, propagated over their
    steps ``T`` (B,), and the (B, 7, 7) Jacobians df/ds (None unless ``jacobian``).

    Columns flagged in ``turn`` (B,) follow the exact CT arc, the others the
    per-axis chain ``[[1, T, T^2/2], [0, 1, T], [0, 0, 1]]`` on ``[pos, vel,
    acc]``. A Jacobian is exact on its column's states; the rest multiply zeros.
    """
    half, n_turn = 0.5 * T * T, np.count_nonzero(turn)
    f = cols.copy()  # one contiguous array per state: the fastest in-place sums
    if n_turn < len(T):  # the arc overwrites the chain's sums on CT columns
        f[:4] += T * f[2:6]  # p + T v, v + T a
        f[:2] += half * f[4:6]  # + T^2/2 a
    F = None
    if jacobian:
        F = np.zeros((len(T), 49))  # row-major 7 x 7
        F[:, ::8] = 1.0
        F[:, 2:27:8] = T[:, None]  # x <- vx, y <- vy, vx <- ax, vy <- ay
        F[:, 4:13:8] = half[:, None]  # x <- ax, y <- ay
    if n_turn:
        every = n_turn == len(T)
        i = slice(None) if every else np.flatnonzero(turn)
        x, y, vx, vy, _, _, w = cols[:, i]
        T = T[i]
        swt_w, cwt_w, c, sn, dswt_dw, dcwt_dw = _turn_coeffs(w, T)
        f[:4, i] = (x + vx * swt_w - vy * cwt_w, y + vx * cwt_w + vy * swt_w, vx * c - vy * sn, vx * sn + vy * c)
        if jacobian:  # the entries of _ARC_JACOBIAN, in its order
            jac = (swt_w, -cwt_w, vx * dswt_dw - vy * dcwt_dw, cwt_w, swt_w, vx * dcwt_dw + vy * dswt_dw,
                   c, -sn, T * (-vx * sn - vy * c), sn, c, T * (vx * c - vy * sn))
            F[i if every else i[:, None], _ARC_JACOBIAN] = np.stack(jac, axis=1)
    return f, None if F is None else F.reshape(-1, 7, 7)


def noise_rows(sig: np.ndarray, has: np.ndarray) -> np.ndarray:
    """(B, 3) per row: the variance of the noise on top of each axis's chain (``jerk^2``
    with an acceleration, else ``accel^2``), its gain on the acceleration and ``omega^2``."""
    acc = has[:, 4]
    return np.stack([np.where(acc, sig[:, 1], sig[:, 0]) ** 2, acc * 1.0,
                     np.where(has[:, 6], sig[:, 2], 0.0) ** 2], axis=1)


def process_noise_rows(T: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(B, 7, 7) piecewise-constant white-noise covariances over steps ``T`` (B,)
    for :func:`noise_rows` ``q``: per-axis outer products, no cross-axis terms."""
    g = np.stack([0.5 * T * T, T, q[:, 1]], axis=1)  # gains on [pos, vel, acc]
    block = q[:, 0, None, None] * (g[:, :, None] * g[:, None, :])
    Q = np.zeros((len(T), 7, 7))
    Q[:, 0:6:2, 0:6:2] = block
    Q[:, 1:6:2, 1:6:2] = block
    Q[:, 6, 6] = q[:, 2] * T * T
    return Q


def sigma_rows(sigmas: Sequence[NoiseSigmas]) -> np.ndarray:
    """(B, 3) array of the ``accel``, ``jerk`` and ``omega`` sigmas, one row per entry."""
    return np.array([(s.accel, s.jerk, s.omega) for s in sigmas], dtype=float).reshape(-1, 3)

