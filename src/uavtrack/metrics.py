"""Evaluation numbers: per-epoch errors, summary statistics, per-segment
statistics and CDFs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


STATS = ("min", "max", "mean", "std")  # report order


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ErrorStats:
    min_m: float
    max_m: float
    mean_m: float
    std_m: float
    n: int


@dataclass(frozen=True)
class CdfCurve:
    errors_m: np.ndarray  # distinct, ascending
    fractions: np.ndarray  # strictly increasing, last == 1.0


def _xy(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        return points.astype(float, copy=False)
    return np.array([[p.x, p.y] for p in points], dtype=float).reshape(-1, 2)


def euclidean_errors(truth, est) -> np.ndarray:
    """Per-epoch Euclidean distance between matched positions.

    Each side is a ``(K, 2)`` array or a sequence of points with ``x`` and ``y``.
    """
    a, b = _xy(truth), _xy(est)
    if a.shape != b.shape:
        raise MetricsError(f"length mismatch: {a.shape[0]} truth vs {b.shape[0]} estimates")
    return np.linalg.norm(a - b, axis=1)


def stats(errors: Sequence[float]) -> ErrorStats:
    """Min / max / mean / sample std (n-1 denominator; std 0 for n=1): one row of :func:`segment_stats`."""
    e = np.asarray(errors, dtype=float)
    return ErrorStats(*segment_stats([e])[0].tolist(), e.size)


def segment_stats(groups: Sequence[Sequence[float]]) -> np.ndarray:
    """Min, max, mean and sample std of each error sequence in ``groups``, shape (G, 4).

    The columns follow :data:`STATS`. Sequences of one length L are stacked
    into an (n_L, L) array and reduced along axis 1, which sums in the order
    numpy's 1-d reductions do on each sequence alone, so every value is
    bit-identical to them (std 0 for L = 1).
    """
    arrays = [np.asarray(g, dtype=float) for g in groups]
    by_length: dict[int, list[int]] = {}
    for i, a in enumerate(arrays):
        by_length.setdefault(a.size, []).append(i)
    if 0 in by_length:
        raise MetricsError("empty error sequence")
    out = np.empty((len(arrays), len(STATS)))
    for length, rows in by_length.items():
        stack = np.stack([arrays[i] for i in rows])
        out[rows, 0] = stack.min(axis=1)
        out[rows, 1] = stack.max(axis=1)
        out[rows, 2] = stack.mean(axis=1)
        out[rows, 3] = stack.std(axis=1, ddof=1) if length > 1 else 0.0
    return out


def cdf(errors: Sequence[float]) -> CdfCurve:
    """Empirical staircase CDF at each distinct sorted error value."""
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise MetricsError("empty error sequence")
    values, counts = np.unique(e, return_counts=True)
    fractions = np.cumsum(counts) / e.size
    return CdfCurve(values, fractions)
