"""Evaluation numbers: per-epoch errors, summary statistics, per-segment
statistics and CDFs."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .records import record


STATS = ("min", "max", "mean", "std")  # report order


class MetricsError(ValueError):
    pass


@record
class ErrorStats:
    min_m: float
    max_m: float
    mean_m: float
    std_m: float
    n: int


@record
class CdfCurve:
    errors_m: np.ndarray  # distinct, ascending
    fractions: np.ndarray  # strictly increasing, last == 1.0


def euclidean_errors(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Per-epoch Euclidean distance between matched ``(K, 2)`` positions."""
    if truth.shape != est.shape:
        raise MetricsError(f"length mismatch: {truth.shape[0]} truth vs {est.shape[0]} estimates")
    return np.linalg.norm(truth - est, axis=1)


def stats(errors: Sequence[float]) -> ErrorStats:
    """Min / max / mean / sample std (n-1 denominator; std 0 for n=1): one row of :func:`segment_stats`."""
    e = np.asarray(errors, dtype=float)
    return ErrorStats(*segment_stats([e])[0].tolist(), e.size)


def segment_stats(groups: Sequence[Sequence[float]] | np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """Min, max, mean and sample std of each error sequence in ``groups``, shape (G, 4).

    ``groups`` is a sequence of error sequences or, with ``lengths`` (G,),
    one array holding them back to back. The columns follow :data:`STATS`.
    Sequences of one length L are gathered into an (n_L, L) array and
    reduced along axis 1, which sums in the order numpy's 1-d reductions do
    on each sequence alone, so every value is bit-identical to them (std 0
    for L = 1).
    """
    if lengths is None:
        arrays = [np.asarray(g, dtype=float) for g in groups]
        lengths = [a.size for a in arrays]
        groups = np.concatenate([*arrays, np.empty(0)])
    values, lengths = np.asarray(groups, dtype=float), np.asarray(lengths, dtype=np.intp)
    if (lengths == 0).any():
        raise MetricsError("empty error sequence")
    starts = np.cumsum(lengths) - lengths
    out = np.empty((len(lengths), len(STATS)))
    # np.bincount, not np.unique: numpy 2's hashed unique of integers takes about 13 ms on its first call
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == length)
        stack = values[starts[rows, None] + np.arange(length)]
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


def quantile(curve: CdfCurve, q: float) -> float:
    """Smallest error e with F(e) >= q (right-continuous inverse of :func:`cdf`)."""
    if not 0.0 < q <= 1.0:
        raise MetricsError(f"quantile level must be in (0, 1], got {q}")
    idx = int(np.searchsorted(curve.fractions, q - 1e-12))
    return float(curve.errors_m[min(idx, curve.errors_m.size - 1)])
