"""Evaluation artifacts: per-epoch errors, summary statistics, CDFs,
per-segment comparison tables, and velocity summaries."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataio import Segment, TimedSample
from .motionmodels import ModelKind

log = logging.getLogger(__name__)

_STATS = ("min", "max", "mean", "std")


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


@dataclass(frozen=True)
class SegmentReportRow:
    segment: str
    mm: str
    stat: str
    rf_m: float
    ekf_m: float
    better: str  # "rf" | "ekf" | "tie"


def euclidean_errors(truth: Sequence, est: Sequence) -> np.ndarray:
    """Per-epoch Euclidean distance between matched position sequences."""
    a = np.array([[p.x, p.y] for p in truth], dtype=float)
    b = np.array([[p.x, p.y] for p in est], dtype=float)
    if a.shape != b.shape:
        raise MetricsError(f"length mismatch: {a.shape[0]} truth vs {b.shape[0]} estimates")
    return np.linalg.norm(a - b, axis=1)


def stats(errors: Sequence[float]) -> ErrorStats:
    """Min / max / mean / sample std (n-1 denominator; std 0 for n=1)."""
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise MetricsError("empty error sequence")
    std = float(np.std(e, ddof=1)) if e.size > 1 else 0.0
    return ErrorStats(float(e.min()), float(e.max()), float(e.mean()), std, int(e.size))


def stat_items(errors: Sequence[float]) -> list[tuple[str, float]]:
    """``(stat, value)`` for min, max, mean and std, in report order."""
    s = stats(errors)
    return [(stat, getattr(s, stat + "_m")) for stat in _STATS]


def cdf(errors: Sequence[float]) -> CdfCurve:
    """Empirical staircase CDF at each distinct sorted error value."""
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise MetricsError("empty error sequence")
    values, counts = np.unique(e, return_counts=True)
    fractions = np.cumsum(counts) / e.size
    return CdfCurve(values, fractions)


def quantile(curve: CdfCurve, q: float) -> float:
    """Smallest error e with F(e) >= q (right-continuous inverse)."""
    if not 0.0 < q <= 1.0:
        raise MetricsError(f"quantile level must be in (0, 1], got {q}")
    idx = int(np.searchsorted(curve.fractions, q - 1e-12))
    return float(curve.errors_m[min(idx, curve.errors_m.size - 1)])


def segment_report(
    segments: Sequence[Segment],
    rf_errors: Mapping[str, Sequence[float]],
    ekf_errors: Mapping[str, Sequence[float]],
) -> list[SegmentReportRow]:
    """Per-segment RF vs EKF error statistics with lower-is-better flags.

    Errors are passed pre-partitioned by segment id; segments without data
    are omitted with a warning.
    """
    rows: list[SegmentReportRow] = []
    for seg in segments:
        rf = rf_errors.get(seg.id)
        ekf = ekf_errors.get(seg.id)
        if rf is None or ekf is None or len(rf) == 0 or len(ekf) == 0:
            log.warning("segment %s has no data, omitted from report", seg.id)
            continue
        for (stat, rv), (_, ev) in zip(stat_items(rf), stat_items(ekf)):
            better = "tie" if rv == ev else ("ekf" if ev < rv else "rf")
            rows.append(SegmentReportRow(seg.id, seg.mm.value, stat, rv, ev, better))
    return rows


def report_to_csv_rows(rows: Sequence[SegmentReportRow]) -> list[str]:
    out = ["segment,mm,stat,rf_m,ekf_m,better"]
    for r in rows:
        out.append(f"{r.segment},{r.mm},{r.stat},{r.rf_m:.4f},{r.ekf_m:.4f},{r.better}")
    return out


def report_to_text(rows: Sequence[SegmentReportRow]) -> str:
    """Aligned plain-text table; '*' marks the lower of the two columns."""
    lines = [f"{'segment':<9}{'mm':<5}{'stat':<6}{'RF (m)':>12}{'EKF (m)':>12}"]
    for r in rows:
        rf = f"{r.rf_m:.2f}" + ("*" if r.better == "rf" else "")
        ekf = f"{r.ekf_m:.2f}" + ("*" if r.better == "ekf" else "")
        lines.append(f"{r.segment:<9}{r.mm:<5}{r.stat:<6}{rf:>12}{ekf:>12}")
    return "\n".join(lines)


def cdf_to_csv_rows(curve: CdfCurve) -> list[str]:
    out = ["error_m,fraction"]
    for e, f in zip(curve.errors_m, curve.fractions):
        out.append(f"{e:.6f},{f:.8f}")
    return out


def velocity_profile(
    truth: Sequence[TimedSample], segments: Sequence[Segment]
) -> dict[str, dict[str, float]]:
    """Per-segment speed mean/std (plus acceleration stats for CA segments).

    ``truth`` must be in the local frame and indexed consistently with the
    segment definitions. Single-sample segments are omitted with a warning.
    """
    t = np.array([s.t_ms for s in truth], dtype=float) / 1000.0
    pos = np.array([[s.pos.x, s.pos.y] for s in truth], dtype=float)
    out: dict[str, dict[str, float]] = {}
    for seg in segments:
        sl = slice(seg.start_idx, seg.end_idx + 1)
        ts, ps = t[sl], pos[sl]
        if ts.size < 2:
            log.warning("segment %s has fewer than 2 samples, omitted", seg.id)
            continue
        dt = np.diff(ts)
        v = np.diff(ps, axis=0) / dt[:, None]
        speed = np.linalg.norm(v, axis=1)
        entry = {
            "speed_mean": float(speed.mean()),
            "speed_std": float(np.std(speed, ddof=1)) if speed.size > 1 else 0.0,
        }
        if seg.mm is ModelKind.CA and v.shape[0] >= 2:
            dt_mid = 0.5 * (dt[1:] + dt[:-1])
            acc = np.linalg.norm(np.diff(v, axis=0) / dt_mid[:, None], axis=1)
            entry["accel_mean"] = float(acc.mean())
            entry["accel_std"] = float(np.std(acc, ddof=1)) if acc.size > 1 else 0.0
        out[seg.id] = entry
    return out
