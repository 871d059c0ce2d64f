"""The CLI tables against a frozen copy of the f-string row builders they replaced."""

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from hypothesis import example, given, settings, strategies as st

from uavtrack import cli
from uavtrack.dataio import Segment
from uavtrack.metrics import STATS, CdfCurve, cdf, segment_stats
from uavtrack.motionmodels import ModelKind, NoiseSigmas

# --- frozen reference: the row builders of metrics and the segment_stats.csv
# loop of cmd_evaluate, kept as they were, except that the loop is a function
# and each file is the lines joined by line feeds with a trailing one.


@dataclass(frozen=True)
class SegmentReportRow:
    segment: str
    mm: str
    stat: str
    rf_m: float
    ekf_m: float
    better: str  # "rf" | "ekf" | "tie"


def segment_report(
    segments: Sequence[Segment],
    rf_errors: Mapping[str, Sequence[float]],
    ekf_errors: Mapping[str, Sequence[float]],
) -> list[SegmentReportRow]:
    present = [s for s in segments if len(rf_errors.get(s.id, ())) and len(ekf_errors.get(s.id, ()))]
    rf = segment_stats([rf_errors[s.id] for s in present]).tolist()
    ekf = segment_stats([ekf_errors[s.id] for s in present]).tolist()
    rows: list[SegmentReportRow] = []
    for seg, rf_row, ekf_row in zip(present, rf, ekf):
        for stat, rv, ev in zip(STATS, rf_row, ekf_row):
            better = "tie" if rv == ev else ("ekf" if ev < rv else "rf")
            rows.append(SegmentReportRow(seg.id, seg.mm.value, stat, rv, ev, better))
    return rows


def report_to_csv_rows(rows: Sequence[SegmentReportRow]) -> list[str]:
    out = ["segment,mm,stat,rf_m,ekf_m,better"]
    for r in rows:
        out.append(f"{r.segment},{r.mm},{r.stat},{r.rf_m:.4f},{r.ekf_m:.4f},{r.better}")
    return out


def cdf_to_csv_rows(curve: CdfCurve) -> list[str]:
    rows = map("{:.6f},{:.8f}".format, curve.errors_m.tolist(), curve.fractions.tolist())
    return ["error_m,fraction", *rows]


def segment_stats_lines(segments, errors) -> list[str]:
    lines = ["segment,mm,stat,value_m"]
    seg_stats = segment_stats([errors[seg.start_idx : seg.end_idx + 1] for seg in segments])
    for seg, values in zip(segments, seg_stats.tolist()):
        for stat, value in zip(STATS, values):
            lines.append(f"{seg.id},{seg.mm.value},{stat},{value:.4f}")
    return lines


def _text(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _written(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "table.csv")
        write(path, *args)
        return path.read_bytes()


# --- per-segment errors. On a grid of 1/32 m a value with an odd
# numerator lies on a half at the fourth decimal (1/32 = 0.03125), and on
# 1/128 m at the sixth; a share of the errors is exactly zero.


def _errors(rng, n: int, grid) -> np.ndarray:
    e = rng.gamma(2.0, 5.0, n) if grid is None else rng.integers(0, 2000 * grid, n) / grid
    return np.where(rng.random(n) < 0.2, 0.0, e)


_grid = st.sampled_from([None, 32, 128])


@settings(deadline=None, max_examples=150)
@given(
    lengths=st.lists(st.integers(1, 40), max_size=8),
    models=st.lists(st.sampled_from(list(ModelKind)), min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    grid=_grid,
    ekf_is_rf=st.booleans(),
)
@example(lengths=[], models=[ModelKind.CV] * 8, seed=0, grid=None, ekf_is_rf=False)  # no track
def test_report_and_segment_stats_match_frozen_rows(lengths, models, seed, grid, ekf_is_rf):
    rng = np.random.default_rng(seed)
    edges = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    segments = [
        Segment(f"S{i + 1}", a, b - 1, mm, NoiseSigmas())
        for i, (a, b, mm) in enumerate(zip(edges, edges[1:], models))
    ]
    rf = [_errors(rng, n, grid) for n in lengths]
    ekf = [e.copy() if ekf_is_rf else _errors(rng, len(e), grid) for e in rf]

    ids = [seg.id for seg in segments]
    want = _text(report_to_csv_rows(segment_report(segments, dict(zip(ids, rf)), dict(zip(ids, ekf)))))
    assert _written(cli._write_segment_table, segments, rf, ekf) == want

    flat = np.concatenate([np.empty(0), *rf])
    groups = [flat[seg.start_idx : seg.end_idx + 1] for seg in segments]
    want = _text(segment_stats_lines(segments, flat))
    assert _written(cli._write_segment_table, segments, groups, None) == want


@settings(deadline=None, max_examples=150)
@given(
    n=st.sampled_from([1, 2, 3, 7, 100, 512, 1024, 3000]),
    seed=st.integers(0, 2**32 - 1),
    grid=_grid,
)
@example(n=1, seed=0, grid=128)
def test_cdf_matches_frozen_rows(n, seed, grid):
    # n a power of two puts fractions on a half at the eighth decimal (3/512)
    errors = _errors(np.random.default_rng(seed), n, grid)
    assert _written(cli._write_cdf, errors) == _text(cdf_to_csv_rows(cdf(errors)))


def test_halves_zeros_and_one_ulp():
    # 0.03125 and 0.0078125 are halves at the last decimal written, which
    # rounds to even; the fraction 1/512 is one at the eighth. An EKF error
    # one ulp below the RF one is better, not a tie, though both print alike.
    segs = [Segment("S1", 0, 1, ModelKind.CA, NoiseSigmas()), Segment("S2", 2, 3, ModelKind.CT, NoiseSigmas())]
    rf = [np.array([0.03125, 0.09375]), np.array([1.0, 2.0])]
    ekf = [np.array([0.0, 0.0]), np.array([np.nextafter(1.0, 0.0), 2.0])]
    want = report_to_csv_rows(segment_report(segs, {"S1": rf[0], "S2": rf[1]}, {"S1": ekf[0], "S2": ekf[1]}))
    assert "S2,CT,min,1.0000,1.0000,ekf" in want
    assert _written(cli._write_segment_table, segs, rf, ekf) == _text(want)
    errors = np.r_[0.0078125, np.full(511, 1.0)]
    assert _written(cli._write_cdf, errors).splitlines()[1] == b"0.007812,0.00195312"
