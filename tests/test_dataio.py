import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uavtrack.dataio import (
    EmptyInputError,
    ParseError,
    SegmentError,
    Segment,
    kept_mask,
    load_segments,
    match_times,
    parse_position_log,
    write_csv,
    write_position_log,
    write_segments,
)
from uavtrack.ekf import estimate_R_arrays
from uavtrack.geodesy import EnuPoint, GeoPoint
from uavtrack.metrics import euclidean_errors
from uavtrack.motionmodels import ModelKind, NoiseSigmas
from uavtrack.objects import AlignedPair, TimedSample, align, clean


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _enu(t_ms, x, y):
    return TimedSample(t_ms, EnuPoint(x, y))


class TestParsing:
    def test_well_formed_rows(self, tmp_path):
        p = _write(tmp_path / "a.csv", "t_ms,lat_deg,lon_deg\n100,35.8,-78.7\n200,35.81,-78.71\n300,35.82,-78.72\n")
        t_ms, latlon = parse_position_log(p)
        assert t_ms.tolist() == [100, 200, 300]
        assert GeoPoint(*latlon[0]) == GeoPoint(35.8, -78.7)

    def test_out_of_order_rows_sorted(self, tmp_path):
        p = _write(tmp_path / "a.csv", "t_ms,lat_deg,lon_deg\n300,35.8,-78.7\n100,35.81,-78.71\n")
        assert parse_position_log(p)[0].tolist() == [100, 300]

    def test_bad_latitude_names_line(self, tmp_path):
        p = _write(tmp_path / "a.csv", "t_ms,lat_deg,lon_deg\n100,35.8,-78.7\n200,91.0,-78.7\n")
        with pytest.raises(ParseError) as exc:
            parse_position_log(p)
        assert exc.value.line_no == 3

    def test_malformed_row_names_line(self, tmp_path):
        p = _write(tmp_path / "a.csv", "t_ms,lat_deg,lon_deg\n100,35.8\n")
        with pytest.raises(ParseError) as exc:
            parse_position_log(p)
        assert exc.value.line_no == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyInputError):
            parse_position_log(_write(tmp_path / "a.csv", ""))
        with pytest.raises(EmptyInputError):
            parse_position_log(_write(tmp_path / "b.csv", "t_ms,lat_deg,lon_deg\n"))

    def test_duplicate_timestamps_keep_first(self, tmp_path):
        p = _write(tmp_path / "a.csv", "t_ms,lat_deg,lon_deg\n100,35.8,-78.7\n100,35.9,-78.7\n")
        t_ms, latlon = parse_position_log(p)
        assert len(t_ms) == 1
        assert latlon[0, 0] == 35.8

    def test_write_read_round_trip(self, tmp_path):
        t_ms, latlon = np.array([100, 200]), np.array([(35.8, -78.7), (35.81, -78.71)])
        p = tmp_path / "log.csv"
        write_position_log(p, t_ms, latlon)
        back_t, back_latlon = parse_position_log(p)
        assert back_t.tolist() == t_ms.tolist() and back_latlon.tolist() == latlon.tolist()

    def test_plain_log_parse_memory_bounded_by_file_size(self, tmp_path):
        # the size of the dense_segments truth log; a decoded text copy of the
        # body alone would take 4 bytes per character
        k = np.arange(27_001)
        p = tmp_path / "truth.csv"
        write_position_log(p, 100 * k, np.column_stack((35.8 + 1e-6 * np.sin(k), -78.7 + 1e-6 * k)))
        parse_position_log(p)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            t_ms, _ = parse_position_log(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t_ms) == 27_001
        assert peak <= 4 * p.stat().st_size


class TestWriteCsv:
    def test_matches_str_format_bytes(self, tmp_path):
        # the former writer's line format, one str.format per row
        t = np.array([0, -5, 2**62, 7, 8, 9, 10])
        ids = np.array(["S1", "S10", "x y", "", "S2", "S3", "S4"])
        a = np.array([-0.0, np.nan, np.inf, -np.inf, 1.25e6, 9.87654321e15, -3.3e-7])
        columns = [np.tile(c, 600) for c in (t, ids, a, a[::-1])]  # 4,200 rows: two blocks
        p = tmp_path / "out.csv"
        write_csv(p, ["t", "id", "a", "b"], "%s,%s,%.6f,%.10f", *columns)
        lines = map("{},{},{:.6f},{:.10f}\n".format, *(c.tolist() for c in columns))
        assert p.read_bytes() == ("t,id,a,b\n" + "".join(lines)).encode()

    @given(st.floats(), st.integers(0, 12))
    def test_float_conversion_matches_str_format(self, x, digits):
        assert "%.*f" % (digits, x) == "{:.{}f}".format(x, digits)


class TestAlign:
    def test_exact_match(self):
        pairs = align([_enu(1000, 0, 0)], [_enu(1000, 1, 1)], tol_ms=0)
        assert len(pairs) == 1
        assert pairs[0].t_ms == 1000

    def test_outside_window(self):
        assert align([_enu(1050, 0, 0)], [_enu(1000, 1, 1)], tol_ms=10) == []

    def test_nearest_within_window(self):
        # candidates enumerated by hand: rf 995 matches uav 1000 (|dt|=5),
        # rf 2000 has no uav within 50 ms
        uav = [_enu(900, 0, 0), _enu(1000, 1, 1), _enu(1100, 2, 2)]
        rf = [_enu(995, 5, 5), _enu(2000, 6, 6)]
        pairs = align(uav, rf, tol_ms=50)
        assert len(pairs) == 1
        assert pairs[0].uav == EnuPoint(1, 1)

    def test_each_uav_used_once(self):
        uav = [_enu(1000, 1, 1)]
        rf = [_enu(999, 0, 0), _enu(1001, 0, 0)]
        assert len(align(uav, rf, tol_ms=5)) == 1

    def test_output_bounded_by_inputs(self):
        uav = [_enu(t, 0, 0) for t in range(0, 10000, 100)]
        rf = [_enu(t, 0, 0) for t in range(0, 10000, 1000)]
        pairs = align(uav, rf, tol_ms=1)
        assert len(pairs) <= min(len(uav), len(rf))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            align([], [], tol_ms=-1)


def _greedy_match(uav_t, rf_t, tol_ms):
    """Brute force: each RF sample in order takes the nearest unused UAV sample in the window."""
    used = set()
    pairs = []
    for i, t in enumerate(rf_t):
        free = [(abs(u - t), j) for j, u in enumerate(uav_t) if abs(u - t) <= tol_ms and j not in used]
        if free:
            j = min(free)[1]  # lower index on a tie
            used.add(j)
            pairs.append((i, j))
    return pairs


_times = st.lists(st.integers(0, 3000), unique=True, max_size=60).map(sorted)
# in-memory sample lists given to align may repeat a timestamp
_times_with_repeats = st.lists(st.integers(0, 300).map(lambda k: 10 * k), max_size=60).map(sorted)


class TestMatchTimes:
    @settings(max_examples=300, deadline=None)
    @given(uav_t=st.one_of(_times, _times_with_repeats), rf_t=_times, tol_ms=st.integers(0, 150))
    @example(uav_t=[900, 1100], rf_t=[1000], tol_ms=100)  # tie goes to the lower index
    @example(uav_t=[1000], rf_t=[999, 1001], tol_ms=5)  # second RF sample finds its only candidate taken
    @example(uav_t=[], rf_t=[1000], tol_ms=10)
    @example(uav_t=[990, 990, 1010], rf_t=[1000, 1001], tol_ms=10)  # the first of equal times goes first
    # runs of overlapping windows between disjoint ones: the runs take the
    # nearest-unused rule, the disjoint windows their nearest candidate
    @example(uav_t=[0, 10, 20, 30, 40, 100, 300], rf_t=[12, 14, 16, 95, 200, 290, 305], tol_ms=15)
    @example(uav_t=[0, 5, 10, 100, 105], rf_t=[4, 6, 103], tol_ms=10)
    @example(uav_t=[10, 10, 20, 20, 40], rf_t=[14, 16, 18, 41], tol_ms=10)  # repeats inside a run
    @example(uav_t=[0, 20, 40, 60], rf_t=[10, 30, 50], tol_ms=10)  # neighbours share one candidate each
    def test_equals_brute_force_greedy(self, uav_t, rf_t, tol_ms):
        rf_idx, uav_idx = match_times(np.array(uav_t, dtype=np.int64), np.array(rf_t, dtype=np.int64), tol_ms)
        pairs = list(zip(rf_idx.tolist(), uav_idx.tolist()))
        assert pairs == _greedy_match(uav_t, rf_t, tol_ms)
        assert len(set(rf_idx.tolist())) == len(pairs) == len(set(uav_idx.tolist()))
        assert all(abs(uav_t[j] - rf_t[i]) <= tol_ms for i, j in pairs)


class TestClean:
    def _pairs(self, errors):
        return [AlignedPair(1000 * i, EnuPoint(0, 0), EnuPoint(e, 0)) for i, e in enumerate(errors)]

    def test_strict_threshold(self):
        kept = clean(self._pairs([10, 70, 59.9]), 60)
        assert [p.rf.x for p in kept] == [10, 59.9]

    def test_exactly_60_retained(self):
        assert len(clean(self._pairs([60.0]), 60)) == 1

    def test_all_removed(self):
        assert clean(self._pairs([61, 100, 200]), 60) == []

    def test_idempotent(self):
        pairs = self._pairs([10, 70, 30, 90])
        once = clean(pairs, 60)
        assert clean(once, 60) == once

    def test_max_error_bounded_after_clean(self):
        kept = clean(self._pairs([10, 70, 59.9, 60.0, 199]), 60)
        assert max(p.error_m() for p in kept) <= 60

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            clean([], 0)
        with pytest.raises(ValueError, match="threshold_m must be positive"):
            kept_mask(np.zeros((1, 2)), np.zeros((1, 2)), float("nan"))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 100.0))
    def test_mask_keeps_what_error_m_keeps(self, seed, threshold_m):
        rng = np.random.default_rng(seed)
        uav = rng.normal(0, 1e3, (50, 2))
        rf = uav + rng.normal(0, threshold_m, (50, 2))
        rf[:5] = uav[:5] + [threshold_m, 0.0]  # on the threshold
        pairs = [AlignedPair(i, EnuPoint(*u), EnuPoint(*r)) for i, (u, r) in enumerate(zip(uav, rf))]
        mask = kept_mask(uav, rf, threshold_m)
        assert mask.tolist() == [p.error_m() <= threshold_m for p in pairs]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cleaning_and_R_use_the_reported_error(self, seed):
        # the 60 m decision, R and the error tables share one distance, so a
        # threshold equal to a reported error keeps that pair, bit for bit
        rng = np.random.default_rng(seed)
        uav = rng.normal(0, 1e3, (200, 2))
        rf = uav + rng.normal(0, 40.0, (200, 2))
        err = euclidean_errors(uav, rf)
        for threshold_m in err[:40].tolist():
            assert kept_mask(uav, rf, threshold_m).tolist() == (err <= threshold_m).tolist()
        pairs = [AlignedPair(i, EnuPoint(*u), EnuPoint(*r)) for i, (u, r) in enumerate(zip(uav, rf))]
        assert [p.error_m() for p in pairs] == err.tolist()
        assert estimate_R_arrays(uav, rf, "mean").tolist() == [[np.mean(err), 0.0], [0.0, np.mean(err)]]


class TestSegments:
    def _write_segments(self, tmp_path, entries):
        p = tmp_path / "segments.json"
        p.write_text(json.dumps(entries), encoding="utf-8")
        return p

    def test_disjoint_accepted(self, tmp_path):
        p = self._write_segments(tmp_path, [
            {"id": "S1", "start_idx": 0, "end_idx": 10, "mm": "CV", "sigmas": {"accel": 0.5}},
            {"id": "S2", "start_idx": 11, "end_idx": 20, "mm": "CT", "sigmas": {"accel": 0.5, "omega": 0.1}},
        ])
        segs = load_segments(p, K=30)
        assert [s.id for s in segs] == ["S1", "S2"]
        assert segs[1].mm is ModelKind.CT

    def test_overlap_names_both_segments(self, tmp_path):
        p = self._write_segments(tmp_path, [
            {"id": "A", "start_idx": 0, "end_idx": 10, "mm": "CV", "sigmas": {}},
            {"id": "B", "start_idx": 5, "end_idx": 15, "mm": "CV", "sigmas": {}},
        ])
        with pytest.raises(SegmentError, match="A.*B"):
            load_segments(p, K=30)

    def test_unknown_model(self, tmp_path):
        p = self._write_segments(tmp_path, [
            {"id": "S1", "start_idx": 0, "end_idx": 10, "mm": "CJ", "sigmas": {}},
        ])
        with pytest.raises(SegmentError, match="CJ"):
            load_segments(p, K=30)

    def test_out_of_range_index(self, tmp_path):
        p = self._write_segments(tmp_path, [
            {"id": "S1", "start_idx": 0, "end_idx": 30, "mm": "CV", "sigmas": {}},
        ])
        with pytest.raises(SegmentError, match="S1"):
            load_segments(p, K=30)

    def test_unknown_sigma_key(self, tmp_path):
        p = self._write_segments(tmp_path, [
            {"id": "S1", "start_idx": 0, "end_idx": 10, "mm": "CV", "sigmas": {"acel": 0.5}},
        ])
        with pytest.raises(SegmentError, match=r"unknown sigma keys: \['acel'\]"):
            load_segments(p, K=30)

    @pytest.mark.parametrize("value, message", [
        (float("nan"), "noise sigma accel must be a finite number, got nan"),
        (float("inf"), "noise sigma accel must be a finite number, got inf"),
        (True, "noise sigma accel must be a finite number, got True"),
        ("0.2", "noise sigma accel must be a finite number, got '0.2'"),
        (10**400, "int too large to convert to float"),
    ], ids=["nan", "inf", "true", "string", "huge_int"])
    def test_bad_sigma_value_rejected(self, tmp_path, value, message):
        # json writes NaN and Infinity, which json.load reads back; such a
        # segment used to load and fail in the filter as a singular covariance
        p = self._write_segments(tmp_path, [
            {"id": "S1", "start_idx": 0, "end_idx": 10, "mm": "CV", "sigmas": {"accel": value}},
        ])
        with pytest.raises(SegmentError, match=r"malformed segment entry .*: " + re.escape(message)):
            load_segments(p, K=30)

    def test_duplicate_id_rejected(self, tmp_path):
        p = self._write_segments(tmp_path, [
            {"id": "S1", "start_idx": 0, "end_idx": 10, "mm": "CV", "sigmas": {}},
            {"id": "S2", "start_idx": 11, "end_idx": 15, "mm": "CV", "sigmas": {}},
            {"id": "S1", "start_idx": 16, "end_idx": 20, "mm": "CA", "sigmas": {}},
        ])
        with pytest.raises(SegmentError, match=r"duplicate segment id 'S1'$"):
            load_segments(p, K=30)

    @pytest.mark.parametrize("sid", ["S,1", 'S"1', "S\r1", "S1\n", ","], ids=["comma", "quote", "cr", "lf", "bare_comma"])
    def test_id_that_breaks_a_table_row_rejected(self, tmp_path, sid):
        # track.csv, report.csv and segment_stats.csv write ids unquoted, so
        # such an id would shift every later field of its rows
        p = self._write_segments(tmp_path, [
            {"id": "S0", "start_idx": 0, "end_idx": 4, "mm": "CV", "sigmas": {}},
            {"id": sid, "start_idx": 5, "end_idx": 10, "mm": "CV", "sigmas": {}},
        ])
        with pytest.raises(SegmentError, match=re.escape(f"segment id {sid!r} holds a comma, a double quote or a line break")):
            load_segments(p, K=30)

    def test_simulated_ids_accepted(self, tmp_path):
        # simulate names its segments S1, S2, ...
        from uavtrack import cli

        (tmp_path / "config.json").write_text(json.dumps({"sim": {"noise_model": "position", "legs": [
            {"mm": "CV", "duration_s": 12}, {"mm": "CA", "duration_s": 12},
            {"mm": "CT", "duration_s": 12, "omega": 0.2}, {"mm": "CV", "duration_s": 12},
        ]}}))
        assert cli.main(["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "sim"), "simulate"]) == 0
        segments = load_segments(tmp_path / "sim/segments.json", K=10**6)
        assert [s.id for s in segments] == ["S1", "S2", "S3", "S4"]

    @pytest.mark.parametrize("key, value", [
        pytest.param("start_idx", 0.9, id="start_idx"),
        pytest.param("end_idx", 10.9, id="end_idx"),
        pytest.param("start_idx", False, id="start_idx_false"),
        pytest.param("end_idx", True, id="end_idx_true"),
    ])
    def test_fractional_index_rejected(self, tmp_path, key, value):
        # a truncating read would load 10.9 as 10, the integer twin of the file;
        # operator.index reads false and true as rows 0 and 1
        entry = {"id": "S1", "start_idx": 0, "end_idx": 10, "mm": "CV", "sigmas": {}}
        p = self._write_segments(tmp_path, [{**entry, key: value}])
        with pytest.raises(SegmentError, match=r"malformed segment entry \{'id': 'S1'.*cannot be interpreted as an integer"):
            load_segments(p, K=30)

    def test_not_an_array_rejected(self, tmp_path):
        p = tmp_path / "segments.json"
        p.write_text(json.dumps({"id": "S1", "start_idx": 0, "end_idx": 10, "mm": "CV"}), encoding="utf-8")
        with pytest.raises(SegmentError, match="expected a JSON array of segments"):
            load_segments(p, K=30)

    def test_write_load_round_trip(self, tmp_path):
        segments = [
            Segment("S1", 0, 10, ModelKind.CT, NoiseSigmas(accel=0.5, omega=0.1)),
            Segment("S2", 11, 20, ModelKind.CA, NoiseSigmas(jerk=0.25)),
        ]
        p = tmp_path / "segments.json"
        write_segments(p, segments)
        assert json.loads(p.read_text())[0] == {
            "id": "S1", "start_idx": 0, "end_idx": 10, "mm": "CT",
            "sigmas": {"accel": 0.5, "jerk": 0.0, "omega": 0.1},
        }
        assert load_segments(p, K=21) == segments


@settings(max_examples=200, deadline=None)
@given(
    K=st.integers(1, 30),
    spans=st.lists(st.tuples(st.integers(-2, 32), st.integers(-1, 6)), min_size=1, max_size=6),
    models=st.lists(st.sampled_from(["CV", "CA", "CT"]), min_size=6, max_size=6),
)
def test_segment_file_properties(K, spans, models):
    # file order is the draw order; ids are unique
    entries = [
        {"id": f"S{i}", "start_idx": a, "end_idx": a + n, "mm": mm, "sigmas": {}}
        for i, ((a, n), mm) in enumerate(zip(spans, models))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "segments.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        try:
            segments = load_segments(path, K)
        except SegmentError as exc:
            error = str(exc)
        else:
            error = None

    bad = [e for e in entries if not 0 <= e["start_idx"] <= e["end_idx"] < K]
    overlapping = {
        (a["id"], b["id"])
        for a in entries for b in entries
        if a is not b and a["start_idx"] <= b["end_idx"] and b["start_idx"] <= a["end_idx"]
    }
    if bad:
        # range is checked entry by entry, before any overlap
        e = bad[0]
        assert error == f"segment {e['id']}: indices [{e['start_idx']}, {e['end_idx']}] out of range for K={K}"
    elif overlapping:
        assert error is not None
        named = tuple(error.removeprefix("segments ").removesuffix(" overlap").split(" and "))
        assert named in overlapping
    else:
        assert error is None
        by_start = sorted(entries, key=lambda e: e["start_idx"])
        assert [(s.id, s.start_idx, s.end_idx, s.mm.value) for s in segments] == [
            (e["id"], e["start_idx"], e["end_idx"], e["mm"]) for e in by_start
        ]
