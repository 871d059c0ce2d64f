"""The columnar log parsers against frozen copies of the row-wise parsers they replaced."""

import csv
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavtrack import dataio
from uavtrack.dataio import EmptyInputError, ParseError, parse_aligned_log, parse_position_log
from uavtrack.geodesy import EnuPoint, GeoPoint

# --- frozen reference: one GeoPoint per row, a dict keyed by timestamp,
# sorted at the end. Kept as it was, except that it returns (t, lat, lon)
# tuples and collects its duplicate warnings instead of logging them.


def _ref_parse(path):
    header = ["t_ms", "lat_deg", "lon_deg"]
    samples = {}
    warnings = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        first = next(reader, None)
        if first is None:
            raise EmptyInputError(f"{path}: empty file")
        if [h.strip() for h in first] != header:
            raise ParseError(path, 1, f"expected header {','.join(header)}, got {','.join(first)}")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(path, line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                t_ms, pos = int(row[0]), GeoPoint(float(row[1]), float(row[2]))
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            if t_ms in samples:
                warnings.append(f"{path}:{line_no}: duplicate timestamp {t_ms}, keeping first")
                continue
            samples[t_ms] = pos
    if not samples:
        raise EmptyInputError(f"{path}: no data rows")
    return [(t, samples[t].lat_deg, samples[t].lon_deg) for t in sorted(samples)], warnings


def _ref_parse_aligned(path):
    """The row-wise aligned-log parser: one EnuPoint pair per row, in file order."""
    header = ["t_ms", "uav_x", "uav_y", "rf_x", "rf_y"]
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        first = next(reader, None)
        if first is None:
            raise EmptyInputError(f"{path}: empty file")
        if [h.strip() for h in first] != header:
            raise ParseError(path, 1, f"expected header {','.join(header)}, got {','.join(first)}")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(path, line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                t_ms = int(row[0])
                uav = EnuPoint(float(row[1]), float(row[2]))
                rf = EnuPoint(float(row[3]), float(row[4]))
                if not -(2**63) <= t_ms < 2**63:
                    raise ValueError(f"timestamp {t_ms} outside the int64 range")
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            rows.append((t_ms, uav.x, uav.y, rf.x, rf.y))
    return rows


# --- random logs: mostly valid rows over few timestamps (so duplicates are
# common), with padding, blank lines and every kind of bad row mixed in.

_coord = st.one_of(
    st.floats(-90, 90).map(repr),
    st.floats(-90, 90).map(lambda v: f"{v:.10f}"),
    st.sampled_from(["nan", "inf", "-inf", "91.5", "-90.0001", "180.5", "-181", "1e400", "x", "",
                     "infinity", "-Infinity", "+1e-400", "1_0.5", "٣٥.٨"]),
)
_valid_row = st.builds(
    lambda t, lat, lon, pad: f"{pad}{t}{pad},{lat!r},{lon:.10f}",
    st.integers(-5, 30).map(lambda k: 100 * k),
    st.floats(-90, 90),
    st.floats(-180, 180),
    st.sampled_from(["", " ", "  ", "\t", "\f", "\ufeff"]),
)
_odd_row = st.one_of(
    st.builds(lambda t, lat, lon: f"{t},{lat},{lon}", st.integers(-5, 30).map(lambda k: 100 * k), _coord, _coord),
    st.sampled_from(["", "   ", "100,35.8", "100,35.8,-78.7,0", "1.5,35.8,-78.7", "abc,35.8,-78.7", ",,",
                     "9223372036854775807,1,1", "-9223372036854775808,1,1", "1e3,35.8,-78.7",
                     '"100,35.8",-78.7', '"100\n",35.8,-78.7', "100,35.8,-78.7,"]),
)

# --- the spellings int() and float() accept beyond plain ASCII, one per field

_DIGITS = {"arabic": "٠١٢٣٤٥٦٧٨٩", "fullwidth": "０１２３４５６７８９"}


def _spell(field, style):
    if style == "plus":
        return field if field[:1] in "+-" else "+" + field
    if style == "underscore":  # "1000" -> "1_000"
        for i in range(1, len(field)):
            if field[i - 1].isdigit() and field[i].isdigit():
                return field[:i] + "_" + field[i:]
        return field
    if style == "quoted":
        return f'"{field}"'
    if style in _DIGITS:
        return field.translate(str.maketrans("0123456789", _DIGITS[style]))
    return field


def _num(lo, hi):
    return st.floats(lo, hi).flatmap(lambda v: st.sampled_from([repr(v), f"{v:.10f}", f"{v:e}", f"{v:.3E}"]))


def _styled(field):
    return st.builds(
        lambda f, style, a, b: f"{a}{_spell(f, style)}{b}",
        field,
        st.sampled_from(["plain", "plain", "plain", "plus", "underscore", "quoted", "arabic", "fullwidth"]),
        st.sampled_from(["", "", " ", "\t", "\f", "\ufeff"]),
        st.sampled_from(["", "", " ", "\t", "\f", "\ufeff"]),
    )


def _row(*fields):
    return st.tuples(*fields).map(",".join)


_small_t = st.integers(-5, 30).map(lambda k: str(100 * k))
_wide_t = st.integers(-(10**15), 10**15).map(str)  # distinct in practice
_styled_row = _row(_styled(_small_t), _styled(_num(-90, 90)), _styled(_num(-180, 180)))
# rows of the plain text the array pass reads: ASCII digits, signs, '.', 'e', ','
_plain_row = _row(
    _wide_t,
    st.one_of(_num(-90, 90), _num(-90, 90), _num(-90, 90), _num(-95, 95)),
    st.one_of(_num(-180, 180), _num(-180, 180), _num(-180, 180), _num(-185, 185)),
)
_header = st.sampled_from(["t_ms,lat_deg,lon_deg", " t_ms , lat_deg,lon_deg", "t_ms,lat,lon",
                           "t_ms,lat_deg,lon_deg", '"t_ms",lat_deg,lon_deg', "\ufefft_ms,lat_deg,lon_deg"])
# one line ending for the file, or a cycle of mixed ones
_eols = st.one_of(
    st.sampled_from(["\n", "\n", "\r\n", "\r"]).map(lambda e: [e]),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=2, max_size=4),
)


def _log_text(header, rows, eols):
    return "".join(line + eols[i % len(eols)] for i, line in enumerate([header, *rows]))


def _logs(header, rows, plain_header, plain_row, odd_row):
    """Log texts: any mix of header, rows and line endings, or a plain log
    (blank lines allowed) with at most one odd row, as the array pass reads."""
    plain_rows = st.builds(
        lambda rows, odd, at: rows[:at] + odd + rows[at:],
        st.lists(st.one_of(*[plain_row] * 8, st.just("")), max_size=40),
        st.one_of(st.just([]), st.just([]), st.lists(odd_row, min_size=1, max_size=1)),
        st.integers(0, 40),
    )
    return st.one_of(
        st.builds(_log_text, header, rows, _eols),
        st.builds(lambda rows: _log_text(plain_header, rows, ["\n"]), plain_rows),
    )


_position_logs = _logs(
    _header,
    st.lists(st.one_of(_valid_row, _valid_row, _valid_row, _odd_row, _styled_row), max_size=40),
    "t_ms,lat_deg,lon_deg",
    _plain_row,
    _odd_row,
)


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _outcome(parse, path):
    try:
        return "ok", parse(path)
    except (ParseError, EmptyInputError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(text=_position_logs)
def test_matches_frozen_row_wise_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(text.encode("utf-8"))
        collect = _Collect()
        logger = logging.getLogger("uavtrack.dataio")
        logger.addHandler(collect)
        try:
            new = _outcome(parse_position_log, path)
        finally:
            logger.removeHandler(collect)
        ref = _outcome(_ref_parse, path)

    if ref[0] != "ok":
        assert new == ref
        return
    assert new[0] == "ok"
    ref_rows, ref_warnings = ref[1]
    t_ms, latlon = new[1]
    assert t_ms.dtype.kind == "i" and latlon.shape == (len(t_ms), 2)
    assert list(zip(t_ms.tolist(), latlon[:, 0].tolist(), latlon[:, 1].tolist())) == ref_rows
    assert np.array_equal(_bits(latlon), _bits([r[1:] for r in ref_rows]).reshape(-1, 2))
    assert collect.messages == ref_warnings


_aligned_coord = st.one_of(
    _num(-1e5, 1e5), _num(-1e5, 1e5), _num(-1e5, 1e5), _styled(_num(-1e5, 1e5)),
    st.sampled_from(["nan", "inf", "-infinity", "1e400", "-1e400", "x", "", "0x10"]),
)
_aligned_t = st.one_of(_wide_t, _wide_t, _styled(_small_t), st.integers(-(2**64), 2**64).map(str))
_plain_aligned_row = _row(_wide_t, _num(-1e5, 1e5), _num(-1e5, 1e5), _num(-1e5, 1e5), _num(-1e5, 1e5))
_odd_aligned_row = st.one_of(
    _row(_aligned_t, _aligned_coord, _aligned_coord, _aligned_coord, _aligned_coord),
    st.sampled_from(["", "  ", "0,0,0,50", "0,0,0,50,0,0", "1.5,0,0,0,0", ",,,,", '"0",0,0,"5,0",0', "0,1e400,0,0,0"]),
)
_aligned_logs = _logs(
    st.sampled_from(["t_ms,uav_x,uav_y,rf_x,rf_y", "t_ms,uav_x,uav_y,rf_x,rf_y", " t_ms,uav_x , uav_y,rf_x,rf_y",
                     "t_ms,x,y,rf_x,rf_y", '"t_ms",uav_x,uav_y,rf_x,rf_y', "\ufefft_ms,uav_x,uav_y,rf_x,rf_y"]),
    st.lists(st.one_of(_plain_aligned_row, _odd_aligned_row, _odd_aligned_row), max_size=40),
    "t_ms,uav_x,uav_y,rf_x,rf_y",
    _plain_aligned_row,
    _odd_aligned_row,
)


@settings(max_examples=300, deadline=None)
@given(text=_aligned_logs)
def test_aligned_log_matches_frozen_row_wise_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "aligned.csv"
        path.write_bytes(text.encode("utf-8"))
        new = _outcome(parse_aligned_log, path)
        ref = _outcome(_ref_parse_aligned, path)

    if ref[0] != "ok":
        assert new == ref
        return
    assert new[0] == "ok"
    t_ms, uav, rf = new[1]
    assert t_ms.dtype == np.int64 and uav.shape == rf.shape == (len(t_ms), 2)
    assert t_ms.tolist() == [r[0] for r in ref[1]]
    assert np.array_equal(_bits(np.hstack((uav, rf))), _bits([r[1:] for r in ref[1]]).reshape(-1, 4))


@pytest.mark.parametrize(
    "parse, ref, text",
    [
        (parse_position_log, lambda p: _ref_parse(p)[0],
         "t_ms,lat_deg,lon_deg\n300,35.8,-78.7\n\n100,-1e-3,+78.5\n200,3.58E+01,-0.0"),
        (parse_aligned_log, _ref_parse_aligned, "t_ms,uav_x,uav_y,rf_x,rf_y\n0,0,0,50,0\n\n-5,1.5e3,-2,70,+0.25\n"),
    ],
    ids=["position", "aligned"],
)
def test_plain_log_is_read_without_the_row_scan(tmp_path, monkeypatch, parse, ref, text):
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(dataio, "_csv_rows", lambda *args: pytest.fail("plain log scanned row by row"))
    t_ms, *xy = parse(path)
    want = ref(path)
    assert t_ms.tolist() == [r[0] for r in want]
    assert np.array_equal(_bits(np.hstack(xy)), _bits([r[1:] for r in want]))


@pytest.mark.parametrize("t", ["1.5", "1e3", "9223372036854775808", "-9223372036854775809"])
def test_non_int64_timestamp_in_plain_log_names_line(tmp_path, t):
    # numpy's C parser reads these through float (numpy 1.x) or not at all; the row rule rejects each
    path = tmp_path / "log.csv"
    path.write_text(f"t_ms,lat_deg,lon_deg\n100,35.8,-78.7\n{t},35.8,-78.7\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_position_log(path)
    assert exc.value.line_no == 3


def test_warnings_before_a_bad_row_match_reference(tmp_path, caplog):
    # the row-wise reference warns for the duplicate on line 3 before it fails on line 4
    path = tmp_path / "log.csv"
    path.write_text("t_ms,lat_deg,lon_deg\n100,35.8,-78.7\n100,35.9,-78.7\n200,nan,-78.7\n")
    with caplog.at_level(logging.WARNING, logger="uavtrack.dataio"):
        with pytest.raises(ParseError) as exc:
            parse_position_log(path)
    assert exc.value.line_no == 4
    assert [r.getMessage() for r in caplog.records] == [f"{path}:3: duplicate timestamp 100, keeping first"]


def test_timestamp_beyond_int64_names_line(tmp_path):
    # the reference kept such a timestamp as a Python int; an int64 column cannot hold it
    path = tmp_path / "log.csv"
    path.write_text("t_ms,lat_deg,lon_deg\n100,35.8,-78.7\n9223372036854775808,35.8,-78.7\n")
    with pytest.raises(ParseError, match="outside the int64 range") as exc:
        parse_position_log(path)
    assert exc.value.line_no == 3
