"""The columnar position-log parser against a frozen copy of the row-wise parser it replaced."""

import csv
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uavtrack.dataio import EmptyInputError, ParseError, parse_position_log
from uavtrack.geodesy import GeoPoint

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


# --- random logs: mostly valid rows over few timestamps (so duplicates are
# common), with padding, blank lines and every kind of bad row mixed in.

_coord = st.one_of(
    st.floats(-90, 90).map(repr),
    st.floats(-90, 90).map(lambda v: f"{v:.10f}"),
    st.sampled_from(["nan", "inf", "-inf", "91.5", "-90.0001", "180.5", "-181", "1e400", "x", ""]),
)
_valid_row = st.builds(
    lambda t, lat, lon, pad: f"{pad}{t}{pad},{lat!r},{lon:.10f}",
    st.integers(-5, 30).map(lambda k: 100 * k),
    st.floats(-90, 90),
    st.floats(-180, 180),
    st.sampled_from(["", " ", "  "]),
)
_odd_row = st.one_of(
    st.builds(lambda t, lat, lon: f"{t},{lat},{lon}", st.integers(-5, 30).map(lambda k: 100 * k), _coord, _coord),
    st.sampled_from(["", "   ", "100,35.8", "100,35.8,-78.7,0", "1.5,35.8,-78.7", "abc,35.8,-78.7", ",,",
                     "9223372036854775807,1,1", "-9223372036854775808,1,1"]),
)
_rows = st.lists(st.one_of(_valid_row, _valid_row, _valid_row, _odd_row), max_size=40)
_header = st.sampled_from(["t_ms,lat_deg,lon_deg", " t_ms , lat_deg,lon_deg", "t_ms,lat,lon"])


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


@settings(max_examples=300, deadline=None)
@given(header=_header, rows=_rows)
def test_matches_frozen_row_wise_parser(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
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
    assert collect.messages == ref_warnings


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
