"""``dataio.write_csv`` against the joined ``fmt % row`` text of its rows.

The block matrix writes each field from a fixed-width slot of digits or
bytes: integers, fixed-point floats and ASCII ``U`` strings. Every property
here compares its bytes with the printf text, which is also what a block
the matrix cannot represent is written as: non-ASCII or embedded-NUL
strings, bytes, bools, objects and 2-D columns among others.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from uavtrack.dataio import _block_text, _line_fields, write_csv
from uavtrack.geodesy import BLOCK_ROWS

TRACK_FMT = "%s,%s,%.6f,%.6f,%.10f,%.10f"  # the track.csv line


def _printf_text(header, fmt, columns):
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return (",".join(header) + "\n" + "".join(fmt % row + "\n" for row in rows)).encode("utf-8")


def _written(header, fmt, columns):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out.csv"
        write_csv(path, header, fmt, *columns)
        return path.read_bytes()


def _fast(fmt, columns):
    """Whether the block matrix writes ``columns`` as one block (no printf fallback)."""
    columns = [np.asarray(c) for c in columns]
    fields = _line_fields(fmt + "\n", columns)
    return fields is not None and _block_text(fields, columns) is not None


_int64 = st.integers(-(2**63), 2**63 - 1)
_rows = st.integers(1, 40)


def _near_limit(digits):
    """Values next to 2^52 / 10^digits, where ``|v|·10^digits`` leaves the int64 path."""
    edge = 2.0**52 / 10**digits
    return st.builds(lambda k, sign: sign * edge * (1 + k * 2.0**-50), st.integers(-4, 4), st.sampled_from([-1, 1]))


def _fixed_values(digits):
    ties = st.integers(-(2**24), 2**24).map(lambda k: k / 2048)  # exact halves at every digit count
    near_ties = st.integers(-(10**9), 10**9).map(lambda k: (k + 0.5) / 10**digits)
    tiny = st.floats(-(10.0 ** -digits), 0.0)  # rounds to -0.000...
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e7, 1e7),
        ties,
        near_ties,
        tiny,
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, -5e-324]),
        _near_limit(digits),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=_rows)
def test_int_columns_match_printf(data, n):
    signed = data.draw(st.lists(_int64, min_size=n, max_size=n))
    unsigned = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    columns = [np.array(signed, dtype=np.int64), np.array(unsigned, dtype=np.uint64)]
    assert _fast("%s;%s", columns)
    assert _written(["a", "b"], "%s;%s", columns) == _printf_text(["a", "b"], "%s;%s", columns)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=_rows, digits=st.sampled_from([0, 1, 3, 6, 10, 15]))
def test_fixed_columns_match_printf(data, n, digits):
    t = data.draw(st.lists(_int64, min_size=n, max_size=n))
    v = data.draw(st.lists(_fixed_values(digits), min_size=n, max_size=n))
    fmt = f"%s,%.{digits}f,%.6f,%.10f"
    columns = [np.array(t, dtype=np.int64), np.array(v), np.array(v[::-1]), np.array(v)]
    assert _written(["t", "a", "b", "c"], fmt, columns) == _printf_text(["t", "a", "b", "c"], fmt, columns)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=_rows)
def test_in_range_values_take_the_matrix(data, n):
    # ties and near-ties included: they are formatted one value at a time
    # inside the block, not by the whole-block fallback
    values = st.floats(-4e5, 4e5) | st.integers(-(2**29), 2**29).map(lambda k: k / 2048)  # |v|·1e10 < 2^52
    v = data.draw(st.lists(values, min_size=n, max_size=n))
    columns = [np.arange(n), np.array(v), np.array(v)]
    assert _fast("%s,%.6f,%.10f", columns)
    assert _written(["t", "a", "b"], "%s,%.6f,%.10f", columns) == _printf_text(["t", "a", "b"], "%s,%.6f,%.10f", columns)


def _takes_matrix(strings):
    """Whether a ``U`` column of ``strings`` can be the matrix's bytes: ASCII, no NUL before a later character."""
    return all(s.isascii() and "\0" not in s.rstrip("\0") for s in strings)


_ascii = st.text(st.characters(max_codepoint=127, blacklist_characters="\0"), max_size=12)
_ids = st.one_of(
    _ascii,
    st.text(max_size=12),  # non-ASCII included
    st.builds(lambda a, b: f"{a}\0{b}", _ascii, _ascii),  # a NUL, trailing when b is empty
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=_rows)
def test_track_format_with_a_string_column(data, n):
    # an ASCII string column takes the matrix; a non-ASCII character or a
    # NUL before a later one sends the whole block to printf text
    t = data.draw(st.lists(st.integers(0, 10**10), min_size=n, max_size=n))
    ids = data.draw(st.lists(_ids, min_size=n, max_size=n))
    xy = data.draw(st.lists(st.floats(-5e4, 5e4), min_size=2 * n, max_size=2 * n))
    latlon = data.draw(st.lists(st.floats(-180.0, 180.0), min_size=2 * n, max_size=2 * n))
    columns = [np.array(t), np.array(ids), np.array(xy[:n]), np.array(xy[n:]), np.array(latlon[:n]), np.array(latlon[n:])]
    header = ["t_ms", "segment", "x", "y", "lat_deg", "lon_deg"]
    assert _fast(TRACK_FMT, columns) == _takes_matrix(columns[1].tolist())
    assert _written(header, TRACK_FMT, columns) == _printf_text(header, TRACK_FMT, columns)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=_rows, odd=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_non_finite_values_take_the_fallback(data, n, odd):
    v = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    v[data.draw(st.integers(0, n - 1))] = odd
    columns = [np.arange(n), np.array(v)]
    assert not _fast("%s,%.6f", columns)
    assert _written(["t", "v"], "%s,%.6f", columns) == _printf_text(["t", "v"], "%s,%.6f", columns)


def test_one_row_and_empty_logs():
    header = ["t_ms", "lat_deg", "lon_deg"]
    one = [np.array([-7]), np.array([-0.0]), np.array([35.80000000005])]
    assert _written(header, "%s,%.10f,%.10f", one) == b"t_ms,lat_deg,lon_deg\n-7,-0.0000000000,35.8000000000\n"
    empty = [np.array([], dtype=np.int64), np.array([]), np.array([])]
    assert _written(header, "%s,%.10f,%.10f", empty) == b"t_ms,lat_deg,lon_deg\n"


def test_blocks_fall_back_one_at_a_time():
    n = 2 * BLOCK_ROWS + 10
    rng = np.random.default_rng(3)
    v = rng.normal(0, 1e3, n)
    v[BLOCK_ROWS + 17] = np.nan  # only the second block holds a NaN
    columns = [np.arange(n) * 100, v]
    blocks = [[c[i : i + BLOCK_ROWS] for c in columns] for i in range(0, n, BLOCK_ROWS)]
    assert [_fast("%s,%.6f", b) for b in blocks] == [True, False, True]
    assert _written(["t", "v"], "%s,%.6f", columns) == _printf_text(["t", "v"], "%s,%.6f", columns)


def test_formats_outside_the_matrix_match_printf():
    t, v, ids = np.array([1, -2]), np.array([0.125, -2.5]), np.array(["a", "b"])
    for fmt, columns in [
        ("%d,%.3f", [t, v]),  # unknown conversion
        ("%s,%f", [t, v]),
        ("%s,%s", [t, v]),  # a float column at %s is its repr
        ("%.2f,%s", [t, ids]),  # an integer column at %f
        ("%s%%,%.3f", [t, v]),  # a literal percent sign
        ("%s,%.20f", [t, v]),  # 20 digits exceed the int64 path
        ("%s,%s", [t, np.array([b"a", b"b"])]),  # bytes print as b'a'
        ("%s,%s", [t, np.array([True, False])]),
        ("%s,%s", [t, np.array([[1, 2], [3, 4]])]),  # a 2-D column prints each row as a list
    ]:
        assert not _fast(fmt, columns), fmt
        assert _written(["x", "y"], fmt, columns) == _printf_text(["x", "y"], fmt, columns), fmt
    for column in [
        np.array(["a", "é"]),  # non-ASCII
        np.array(["a\0b", "c"]),  # a NUL before a later character
        np.array(["a", "b"], dtype=">U1"),  # byte-swapped code points
        np.array(["a", "b"], dtype=object),
    ]:
        assert not _fast("%s,%s", [t, column]), column
        assert _written(["x", "y"], "%s,%s", [t, column]) == _printf_text(["x", "y"], "%s,%s", [t, column])
    for column in [ids, np.array(["", "S12"]), np.array(["abc", "d"])[::-1], np.array(["xy", "z"])[::2]]:
        assert _fast("%s,%s", [t[: len(column)], column]), column  # ASCII, strided included
        assert _written(["x", "y"], "%s,%s", [t[: len(column)], column]) == _printf_text(
            ["x", "y"], "%s,%s", [t[: len(column)], column]
        )
