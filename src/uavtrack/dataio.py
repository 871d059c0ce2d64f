"""Log parsing, timestamp alignment, error-threshold cleaning, segments.

File formats:
    UAV / RF logs: CSV with header ``t_ms,lat_deg,lon_deg``.
    Aligned log:   CSV with header ``t_ms,uav_x,uav_y,rf_x,rf_y`` (local frame).
    Segment file:  JSON array of ``{id, start_idx, end_idx, mm, sigmas}``.
"""

from __future__ import annotations

import csv
import json
import logging
import operator
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .geodesy import EnuPoint, GeoPoint
from .metrics import euclidean_errors
from .motionmodels import ModelKind, NoiseSigmas

log = logging.getLogger(__name__)

LOG_HEADER = ["t_ms", "lat_deg", "lon_deg"]
ALIGNED_HEADER = ["t_ms", "uav_x", "uav_y", "rf_x", "rf_y"]
DEFAULT_CLEAN_THRESHOLD_M = 60.0

_GEO_DTYPE = [("t", "i8"), ("lat", "f8"), ("lon", "f8")]
_PLAIN_BYTES = b"0123456789+-.eE,\n"
_WRITE_BLOCK_ROWS = 4096
# one printf conversion of a line format
_CONVERSION = re.compile(r"(%s|%\.\d+f)")
_ZERO, _MINUS, _POINT = ord("0"), ord("-"), ord(".")


def _digit_table() -> np.ndarray:
    """ASCII digits of 0000 to 9999, the four bytes of each in one uint32 (40 kB)."""
    d = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
    table = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    table[..., 0] = d[:, None, None, None]
    table[..., 1] = d[:, None, None]
    table[..., 2] = d[:, None]
    table[..., 3] = d
    return table.reshape(10_000, 4).view(np.uint32)[:, 0]


_DIGITS4 = _digit_table()  # numbers are written four digits at a time


class ParseError(ValueError):
    def __init__(self, path, line_no, msg):
        super().__init__(f"{path}:{line_no}: {msg}")
        self.path = path
        self.line_no = line_no


class EmptyInputError(ValueError):
    pass


class SegmentError(ValueError):
    pass


@dataclass(frozen=True)
class Segment:
    """Inclusive range of RF-log rows flown under one motion model."""

    id: str
    start_idx: int
    end_idx: int
    mm: ModelKind
    sigmas: NoiseSigmas


def _csv_rows(
    path: Path, header: list[str], parse_row: Callable[[list[str]], Any]
) -> Iterator[tuple[int, Any]]:
    """Yield ``(line_no, parse_row(fields))`` for each non-blank data row.

    The first line must be ``header`` and every row must have one field per
    column. A violation, or a ValueError from ``parse_row``, raises
    :class:`ParseError` naming the file and line.
    """
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
                item = parse_row(row)
            except ValueError as exc:  # GeodesyError included
                raise ParseError(path, line_no, str(exc)) from exc
            yield line_no, item


def _check_timestamp(t_ms: int) -> None:
    if not -(2**63) <= t_ms < 2**63:
        raise ValueError(f"timestamp {t_ms} outside the int64 range")


def _geo_row(r: list[str]) -> tuple[int, float, float]:
    t_ms, lat, lon = int(r[0]), float(r[1]), float(r[2])
    _check_timestamp(t_ms)
    GeoPoint(lat, lon)  # raises GeodesyError naming a coordinate out of range
    return t_ms, lat, lon


def _aligned_row(r: list[str]) -> tuple[int, float, float, float, float]:
    t_ms, uav, rf = int(r[0]), EnuPoint(float(r[1]), float(r[2])), EnuPoint(float(r[3]), float(r[4]))
    _check_timestamp(t_ms)
    return t_ms, uav.x, uav.y, rf.x, rf.y


def _load_columns(path: Path) -> np.ndarray | None:
    """The data rows of a plain position log as one structured array, or None.

    A log is plain when its first line is :data:`LOG_HEADER` exactly and
    the rest holds only ASCII digits, signs, ``.``, ``e``/``E``, commas and
    line feeds. For such text ``np.loadtxt``'s C parser reads each field as
    ``int``/``float`` do, blank lines included, so every file it takes has
    the values of the row-wise scan (:func:`_csv_rows`). Any other file, and
    any file the C parser rejects, gives None: the caller then runs that
    scan, which accepts or names the failing line as before.
    """
    with open(path, "rb") as f:
        plain = f.readline() == (",".join(LOG_HEADER) + "\n").encode()
        body = f.read() if plain else b""
    if not body.strip(b"\n") or body.translate(None, _PLAIN_BYTES):
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.x truncates a float-looking integer field with this warning
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                path, delimiter=",", skiprows=1, encoding="ascii", dtype=_GEO_DTYPE, comments=None, ndmin=1
            )
    except (ValueError, DeprecationWarning):
        return None


def parse_position_log(path) -> tuple[np.ndarray, np.ndarray]:
    """Geodetic position log (ground truth or RF estimates), sorted by time.

    Returns ``t_ms`` (int64, shape (K,), strictly increasing) and ``latlon``
    (degrees, shape (K, 2)). Of rows sharing a timestamp the first is kept
    and each later one logs a warning.

    A plain file (:func:`_load_columns`) whose coordinates are in range and
    whose timestamps are distinct is read in one array pass; every other
    file is scanned row by row, which names the line of any fault and warns
    about duplicates in line order.
    """
    path = Path(path)
    rows = _load_columns(path)
    if rows is not None:
        rows = rows[np.argsort(rows["t"])]
        t, latlon = rows["t"], np.column_stack((rows["lat"], rows["lon"]))
        if np.all(np.abs(latlon) <= (90.0, 180.0)) and not np.any(t[1:] == t[:-1]):
            return t, latlon
    first: dict[int, tuple[float, float]] = {}  # timestamp -> coordinates of its first row
    for line_no, (t, lat, lon) in _csv_rows(path, LOG_HEADER, _geo_row):
        if t in first:
            log.warning("%s:%d: duplicate timestamp %d, keeping first", path, line_no, t)
        else:
            first[t] = lat, lon
    if not first:
        raise EmptyInputError(f"{path}: no data rows")
    t = np.fromiter(first, dtype=np.int64, count=len(first))
    order = np.argsort(t)
    return t[order], np.array(list(first.values()), dtype=float)[order]


def write_position_log(path, t_ms: np.ndarray, latlon: np.ndarray) -> None:
    """Write ``t_ms`` (K,) and geodetic ``latlon`` (K, 2) in the standard log schema (deterministic bytes)."""
    latlon = np.asarray(latlon, dtype=float).reshape(-1, 2)
    write_csv(path, LOG_HEADER, "%s,%.10f,%.10f", t_ms, latlon[:, 0], latlon[:, 1])


def parse_aligned_log(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned-pair log in the local frame, in file order (may have no rows).

    Returns ``t_ms`` (int64, (K,)), truth ``uav`` (K, 2) and ``rf`` (K, 2).
    Every file is scanned row by row (:func:`_csv_rows`): only the ``clean``
    utility reads aligned logs, so they have no array fast path.
    """
    rows = [row for _, row in _csv_rows(Path(path), ALIGNED_HEADER, _aligned_row)]
    xy = np.array([row[1:] for row in rows], dtype=float).reshape(-1, 4)
    return np.array([row[0] for row in rows], dtype=np.int64), xy[:, :2], xy[:, 2:]


def write_aligned_log(path, t_ms: np.ndarray, uav: np.ndarray, rf: np.ndarray) -> None:
    """Write ``t_ms`` (K,), truth ``uav`` (K, 2) and ``rf`` (K, 2) local positions (deterministic bytes)."""
    write_csv(path, ALIGNED_HEADER, "%s,%.6f,%.6f,%.6f,%.6f", t_ms, *uav.T, *rf.T)


def write_csv(path, header: list[str], fmt: str, *columns) -> None:
    """Write ``header`` and one ``fmt % row`` line per row of the equal-length ``columns`` (deterministic bytes).

    ``fmt`` is a printf-style format with one conversion per column, such as
    ``"%s,%.6f"``. Each block of rows is written as one byte string, so the
    text of a long log never sits in memory whole. A block is built as one
    NUL-padded ``uint8`` matrix, a row per line and a fixed-width slot per
    field, with the NULs dropped on write (:func:`_block_text`). The text
    equals the ``fmt % row`` join of the block's Python values byte for
    byte; a block the matrix cannot represent exactly is formatted that
    way instead.
    """
    fmt += "\n"
    columns = [np.asarray(c) for c in columns]
    fields = _line_fields(fmt, columns)
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode("utf-8"))
        for i in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            block = [c[i : i + _WRITE_BLOCK_ROWS] for c in columns]
            text = _block_text(fields, block) if fields is not None else None
            if text is None:
                rows = zip(*(c.tolist() for c in block))
                text = "".join([fmt % row for row in rows]).encode("utf-8")
            f.write(text)


def _line_fields(fmt: str, columns: list[np.ndarray]) -> list | None:
    """``fmt`` as alternating literal bytes and one text converter per column.

    None when the matrix form does not cover the format: a conversion other
    than ``%s`` on an integer column or ``%.<d>f`` (d <= 15) on a float
    column, a percent sign or NUL in a literal, or a column count the format
    does not take.
    """
    parts = _CONVERSION.split(fmt)
    literals, conversions = parts[::2], parts[1::2]
    if len(conversions) != len(columns) or any("%" in s or "\0" in s for s in literals):
        return None
    fields = []
    for literal, part, col in zip(literals, conversions, columns):
        if col.ndim != 1:
            return None
        kind, size = col.dtype.kind, col.dtype.itemsize
        if part == "%s" and kind in "iu" and size <= 8:
            convert = _int_text
        elif part != "%s" and kind == "f" and size <= 8 and int(part[2:-1]) <= 15:
            convert = _fixed_text(int(part[2:-1]))
        else:
            return None
        fields += [literal.encode("utf-8"), convert]
    return fields + [literals[-1].encode("utf-8")]


def _block_text(fields: list, block: list[np.ndarray]) -> bytes | None:
    """The lines of ``block`` as bytes, or None if a field cannot be written exactly."""
    n, cols, pieces = len(block[0]), iter(block), []
    for field in fields:
        if isinstance(field, bytes):
            if field:
                pieces.append(np.broadcast_to(np.frombuffer(field, np.uint8), (n, len(field))))
            continue
        text = field(next(cols))
        if text is None:
            return None
        pieces += text
    m = np.concatenate(pieces, axis=1)
    return m[m != 0].tobytes()


def _digits(mag: np.ndarray, width: int) -> np.ndarray:
    """(K, width) ASCII digits of the non-negative integers ``mag``, zero-padded on the left."""
    groups = -(-width // 4)
    g = np.empty((len(mag), groups), dtype=np.intp)
    mag = mag.astype(np.uint64)
    for k in range(groups - 1, -1, -1):
        rest = mag // 10_000
        g[:, k] = mag - rest * 10_000
        mag = rest
    return _DIGITS4[g].view(np.uint8)[:, 4 * groups - width :]


def _drop_leading_zeros(chars: np.ndarray) -> None:
    """Replace the leading zero digits of each row of ``chars`` by NUL, keeping the last digit."""
    lead = np.ones(len(chars), dtype=bool)
    for j in range(chars.shape[1] - 1):
        lead &= chars[:, j] == _ZERO
        chars[lead, j] = 0


def _sign(neg: np.ndarray) -> np.ndarray:
    """(K, 1) minus signs where ``neg``, NUL elsewhere."""
    return np.where(neg, np.uint8(_MINUS), np.uint8(0))[:, None]


def _int_text(v: np.ndarray) -> list[np.ndarray]:
    """``str(int)`` of each value: a minus sign, then the digits."""
    neg = v < 0
    mag = v.astype(np.uint64)
    mag[neg] = -mag[neg]  # two's complement: |v|, the int64 minimum included
    chars = _digits(mag, len(str(int(mag.max()))))
    _drop_leading_zeros(chars)
    return [_sign(neg), chars]


def _fixed_text(digits: int) -> Callable[[np.ndarray], list[np.ndarray] | None]:
    """Converter for ``%.<digits>f``: the value rounded to a multiple of 10^-digits.

    ``p = |v|·10^digits`` is the exact product rounded once (10^digits is a
    double). Below 2^52 every half-integer is a double too, and rounding
    is monotone, so no half lies strictly between ``p`` and the exact
    product: ``rint(p)`` is the correctly rounded integer unless ``p`` is
    itself a half. Those ties, exact or made by the rounding, take their
    digits from ``"%.*f" % (digits, v)``. The sign is that of ``v``, as in
    printf's ``-0.000``. None for a block with a value that is not finite
    or has ``p >= 2^52``.
    """
    scale = float(10**digits)

    def convert(v: np.ndarray) -> list[np.ndarray] | None:
        v = v.astype(np.float64, copy=False)
        with np.errstate(over="ignore"):
            p = np.abs(v) * scale
        if not (p < 2.0**52).all():
            return None
        q = np.rint(p).astype(np.int64)
        tie = p - np.floor(p) == 0.5
        if tie.any():
            at = np.flatnonzero(tie)
            q[at] = [int(("%.*f" % (digits, x)).lstrip("-").replace(".", "")) for x in v[at].tolist()]
        chars = _digits(q, max(len(str(int(q.max()))), digits + 1))
        whole = chars[:, : chars.shape[1] - digits]
        _drop_leading_zeros(whole)
        if not digits:
            return [_sign(np.signbit(v)), whole]
        point = np.full((len(v), 1), _POINT, dtype=np.uint8)
        return [_sign(np.signbit(v)), whole, point, chars[:, -digits:]]

    return convert


def check_tol_ms(tol_ms: int) -> None:
    """ValueError unless the matching tolerance ``tol_ms`` is at least 0."""
    if tol_ms < 0:
        raise ValueError(f"tol_ms must be >= 0, got {tol_ms}")


def check_threshold_m(threshold_m: float) -> None:
    """ValueError unless the cleaning threshold ``threshold_m`` is positive (NaN is not)."""
    if not threshold_m > 0:
        raise ValueError(f"threshold_m must be positive, got {threshold_m}")


def match_times(uav_t: np.ndarray, rf_t: np.ndarray, tol_ms: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Match each RF timestamp to the nearest unused UAV timestamp within ``tol_ms``.

    Both arrays must be sorted. RF samples are taken in order; each picks,
    among the UAV samples within ``tol_ms`` that no earlier RF sample took,
    the nearest one, the lower index on a tie, and goes unmatched if there
    is none. Returns ``(rf_idx, uav_idx)``, int arrays of the matched
    positions with ``rf_idx`` ascending.

    An RF sample whose window shares no UAV sample with its neighbours'
    windows competes with no other, so it takes the nearest candidate in
    its window directly; the nearest-unused rule runs, in order, only over
    runs of overlapping windows, whose candidates no other window holds.
    """
    check_tol_ms(tol_ms)
    uav_t = np.asarray(uav_t, dtype=np.int64)
    rf_t = np.asarray(rf_t, dtype=np.int64)
    if not uav_t.size:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    lo = np.searchsorted(uav_t, rf_t - tol_ms, side="left")
    hi = np.searchsorted(uav_t, rf_t + tol_ms, side="right")

    # nearest candidate of each window: the first sample at or after t, or
    # the first of the equal samples just before t, which wins a tie
    after = np.searchsorted(uav_t, rf_t, side="left")
    before = np.searchsorted(uav_t, uav_t[np.maximum(after - 1, 0)], side="left")
    has_after, has_before = after < hi, after > lo
    closer_before = rf_t - uav_t[before] <= uav_t[np.minimum(after, uav_t.size - 1)] - rf_t
    pick = np.where(has_before & (~has_after | closer_before), before, after)
    matched = has_before | has_after

    overlap = hi[:-1] > lo[1:]
    shared = np.zeros(rf_t.size, dtype=bool)
    shared[:-1] |= overlap
    shared[1:] |= overlap
    matched &= ~shared
    ut = uav_t.tolist()
    used: set[int] = set()
    for i, t, a, b in zip(
        np.flatnonzero(shared).tolist(), rf_t[shared].tolist(), lo[shared].tolist(), hi[shared].tolist()
    ):
        free = [(abs(ut[j] - t), j) for j in range(a, b) if j not in used]
        if free:
            j = min(free)[1]
            used.add(j)
            pick[i] = j
            matched[i] = True
    rf_idx = np.flatnonzero(matched)
    return rf_idx, pick[rf_idx].astype(np.intp)


def kept_mask(
    uav: np.ndarray, rf: np.ndarray, threshold_m: float = DEFAULT_CLEAN_THRESHOLD_M
) -> np.ndarray:
    """True where the matched ``(K, 2)`` positions are at most ``threshold_m`` apart.

    The distance is :func:`metrics.euclidean_errors`, the one every error table reports.
    """
    check_threshold_m(threshold_m)
    return euclidean_errors(uav, rf) <= threshold_m


def load_segments(path, K: int) -> list[Segment]:
    """Load and validate the segment file against an RF log of ``K`` rows.

    Indices not covered by any segment are implicitly excluded from tracking.
    """
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, list):
        raise SegmentError(f"{path}: expected a JSON array of segments")

    segments, ids = [], set()
    for entry in raw:
        try:
            sid = str(entry["id"])
            start, end = entry["start_idx"], entry["end_idx"]
            if isinstance(start, bool) or isinstance(end, bool):  # operator.index takes them as 0 and 1
                raise TypeError("'bool' object cannot be interpreted as an integer")
            start, end = operator.index(start), operator.index(end)
            mm_label = entry["mm"]
            sigmas = NoiseSigmas.from_dict(entry.get("sigmas", {}))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SegmentError(f"{path}: malformed segment entry {entry!r}: {exc}") from exc
        try:
            mm = ModelKind(mm_label)
        except ValueError:
            raise SegmentError(f"segment {sid}: unknown motion model {mm_label!r}") from None
        if sid in ids:
            raise SegmentError(f"{path}: duplicate segment id {sid!r}")
        ids.add(sid)
        if not (0 <= start <= end < K):
            raise SegmentError(
                f"segment {sid}: indices [{start}, {end}] out of range for K={K}"
            )
        segments.append(Segment(sid, start, end, mm, sigmas))

    segments.sort(key=lambda s: s.start_idx)
    for a, b in zip(segments, segments[1:]):
        if b.start_idx <= a.end_idx:
            raise SegmentError(f"segments {a.id} and {b.id} overlap")
    return segments


def segment_rows(segments: Sequence[Segment], rf_rows: np.ndarray) -> list[slice]:
    """Each segment's slice of the pairs whose RF-log rows ``rf_rows`` (K,) ascend."""
    starts = np.searchsorted(rf_rows, [seg.start_idx for seg in segments]).tolist()
    stops = np.searchsorted(rf_rows, [seg.end_idx for seg in segments], side="right").tolist()
    return [slice(a, b) for a, b in zip(starts, stops)]


def write_segments(path, segments: Sequence[Segment]) -> None:
    # ``mm`` is a str enum: its label
    write_json(path, [{**vars(s), "sigmas": vars(s.sigmas)} for s in segments])


def write_json(path, payload) -> None:
    """Indented, key-sorted JSON with a trailing newline (deterministic bytes)."""
    with open(path, "w", newline="\n", encoding="utf-8") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
