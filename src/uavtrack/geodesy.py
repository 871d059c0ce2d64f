"""WGS-84 geodetic <-> local east-north tangent-plane conversion.

All tracking runs in a 2-D east/north frame anchored at a configurable
geodetic origin.  Altitude is fixed to 0 throughout (the sensor chain
does not report it).
"""

from __future__ import annotations

import math

import numpy as np

from .records import record

# WGS-84 ellipsoid
_A = 6378137.0
_F = 1.0 / 298.257223563
_E2 = _F * (2.0 - _F)

# small-area assumption guard
MAX_RANGE_M = 50_000.0

# rows per block of a flight-length, row-wise array pass (these conversions,
# the truth sampling, the CSV text): its transient memory grows with the
# block, not with the flight
BLOCK_ROWS = 4096


class GeodesyError(ValueError):
    """Invalid coordinate or out-of-range conversion request."""


@record
class GeoPoint:
    """Geodetic coordinate in decimal degrees."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        if not (-90.0 <= self.lat_deg <= 90.0):
            raise GeodesyError(f"latitude out of range: {self.lat_deg}")
        if not (-180.0 <= self.lon_deg <= 180.0):
            raise GeodesyError(f"longitude out of range: {self.lon_deg}")


@record
class EnuPoint:
    """Local planar coordinate: east (x) / north (y) offsets in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeodesyError(f"non-finite ENU coordinate: ({self.x}, {self.y})")


Vec3 = tuple[float, float, float]
Frame = tuple[Vec3, Vec3, Vec3, Vec3]  # an origin's ECEF position and its east, north and up unit vectors


def _origin_frame(origin: GeoPoint) -> Frame:
    """ECEF position of ``origin`` and its east, north and up unit vectors."""
    lat0 = math.radians(origin.lat_deg)
    lon0 = math.radians(origin.lon_deg)
    sin_lat0, cos_lat0 = math.sin(lat0), math.cos(lat0)
    sin_lon0, cos_lon0 = math.sin(lon0), math.cos(lon0)
    n0 = _A / math.sqrt(1.0 - _E2 * sin_lat0 * sin_lat0)  # prime-vertical radius
    x0 = (n0 * cos_lat0 * cos_lon0, n0 * cos_lat0 * sin_lon0, n0 * (1.0 - _E2) * sin_lat0)
    east = (-sin_lon0, cos_lon0, 0.0)
    north = (-sin_lat0 * cos_lon0, -sin_lat0 * sin_lon0, cos_lat0)
    up = (cos_lat0 * cos_lon0, cos_lat0 * sin_lon0, sin_lat0)
    return x0, east, north, up


def _ellipsoid_dot(u: Vec3, v: Vec3) -> float:
    """Inner product under which the ellipsoid is the sphere of radius ``_A``."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] / (1.0 - _E2)


def to_enu(p: GeoPoint, origin: GeoPoint) -> EnuPoint:
    """East/north offsets of ``p`` relative to ``origin``: :func:`to_enu_array` of one row."""
    return EnuPoint(*to_enu_array(np.array([[p.lat_deg, p.lon_deg]]), origin)[0].tolist())


def from_enu(p: EnuPoint, origin: GeoPoint) -> GeoPoint:
    """Geodetic point whose :func:`to_enu` image at ``origin`` is ``p``: :func:`from_enu_array` of one row."""
    return GeoPoint(*from_enu_array(np.array([[p.x, p.y]]), origin)[0].tolist())


def to_enu_array(latlon: np.ndarray, origin: GeoPoint) -> np.ndarray:
    """East/north offsets of every ``(lat_deg, lon_deg)`` row of ``latlon`` from ``origin``, shape (K, 2).

    ECEF delta rotated into the tangent plane at the origin; the up
    component is discarded (2-D tracking). The rows must be valid geodetic
    coordinates (as :func:`uavtrack.dataio.parse_position_log` returns
    them); a row more than ``MAX_RANGE_M`` from the origin is an error.
    """
    enu = _by_blocks(_to_enu_rows, latlon, _origin_frame(origin))
    if np.any(np.hypot(enu[:, 0], enu[:, 1]) > MAX_RANGE_M):
        raise GeodesyError(f"points separated by more than {MAX_RANGE_M / 1000:.0f} km")
    if not np.isfinite(enu).all():
        raise GeodesyError("non-finite ENU coordinate")
    return enu


def from_enu_array(xy: np.ndarray, origin: GeoPoint) -> np.ndarray:
    """Geodetic ``(lat_deg, lon_deg)`` rows whose :func:`to_enu_array` image at ``origin`` is ``xy``, shape (K, 2).

    Exact inverse, no iteration. The surface point is ``X0 + d + u*up``,
    where ``X0`` is the origin in ECEF and ``d = x*east + y*north``. ``X0``
    lies on the ellipsoid and its normal there is ``up``, so ``u`` is the
    small root of ``a*u^2 + b*u + c = 0`` with ``a = <up, up>``,
    ``b = 2<X0 + d, up>`` and ``c = <d, d>`` in the ellipsoid's own metric;
    it is taken in the form that does not cancel. The latitude of a surface
    point is ``atan2(z, (1 - e^2) * hypot(x, y))``. numpy's ``hypot`` and
    ``arctan2`` are within an ulp or so of :mod:`math`'s, about 1e-14
    degrees, so a ``%.10f`` value can move by one unit in its last digit.
    """
    if not np.isfinite(xy).all():
        raise GeodesyError("non-finite ENU coordinate")
    if np.any(np.hypot(xy[:, 0], xy[:, 1]) > MAX_RANGE_M):
        raise GeodesyError(f"offset exceeds {MAX_RANGE_M / 1000:.0f} km")

    return _by_blocks(_from_enu_rows, xy, _origin_frame(origin))


def _by_blocks(convert, rows: np.ndarray, frame: Frame) -> np.ndarray:
    """The (K, 2) image of ``rows`` under ``convert(block, frame, out)``, filled ``BLOCK_ROWS`` rows at a time."""
    out = np.empty((len(rows), 2))
    for i in range(0, len(rows), BLOCK_ROWS):
        convert(rows[i : i + BLOCK_ROWS], frame, out[i : i + BLOCK_ROWS])
    return out


def _to_enu_rows(latlon: np.ndarray, frame: Frame, out: np.ndarray) -> None:
    """:func:`to_enu_array` of a block of rows into ``out``, unchecked."""
    x0, east, north, _ = frame
    lat = np.radians(latlon[:, 0])
    lon = np.radians(latlon[:, 1])
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    n = _A / np.sqrt(1.0 - _E2 * sin_lat * sin_lat)
    dx = n * cos_lat * np.cos(lon) - x0[0]
    dy = n * cos_lat * np.sin(lon) - x0[1]
    dz = n * (1.0 - _E2) * sin_lat - x0[2]
    out[:, 0] = east[0] * dx + east[1] * dy
    out[:, 1] = north[0] * dx + north[1] * dy + north[2] * dz


def _from_enu_rows(xy: np.ndarray, frame: Frame, out: np.ndarray) -> None:
    """:func:`from_enu_array` of a block of checked rows into ``out``."""
    x0, east, north, up = frame
    e, n = xy[:, 0], xy[:, 1]
    d = (e * east[0] + n * north[0], e * east[1] + n * north[1], e * east[2] + n * north[2])
    s = (x0[0] + d[0], x0[1] + d[1], x0[2] + d[2])
    a = _ellipsoid_dot(up, up)
    b = 2.0 * _ellipsoid_dot(s, up)
    c = _ellipsoid_dot(d, d)
    u = -2.0 * c / (b + np.sqrt(b * b - 4.0 * a * c))
    x, y, z = s[0] + u * up[0], s[1] + u * up[1], s[2] + u * up[2]
    lat = np.arctan2(z, (1.0 - _E2) * np.hypot(x, y))
    out[:, 0] = np.degrees(lat)
    out[:, 1] = np.degrees(np.arctan2(y, x))
