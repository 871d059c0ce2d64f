import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from uavtrack.geodesy import (
    _A,
    _E2,
    BLOCK_ROWS,
    MAX_RANGE_M,
    EnuPoint,
    GeoPoint,
    GeodesyError,
    from_enu,
    from_enu_array,
    to_enu,
    to_enu_array,
)

ORIGIN = GeoPoint(35.8, -78.7)

# --- frozen reference: the scalar conversions, one point at a time through
# math, as they were before to_enu/from_enu became one-row calls of the
# array forms. Kept as they were, except for the ref_ names.


def ref_geodetic_to_ecef(lat_rad, lon_rad):
    sin_lat = math.sin(lat_rad)
    cos_lat = math.cos(lat_rad)
    n = _A / math.sqrt(1.0 - _E2 * sin_lat * sin_lat)
    x = n * cos_lat * math.cos(lon_rad)
    y = n * cos_lat * math.sin(lon_rad)
    z = n * (1.0 - _E2) * sin_lat
    return x, y, z


def ref_origin_frame(origin):
    lat0 = math.radians(origin.lat_deg)
    lon0 = math.radians(origin.lon_deg)
    sin_lat0, cos_lat0 = math.sin(lat0), math.cos(lat0)
    sin_lon0, cos_lon0 = math.sin(lon0), math.cos(lon0)
    east = (-sin_lon0, cos_lon0, 0.0)
    north = (-sin_lat0 * cos_lon0, -sin_lat0 * sin_lon0, cos_lat0)
    up = (cos_lat0 * cos_lon0, cos_lat0 * sin_lon0, sin_lat0)
    return ref_geodetic_to_ecef(lat0, lon0), east, north, up


def ref_ellipsoid_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] / (1.0 - _E2)


def ref_to_enu(p, origin):
    x0, east, north, _ = ref_origin_frame(origin)
    x1 = ref_geodetic_to_ecef(math.radians(p.lat_deg), math.radians(p.lon_deg))
    dx, dy, dz = x1[0] - x0[0], x1[1] - x0[1], x1[2] - x0[2]
    e = east[0] * dx + east[1] * dy
    n = north[0] * dx + north[1] * dy + north[2] * dz
    if math.hypot(e, n) > MAX_RANGE_M:
        raise GeodesyError(
            f"points separated by more than {MAX_RANGE_M / 1000:.0f} km"
        )
    return EnuPoint(e, n)


def ref_from_enu(p, origin):
    if math.hypot(p.x, p.y) > MAX_RANGE_M:
        raise GeodesyError(f"offset exceeds {MAX_RANGE_M / 1000:.0f} km")

    x0, east, north, up = ref_origin_frame(origin)
    d = (
        p.x * east[0] + p.y * north[0],
        p.x * east[1] + p.y * north[1],
        p.x * east[2] + p.y * north[2],
    )
    s = (x0[0] + d[0], x0[1] + d[1], x0[2] + d[2])
    a = ref_ellipsoid_dot(up, up)
    b = 2.0 * ref_ellipsoid_dot(s, up)
    c = ref_ellipsoid_dot(d, d)
    u = -2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c))
    x, y, z = s[0] + u * up[0], s[1] + u * up[1], s[2] + u * up[2]
    lat = math.atan2(z, (1.0 - _E2) * math.hypot(x, y))
    return GeoPoint(math.degrees(lat), math.degrees(math.atan2(y, x)))

# one milli-degree of latitude northward from the origin, computed
# independently by quadrature of the WGS-84 meridian radius
# (scipy.integrate.quad of a(1-e2)/(1-e2 sin^2 phi)^1.5 over the arc)
MERIDIAN_ARC_M = 110.9553067


def test_identity():
    e = to_enu(ORIGIN, ORIGIN)
    assert e.x == pytest.approx(0.0, abs=1e-9)
    assert e.y == pytest.approx(0.0, abs=1e-9)


def test_one_millidegree_north_matches_meridian_quadrature():
    e = to_enu(GeoPoint(35.801, -78.7), ORIGIN)
    assert e.x == pytest.approx(0.0, abs=1e-6)
    assert e.y == pytest.approx(MERIDIAN_ARC_M, abs=1e-3)


def test_antisymmetry_at_100m():
    a = GeoPoint(35.8, -78.7)
    b = GeoPoint(35.8007, -78.7006)
    ab = to_enu(a, b)
    ba = to_enu(b, a)
    assert ab.x == pytest.approx(-ba.x, abs=1e-3)
    assert ab.y == pytest.approx(-ba.y, abs=1e-3)


def test_from_enu_identity():
    g = from_enu(EnuPoint(0.0, 0.0), ORIGIN)
    assert g.lat_deg == pytest.approx(35.8, abs=1e-12)
    assert g.lon_deg == pytest.approx(-78.7, abs=1e-12)


def test_from_enu_inverse_of_meridian_arc():
    g = from_enu(EnuPoint(0.0, MERIDIAN_ARC_M), ORIGIN)
    assert g.lat_deg == pytest.approx(35.801, abs=1e-8)


@given(
    dlat=st.floats(-0.04, 0.04),
    dlon=st.floats(-0.04, 0.04),
)
def test_round_trip_within_5km(dlat, dlon):
    g = GeoPoint(35.8 + dlat, -78.7 + dlon)
    e = to_enu(g, ORIGIN)
    back = from_enu(e, ORIGIN)
    assert abs(back.lat_deg - g.lat_deg) < 1e-9
    assert abs(back.lon_deg - g.lon_deg) < 1e-9


@given(
    lat=st.floats(-89.99, 89.99),
    lon=st.floats(-180.0, 180.0),
    x=st.floats(-MAX_RANGE_M, MAX_RANGE_M),
    y=st.floats(-MAX_RANGE_M, MAX_RANGE_M),
)
@example(lat=89.99, lon=0.0, x=0.0, y=5000.0)
@example(lat=89.99, lon=0.0, x=3000.0, y=3000.0)
def test_enu_round_trip_anywhere_within_50km(lat, lon, x, y):
    # 1 mm inside the limit, so that the image of an offset on the limit
    # itself cannot trip the 50 km guard of to_enu by a rounding error
    assume(math.hypot(x, y) <= MAX_RANGE_M - 1e-3)
    origin = GeoPoint(lat, lon)
    e = to_enu(from_enu(EnuPoint(x, y), origin), origin)
    assert math.hypot(e.x - x, e.y - y) < 1e-6


def test_local_monotonicity():
    base = to_enu(GeoPoint(35.81, -78.71), ORIGIN)
    north = to_enu(GeoPoint(35.811, -78.71), ORIGIN)
    east = to_enu(GeoPoint(35.81, -78.709), ORIGIN)
    assert north.y > base.y
    assert east.x > base.x


def test_distance_preservation_1km():
    a = GeoPoint(35.8, -78.7)
    b = GeoPoint(35.809, -78.7)  # ~1 km north
    ea, eb = to_enu(a, ORIGIN), to_enu(b, ORIGIN)
    planar = math.hypot(eb.x - ea.x, eb.y - ea.y)
    # geodesic distance along the meridian via dense chord summation
    n = 1000
    geodesic = 0.0
    prev = ea
    for i in range(1, n + 1):
        p = to_enu(GeoPoint(35.8 + 0.009 * i / n, -78.7), ORIGIN)
        geodesic += math.hypot(p.x - prev.x, p.y - prev.y)
        prev = p
    assert planar == pytest.approx(geodesic, rel=1e-3)


@pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-90.1, 0.0), (0.0, 180.5), (0.0, -181.0)])
def test_out_of_range_coordinates_rejected(lat, lon):
    with pytest.raises(GeodesyError):
        GeoPoint(lat, lon)


def test_far_apart_points_rejected():
    with pytest.raises(GeodesyError):
        to_enu(GeoPoint(36.8, -78.7), ORIGIN)  # ~111 km
    with pytest.raises(GeodesyError):
        from_enu(EnuPoint(60_000.0, 0.0), ORIGIN)


def test_non_finite_enu_rejected():
    with pytest.raises(GeodesyError):
        EnuPoint(float("nan"), 0.0)


_offsets = st.lists(
    st.tuples(st.floats(-MAX_RANGE_M, MAX_RANGE_M), st.floats(-MAX_RANGE_M, MAX_RANGE_M)), min_size=1, max_size=16
)


@given(lat=st.floats(-89.99, 89.99), lon=st.floats(-180.0, 180.0), xy=_offsets)
@example(lat=89.99, lon=0.0, xy=[(0.0, 5000.0), (3000.0, 3000.0)])
@example(lat=0.0, lon=180.0, xy=[(1000.0, 0.0), (-1000.0, 0.0)])
def test_array_forms_match_scalar(lat, lon, xy):
    # the input space of test_enu_round_trip_anywhere_within_50km, a batch at a time
    xy = [p for p in xy if math.hypot(*p) <= MAX_RANGE_M - 1e-3]
    assume(xy)
    origin = GeoPoint(lat, lon)
    geo = from_enu_array(np.array(xy), origin)
    assert geo.shape == (len(xy), 2)
    for (x, y), (g_lat, g_lon) in zip(xy, geo.tolist()):
        g = ref_from_enu(EnuPoint(x, y), origin)
        one = from_enu(EnuPoint(x, y), origin)
        for lat_deg, lon_deg in ((g_lat, g_lon), (one.lat_deg, one.lon_deg)):
            assert abs(lat_deg - g.lat_deg) <= 1e-12 and abs(lon_deg - g.lon_deg) <= 1e-12
    enu = to_enu_array(geo, origin)
    assert enu.shape == (len(xy), 2)
    for (g_lat, g_lon), (e_x, e_y) in zip(geo.tolist(), enu.tolist()):
        e = ref_to_enu(GeoPoint(g_lat, g_lon), origin)
        one = to_enu(GeoPoint(g_lat, g_lon), origin)
        for x, y in ((e_x, e_y), (one.x, one.y)):
            assert abs(x - e.x) <= 1e-9 and abs(y - e.y) <= 1e-9


@given(
    lat=st.floats(-80.0, 80.0),
    lon=st.floats(-180.0, 180.0),
    r=st.floats(MAX_RANGE_M + 1.0, 3 * MAX_RANGE_M),
    theta=st.floats(0.0, 2 * math.pi),
)
def test_array_forms_reject_past_50km_like_scalar(lat, lon, r, theta):
    origin = GeoPoint(lat, lon)
    far = (r * math.cos(theta), r * math.sin(theta))
    with pytest.raises(GeodesyError):
        ref_from_enu(EnuPoint(*far), origin)
    with pytest.raises(GeodesyError):
        from_enu(EnuPoint(*far), origin)
    with pytest.raises(GeodesyError):
        from_enu_array(np.array([(0.0, 0.0), far]), origin)
    # due north by an arc of r over a radius below the least meridian radius
    # (6,335 km), so at least 0.5% past r in the tangent plane
    far_geo = GeoPoint(lat + math.degrees(r / 6.3e6), lon)
    with pytest.raises(GeodesyError):
        ref_to_enu(far_geo, origin)
    with pytest.raises(GeodesyError):
        to_enu(far_geo, origin)
    with pytest.raises(GeodesyError):
        to_enu_array(np.array([(lat, lon), (far_geo.lat_deg, far_geo.lon_deg)]), origin)


def test_array_forms_reject_non_finite():
    with pytest.raises(GeodesyError):
        to_enu_array(np.array([(35.8, -78.7), (float("nan"), -78.7)]), ORIGIN)
    with pytest.raises(GeodesyError):
        from_enu_array(np.array([(0.0, 0.0), (0.0, float("inf"))]), ORIGIN)


# --- frozen reference: the whole-array conversions, one pass over every row,
# as they were before they ran BLOCK_ROWS rows at a time. Kept as they were,
# except for the ref_ names and ref_origin_frame.


def ref_to_enu_array(latlon, origin):
    x0, east, north, _ = ref_origin_frame(origin)
    lat = np.radians(latlon[:, 0])
    lon = np.radians(latlon[:, 1])
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    n = _A / np.sqrt(1.0 - _E2 * sin_lat * sin_lat)
    dx = n * cos_lat * np.cos(lon) - x0[0]
    dy = n * cos_lat * np.sin(lon) - x0[1]
    dz = n * (1.0 - _E2) * sin_lat - x0[2]
    enu = np.column_stack([east[0] * dx + east[1] * dy, north[0] * dx + north[1] * dy + north[2] * dz])
    if np.any(np.hypot(enu[:, 0], enu[:, 1]) > MAX_RANGE_M):
        raise GeodesyError(f"points separated by more than {MAX_RANGE_M / 1000:.0f} km")
    if not np.isfinite(enu).all():
        raise GeodesyError("non-finite ENU coordinate")
    return enu


def ref_from_enu_array(xy, origin):
    if not np.isfinite(xy).all():
        raise GeodesyError("non-finite ENU coordinate")
    if np.any(np.hypot(xy[:, 0], xy[:, 1]) > MAX_RANGE_M):
        raise GeodesyError(f"offset exceeds {MAX_RANGE_M / 1000:.0f} km")

    x0, east, north, up = ref_origin_frame(origin)
    e, n = xy[:, 0], xy[:, 1]
    d = (e * east[0] + n * north[0], e * east[1] + n * north[1], e * east[2] + n * north[2])
    s = (x0[0] + d[0], x0[1] + d[1], x0[2] + d[2])
    a = ref_ellipsoid_dot(up, up)
    b = 2.0 * ref_ellipsoid_dot(s, up)
    c = ref_ellipsoid_dot(d, d)
    u = -2.0 * c / (b + np.sqrt(b * b - 4.0 * a * c))
    x, y, z = s[0] + u * up[0], s[1] + u * up[1], s[2] + u * up[2]
    lat = np.arctan2(z, (1.0 - _E2) * np.hypot(x, y))
    return np.column_stack([np.degrees(lat), np.degrees(np.arctan2(y, x))])


_BLOCKED_ROWS = 3 * BLOCK_ROWS + 17  # three full blocks and a short one


def _offsets_within(rows, seed):
    rng = np.random.default_rng(seed)
    r, theta = 0.999 * MAX_RANGE_M * np.sqrt(rng.random(rows)), rng.uniform(0.0, 2 * np.pi, rows)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


@pytest.mark.parametrize("origin", [ORIGIN, GeoPoint(89.9, 0.0), GeoPoint(-33.9, 180.0)], ids=["mid", "pole", "dateline"])
def test_blocked_conversions_match_the_whole_array_pass_bit_for_bit(origin):
    xy = _offsets_within(_BLOCKED_ROWS, 3)
    geo = from_enu_array(xy, origin)
    assert np.array_equal(geo, ref_from_enu_array(xy, origin))
    assert np.array_equal(to_enu_array(geo, origin), ref_to_enu_array(geo, origin))


def test_empty_input_gives_empty_output():
    for convert in (from_enu_array, to_enu_array):
        out = convert(np.empty((0, 2)), ORIGIN)
        assert out.shape == (0, 2) and out.dtype == np.float64


def _raised(convert, rows):
    with pytest.raises(GeodesyError) as err:
        convert(rows, ORIGIN)
    return str(err.value)


@pytest.mark.parametrize("nan_row, far_row", [(5, 2 * BLOCK_ROWS + 3), (2 * BLOCK_ROWS + 3, 5)])
def test_blocked_checks_raise_the_whole_array_text(nan_row, far_row):
    # a non-finite row and a row past 50 km in different blocks: the text and
    # which check wins stay those of the whole-array pass
    xy = _offsets_within(_BLOCKED_ROWS, 4)
    geo = from_enu_array(xy, ORIGIN)
    xy[nan_row], xy[far_row] = (np.nan, 0.0), (0.0, 1.2 * MAX_RANGE_M)
    assert _raised(from_enu_array, xy) == _raised(ref_from_enu_array, xy) == "non-finite ENU coordinate"
    valid = geo[far_row].copy()
    geo[nan_row], geo[far_row] = (np.nan, ORIGIN.lon_deg), (ORIGIN.lat_deg + 1.0, ORIGIN.lon_deg)
    assert _raised(to_enu_array, geo) == _raised(ref_to_enu_array, geo) == "points separated by more than 50 km"
    geo[far_row] = valid
    assert _raised(to_enu_array, geo) == _raised(ref_to_enu_array, geo) == "non-finite ENU coordinate"
