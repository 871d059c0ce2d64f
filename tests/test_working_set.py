"""The traced memory of simulate's flight-length passes stays bounded by their block, not the flight.

On a flight of about 100k truth samples the whole-flight passes peaked at
several times their output: each pass here may hold its output and at most
2 MB more (a few BLOCK_ROWS-row temporaries), and the RF simulation, whose
output is a tenth of the flight, 3.5 MB in all.
"""

import tracemalloc

import numpy as np
import pytest

from uavtrack.geodesy import EnuPoint, GeoPoint, from_enu_array, to_enu_array
from uavtrack.motionmodels import ModelKind
from uavtrack.tdoa import simulate_columns
from uavtrack.trajgen import LegSpec, truth_columns

MB = 1e6
ORIGIN = GeoPoint(35.8, -78.7)
# 100,001 samples at 100 ms, at most 36 km from the origin
LEGS = [
    LegSpec(ModelKind.CV, 3000.0, speed=5.0),
    LegSpec(ModelKind.CA, 3000.0, accel=0.001),
    LegSpec(ModelKind.CT, 4000.0, omega=0.01),
]


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced during the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def flight():
    t_ms, xy, _ = truth_columns(LEGS, EnuPoint(0.0, 0.0), 0.0, 5.0, 100)
    return t_ms, xy, from_enu_array(xy, ORIGIN)


def test_truth_sampling():
    (t_ms, xy, _), peak = traced_peak(truth_columns, LEGS, EnuPoint(0.0, 0.0), 0.0, 5.0, 100)
    assert len(t_ms) == 100_001
    assert peak < t_ms.nbytes + xy.nbytes + 2 * MB


@pytest.mark.parametrize("convert, rows", [(from_enu_array, 1), (to_enu_array, 2)], ids=["from_enu", "to_enu"])
def test_geodesy_conversions(flight, convert, rows):
    out, peak = traced_peak(convert, flight[rows], ORIGIN)
    assert out.shape == (100_001, 2)
    assert peak < out.nbytes + 2 * MB


def test_rf_simulation(flight):
    t_ms, xy, _ = flight
    (rf_t, _, _), peak = traced_peak(simulate_columns, t_ms, xy, 3.0, 1, 1000, 0.05, 150.0)
    assert len(rf_t) == 10_001
    assert peak < 3.5 * MB
