"""The record contract of every frozen record class: construction, repr, eq and hash, immutability."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavtrack.dataio import Segment
from uavtrack.ekf import FilterConfig, FilterError, SegmentTrack
from uavtrack.geodesy import EnuPoint, GeodesyError, GeoPoint
from uavtrack.metrics import CdfCurve, ErrorStats
from uavtrack.motionmodels import ModelError, ModelKind, NoiseSigmas
from uavtrack.objects import (
    AlignedPair, FilterState, MeasurementModel, TdoaFix, TdoaMeasurement, TimedSample, TrackPoint,
)
from uavtrack.tdoa import ArrayError, SensorArray
from uavtrack.trajgen import LegError, LegSpec

SRC = Path(__file__).resolve().parents[1] / "src"


def _segment():
    return Segment("S1", 0, 2, ModelKind.CA, NoiseSigmas(accel=0.2, jerk=0.1))


def _state():
    return FilterState(np.array([1.0, 2.0]), np.eye(2), 100)


# (class, constructor arguments, repr of the instance as frozen dataclasses gave it)
CASES = [
    (GeoPoint, (35.8, -78.7), "GeoPoint(lat_deg=35.8, lon_deg=-78.7)"),
    (EnuPoint, (1.5, -2.0), "EnuPoint(x=1.5, y=-2.0)"),
    (ErrorStats, (0.5, 3.0, 1.25, 0.75, 4), "ErrorStats(min_m=0.5, max_m=3.0, mean_m=1.25, std_m=0.75, n=4)"),
    (CdfCurve, (np.array([1.0, 2.0]), np.array([0.5, 1.0])),
     "CdfCurve(errors_m=array([1., 2.]), fractions=array([0.5, 1. ]))"),
    (Segment, ("S1", 0, 2, ModelKind.CA, NoiseSigmas(accel=0.2, jerk=0.1)),
     "Segment(id='S1', start_idx=0, end_idx=2, mm=<ModelKind.CA: 'CA'>, "
     "sigmas=NoiseSigmas(accel=0.2, jerk=0.1, omega=0.0))"),
    (FilterConfig, (np.eye(2),),
     "FilterConfig(R=array([[1., 0.],\n       [0., 1.]]), v_max=20.0, accel_var=25.0, omega_var=0.01)"),
    (SegmentTrack, (_segment(), slice(0, 3), np.zeros((3, 2)), np.zeros((1, 2, 2))),
     "SegmentTrack(segment=Segment(id='S1', start_idx=0, end_idx=2, mm=<ModelKind.CA: 'CA'>, "
     "sigmas=NoiseSigmas(accel=0.2, jerk=0.1, omega=0.0)), rows=slice(0, 3, None), "
     "states=array([[0., 0.],\n       [0., 0.],\n       [0., 0.]]), covs=array([[[0., 0.],\n        [0., 0.]]]))"),
    (NoiseSigmas, (0.2, 0.1), "NoiseSigmas(accel=0.2, jerk=0.1, omega=0.0)"),
    (SensorArray, (np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]),),
     "SensorArray(positions=array([[ 0.,  0.],\n       [10.,  0.],\n       [ 0., 10.]]), reference_idx=0)"),
    (LegSpec, (ModelKind.CT, 5.0, None, 0.0, 0.1),
     "LegSpec(mm=<ModelKind.CT: 'CT'>, duration_s=5.0, speed=None, accel=0.0, omega=0.1)"),
    (TimedSample, (100, EnuPoint(1.0, 2.0)), "TimedSample(t_ms=100, pos=EnuPoint(x=1.0, y=2.0))"),
    (AlignedPair, (100, EnuPoint(1.0, 2.0), EnuPoint(4.0, 6.0)),
     "AlignedPair(t_ms=100, uav=EnuPoint(x=1.0, y=2.0), rf=EnuPoint(x=4.0, y=6.0))"),
    (FilterState, (np.array([1.0, 2.0]), np.eye(2), 100),
     "FilterState(s=array([1., 2.]), P=array([[1., 0.],\n       [0., 1.]]), t_ms=100)"),
    (MeasurementModel, (np.eye(2), 2.0 * np.eye(2)),
     "MeasurementModel(H=array([[1., 0.],\n       [0., 1.]]), R=array([[2., 0.],\n       [0., 2.]]))"),
    (TrackPoint, (100, EnuPoint(1.0, 2.0), _state()),
     "TrackPoint(t_ms=100, pos=EnuPoint(x=1.0, y=2.0), "
     "state=FilterState(s=array([1., 2.]), P=array([[1., 0.],\n       [0., 1.]]), t_ms=100))"),
    (TdoaMeasurement, (100, ((1, 1e-09), (2, -2e-09))), "TdoaMeasurement(t_ms=100, deltas=((1, 1e-09), (2, -2e-09)))"),
    (TdoaFix, (EnuPoint(1.0, 2.0), 0.5, True), "TdoaFix(pos=EnuPoint(x=1.0, y=2.0), residual_m=0.5, converged=True)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
# classes whose fields are all hashable
HASHABLE = {GeoPoint, EnuPoint, ErrorStats, Segment, NoiseSigmas, LegSpec, TimedSample, AlignedPair, TdoaMeasurement,
            TdoaFix}


def test_every_record_class_is_covered():
    assert len(CASES) == 17 and len(set(IDS)) == 17


@pytest.mark.parametrize("cls, args, expected", CASES, ids=IDS)
def test_repr_matches_the_dataclass_form(cls, args, expected):
    assert repr(cls(*args)) == expected


@pytest.mark.parametrize("cls, args, expected", CASES, ids=IDS)
def test_keyword_construction_equals_positional(cls, args, expected):
    record = cls(**dict(zip(cls._fields, args)))
    assert repr(record) == expected
    assert list(vars(record)) == list(cls._fields)
    assert all(getattr(record, name) is value for name, value in zip(cls._fields, args))


@pytest.mark.parametrize(
    "cls, args, defaults",
    [
        (NoiseSigmas, (), {"accel": 0.0, "jerk": 0.0, "omega": 0.0}),
        (FilterConfig, (np.eye(2),), {"v_max": 20.0, "accel_var": 25.0, "omega_var": 0.01}),
        (SensorArray, (np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]),), {"reference_idx": 0}),
        (LegSpec, (ModelKind.CV, 5.0), {"speed": None, "accel": 0.0, "omega": 0.0}),
    ],
    ids=["NoiseSigmas", "FilterConfig", "SensorArray", "LegSpec"],
)
def test_defaults_fill_the_fields_not_given(cls, args, defaults):
    record = cls(*args)
    assert {name: getattr(record, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls, args, expected", [c for c in CASES if c[0] in HASHABLE],
                         ids=[i for i, c in zip(IDS, CASES) if c[0] in HASHABLE])
def test_equal_fields_give_equal_records_and_hashes(cls, args, expected):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in cls._fields))
    assert len({a, b}) == 1


def test_eq_compares_fields_within_one_class_only():
    assert GeoPoint(1.0, 2.0) != GeoPoint(1.0, 2.5)
    assert NoiseSigmas(0.1) != NoiseSigmas(0.1, 0.2)
    assert GeoPoint(1.0, 2.0) != EnuPoint(1.0, 2.0)
    assert EnuPoint(1.0, 2.0) != (1.0, 2.0)
    assert EnuPoint(1.0, 2.0).__eq__((1.0, 2.0)) is NotImplemented


@pytest.mark.parametrize("cls, args, expected", [c for c in CASES if c[0] not in HASHABLE],
                         ids=[i for i, c in zip(IDS, CASES) if c[0] not in HASHABLE])
def test_a_record_holding_an_array_is_unhashable_but_equals_itself(cls, args, expected):
    record = cls(*args)
    assert record == record
    with pytest.raises(TypeError, match="unhashable type"):
        hash(record)


@pytest.mark.parametrize("cls, args, expected", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, args, expected):
    record = cls(*args)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == expected


@pytest.mark.parametrize("cls, args, expected", CASES, ids=IDS)
def test_missing_or_extra_arguments_raise_type_error(cls, args, expected):
    with pytest.raises(TypeError, match=r"takes \d+ positional arguments but \d+ were given"):
        cls(*args, *[None] * (len(cls._fields) - len(args) + 1))
    with pytest.raises(TypeError, match="got an unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match=f"got multiple values for argument '{cls._fields[0]}'"):
        cls(*args, **{cls._fields[0]: args[0]})
    if cls is not NoiseSigmas:
        with pytest.raises(TypeError, match=f"missing 1 required argument.*'{cls._fields[0]}'"):
            cls(**dict(zip(cls._fields[1:], args[1:])))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GeoPoint(91.0, 0.0), GeodesyError, "latitude out of range: 91.0"),
        (lambda: EnuPoint(math.nan, 0.0), GeodesyError, r"non-finite ENU coordinate: \(nan, 0.0\)"),
        (lambda: NoiseSigmas(accel=-0.1), ModelError,
         r"negative noise sigma: NoiseSigmas\(accel=-0.1, jerk=0.0, omega=0.0\)"),
        (lambda: NoiseSigmas(jerk="0.2"), ModelError, "noise sigma jerk must be a finite number, got '0.2'"),
        (lambda: FilterConfig(np.eye(2), v_max=-1.0), FilterError, "v_max must be finite and >= 0, got -1.0"),
        (lambda: SensorArray(np.zeros((1, 2))), ArrayError, "need at least 2 sensors"),
        (lambda: LegSpec(ModelKind.CT, 5.0), LegError, "CT leg requires a nonzero omega"),
    ],
    ids=["GeoPoint", "EnuPoint", "NoiseSigmas_negative", "NoiseSigmas_string", "FilterConfig", "SensorArray",
         "LegSpec"],
)
def test_post_init_checks_run(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_importing_the_cli_freezes_nothing_and_loads_no_dataclasses():
    # numpy first, so that only what the uavtrack import pulls in is tested
    code = (
        "import gc, sys\n"
        "import numpy\n"
        "sys.modules['dataclasses'] = None  # any later import of it raises ImportError\n"
        "import uavtrack.cli\n"
        "print(gc.get_freeze_count(), gc.isenabled())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out == "0 True\n"
