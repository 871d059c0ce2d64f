import pytest

from uavtrack.motionmodels import ModelKind
from uavtrack.trajgen import LegError, LegSpec, leg_from_dict, truth_columns


@pytest.mark.parametrize("duration_s", [0.0, -1.0])
def test_non_positive_duration_rejected(duration_s):
    with pytest.raises(LegError, match=f"leg duration must be positive, got {duration_s}"):
        LegSpec(ModelKind.CV, duration_s)


def test_ct_leg_needs_a_turn_rate():
    with pytest.raises(LegError, match="CT leg requires a nonzero omega"):
        LegSpec(ModelKind.CT, 10.0, omega=0.0)


@pytest.mark.parametrize(
    "leg",
    [
        {"mm": "CV"}, {"duration_s": 5}, {"mm": "CJ", "duration_s": 5}, {"mm": "CV", "duration_s": "five"}, None,
        {"mm": "CT", "duration_s": 5},
    ],
    ids=["no_duration", "no_model", "unknown_model", "non_numeric_duration", "not_a_dict", "ct_without_omega"],
)
def test_malformed_leg_dict_rejected(leg):
    with pytest.raises(LegError, match=r"^invalid leg spec "):
        leg_from_dict(leg)


def test_no_legs_rejected():
    with pytest.raises(LegError, match="at least one leg required"):
        truth_columns([])


@pytest.mark.parametrize("dt_ms", [0, -100])
def test_non_positive_dt_rejected(dt_ms):
    with pytest.raises(LegError, match=f"dt_ms must be positive, got {dt_ms}"):
        truth_columns([LegSpec(ModelKind.CV, 1.0)], dt_ms=dt_ms)
