import pytest

from uavtrack.motionmodels import ModelKind
from uavtrack.trajgen import LegError, LegSpec, check_leg_keys, leg_from_dict, truth_columns


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
        {"mm": "CV", "duration_s": True}, {"mm": "CV", "duration_s": "10"}, {"mm": "CV", "duration_s": "nan"},
        {"mm": "CT", "duration_s": 5, "omega": True},
    ],
    ids=["no_duration", "no_model", "unknown_model", "non_numeric_duration", "not_a_dict", "ct_without_omega",
         "bool_duration", "string_duration", "nan_string_duration", "bool_omega"],
)
def test_malformed_leg_dict_rejected(leg):
    with pytest.raises(LegError, match=r"^invalid leg spec "):
        leg_from_dict(leg)


@pytest.mark.parametrize(
    "key, value",
    [("duration_s", "nan"), ("duration_s", float("inf")), ("speed", "8"), ("accel", False), ("omega", None)],
)
def test_leg_number_rule_names_the_key(key, value):
    leg = {"mm": "CT", "duration_s": 5, "omega": 0.2, key: value}
    with pytest.raises(LegError, match=f"{key} must be a finite number, got {value!r}$"):
        leg_from_dict(leg)


@pytest.mark.parametrize(
    "leg, key",
    [
        ({"mm": "CA", "duration_s": 10, "acel": 0.5}, "acel"),
        ({"mm": "CV", "duration_s": 10, "omega": 0.5}, "omega"),
        ({"mm": "CV", "duration_s": 10, "accel": 0.5}, "accel"),
        ({"mm": "CA", "duration_s": 10, "omega": 0.5}, "omega"),
        ({"mm": "CT", "duration_s": 10, "omega": 0.5, "accel": 0.1}, "accel"),
        ({"mm": "CT", "duration_s": 10, "omega": 0.5, "comment": "x"}, "comment"),
    ],
    ids=["misspelt_accel", "omega_on_cv", "accel_on_cv", "omega_on_ca", "accel_on_ct", "unknown_key"],
)
def test_unknown_or_misplaced_leg_key_rejected(leg, key):
    message = f"a {leg['mm']} leg takes no key '{key}'"
    with pytest.raises(LegError, match=f"^invalid leg spec .*: {message}$"):
        leg_from_dict(leg)
    with pytest.raises(LegError, match=f"^{message}$"):
        check_leg_keys(leg)


@pytest.mark.parametrize(
    "leg",
    [
        {"mm": "CV", "duration_s": 10, "speed": 5, "sigmas": {"accel": 0.3}},
        {"mm": "CA", "duration_s": 10, "accel": -0.2, "speed": 5, "sigmas": {}},
        {"mm": "CT", "duration_s": 10, "omega": 0.1, "speed": 5, "sigmas": {"omega": 0.01}},
    ],
    ids=["CV", "CA", "CT"],
)
def test_every_key_a_leg_takes_is_accepted(leg):
    check_leg_keys(leg)
    spec = leg_from_dict(leg)
    assert (spec.mm.value, spec.duration_s, spec.speed) == (leg["mm"], 10.0, 5.0)
    assert (spec.accel, spec.omega) == (leg.get("accel", 0.0), leg.get("omega", 0.0))


@pytest.mark.parametrize("leg", [None, "CV", [1], {"duration_s": 5, "acel": 1}, {"mm": "CJ", "acel": 1}])
def test_key_rule_leaves_an_unparsable_entry_to_leg_from_dict(leg):
    check_leg_keys(leg)
    with pytest.raises(LegError, match="^invalid leg spec "):
        leg_from_dict(leg)


def test_no_legs_rejected():
    with pytest.raises(LegError, match="at least one leg required"):
        truth_columns([])


@pytest.mark.parametrize("dt_ms", [0, -100])
def test_non_positive_dt_rejected(dt_ms):
    with pytest.raises(LegError, match=f"dt_ms must be positive, got {dt_ms}"):
        truth_columns([LegSpec(ModelKind.CV, 1.0)], dt_ms=dt_ms)
