"""NoiseSigmas takes finite numbers only: what float() also takes is rejected."""

import math

import numpy as np
import pytest

from uavtrack.motionmodels import ModelError, NoiseSigmas


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False, "0.2", None],
                         ids=["nan", "inf", "minus_inf", "true", "false", "string", "none"])
@pytest.mark.parametrize("field", ["accel", "jerk", "omega"])
def test_non_finite_bool_or_string_sigma_rejected(field, value):
    # float() takes every one of these but None; a NaN sigma used to reach the filter
    with pytest.raises(ModelError, match=f"noise sigma {field} must be a finite number"):
        NoiseSigmas(**{field: value})
    with pytest.raises(ModelError, match=f"noise sigma {field} must be a finite number"):
        NoiseSigmas.from_dict({field: value})


def test_integer_sigma_is_stored_as_float():
    sig = NoiseSigmas.from_dict({"accel": 1, "omega": np.float32(0.5)})
    assert (sig.accel, sig.omega) == (1.0, 0.5)
    assert type(sig.accel) is float and type(sig.omega) is float
