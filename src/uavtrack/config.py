"""Run configuration: one JSON file drives every pipeline command.

Defaults are filled in at load time and the fully resolved config is
echoed into the output directory so any run can be reproduced from its
artifacts alone.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import dataio, ekf, trajgen
from .geodesy import EnuPoint, GeoPoint, to_enu
from .motionmodels import NoiseSigmas, _finite_number
from .tdoa import SensorArray


class ConfigError(ValueError):
    pass


DEFAULTS: dict[str, Any] = {
    "origin": "auto",
    "align": {"tol_ms": 1},
    "clean": {"threshold_m": 60.0},
    "sensors": None,
    "sim": {
        "seed": 0,
        "noise_model": "tdoa",  # or "position"
        "sigma_t": 3.3e-9,
        "position_sigma_m": 9.0,
        "outlier_rate": 0.0,
        "outlier_max_m": 200.0,
        "legs": [],
        "start": {"x": 0.0, "y": 0.0},
        "heading_deg": 0.0,
        "speed": 10.0,
        "truth_dt_ms": 100,
        "rf_interval_ms": 1000,
    },
    "filter": {
        "r_mode": "mean",
        "v_max": 20.0,
        "accel_var": 25.0,
        "omega_var": 0.01,  # (rad/s)^2 initial turn-rate variance of a CT segment
        "sigma_defaults": {"accel": 0.2, "jerk": 0.1, "omega": 0.02},
    },
    "paths": {"truth": "truth.csv", "rf": "rf.csv", "segments": "segments.json"},
}

# geodetic anchor used when simulating with origin "auto"
DEFAULT_SIM_ORIGIN = {"lat_deg": 35.8, "lon_deg": -78.7}


# what a setting takes, by the type of its default: (accepted types, as named in the error)
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"), list: (list, "a list")}


def _merge(defaults: Any, override: Any, where: str = "") -> Any:
    """Lay ``override`` over a copy of ``defaults``. A section whose default
    is a dict is closed (an unknown key is a ConfigError naming the dotted
    key); any other default, such as ``sensors`` or ``sim.legs``, is
    replaced whole by the override's object itself, uncopied. A setting
    whose default is an int takes only an integer, one whose default is a
    float any number, and one whose default is a list only a list; a bool
    is no number (a ConfigError names the key)."""
    if type(defaults) in _KINDS:
        kinds, expected = _KINDS[type(defaults)]
        if isinstance(override, bool) or not isinstance(override, kinds):
            raise ConfigError(f"{where.rstrip('.')} must be {expected}, got {json.dumps(override, default=repr)}")
    if not isinstance(defaults, dict):
        return override
    if not isinstance(override, dict):
        raise ConfigError(f"{where.rstrip('.') or 'config'} must be a JSON object")
    unknown = sorted(set(override) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config keys: {[where + k for k in unknown]}")
    out = copy.deepcopy(defaults)
    for k, v in override.items():
        out[k] = _merge(defaults[k], v, f"{where}{k}.")
    return out


def check(data: dict) -> None:
    """Apply every value rule to a resolved config, else a ConfigError naming the dotted
    key: ``cli.main`` runs it once, after the flag overrides and before any command."""
    sim, f = data["sim"], data["filter"]
    interval, dt_ms = sim["rf_interval_ms"], sim["truth_dt_ms"]
    sigma_key = "position_sigma_m" if sim["noise_model"] == "position" else "sigma_t"
    for ok, message in (
        (interval > 0, f"sim.rf_interval_ms must be positive, got {interval}"),
        (dt_ms > 0, f"sim.truth_dt_ms must be positive, got {dt_ms}"),
        (dt_ms <= 0 or interval % dt_ms == 0,
         f"sim.rf_interval_ms ({interval}) must be a multiple of truth_dt_ms ({dt_ms})"),
        (sim["noise_model"] in ("position", "tdoa"), f"sim.noise_model: unknown noise model: {sim['noise_model']!r}"),
        (sim[sigma_key] >= 0, f"sim.{sigma_key} must be >= 0, got {sim[sigma_key]}"),
        (sim["seed"] >= 0, f"sim.seed must be >= 0, got {sim['seed']}"),
        (0 <= sim["outlier_rate"] <= 1, f"sim.outlier_rate must be in [0, 1], got {sim['outlier_rate']}"),
        (sim["outlier_max_m"] >= 0, f"sim.outlier_max_m must be >= 0, got {sim['outlier_max_m']}"),
    ):
        if not ok:
            raise ConfigError(message)
    for prefix, rule, *values in (  # the prefix and the rule's message together name the key
        ("align.", dataio.check_tol_ms, data["align"]["tol_ms"]),
        ("clean.", dataio.check_threshold_m, data["clean"]["threshold_m"]),
        ("filter.r_mode: ", ekf.check_r_mode, f["r_mode"]),
        ("filter.", ekf.FilterConfig, np.zeros((2, 2)), f["v_max"], f["accel_var"], f["omega_var"]),
        # after the rules above, so that a NaN prior fails as a prior, and before those
        # below, whose float() overflows on an integer past 64 bits
        ("", _check_numbers, data, ""),
        ("filter.sigma_defaults: ", NoiseSigmas.from_dict, f["sigma_defaults"]),
        ("", RunConfig(data, Path()).origin),
        *((f"sim.legs.{i}: ", trajgen.check_leg_keys, leg) for i, leg in enumerate(sim["legs"])),
        *((f"sim.legs.{i}.sigmas: ", NoiseSigmas.from_dict, leg["sigmas"])
          for i, leg in enumerate(sim["legs"]) if isinstance(leg, dict) and "sigmas" in leg),
    ):
        try:
            rule(*values)
        except ValueError as exc:
            raise ConfigError(f"{prefix}{exc}") from None


def _check_numbers(value: Any, key: str) -> None:
    """Every number at any depth must be finite, and every integer but ``sim.seed``
    fit in 64 bits (numpy's ``default_rng`` takes any non-negative seed)."""
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            _check_numbers(v, f"{key}.{k}" if key else k)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    elif isinstance(value, int) and key != "sim.seed" and not -(2**63) <= value < 2**63:
        raise ConfigError(f"{key} is too large for a 64-bit integer, got {value}")


class RunConfig:
    """Resolved configuration plus the directory it was loaded from."""

    def __init__(self, data: dict, base_dir: Path):
        self.data = data
        self.base_dir = base_dir

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            with open(path, encoding="utf-8") as f:
                user = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
            raise ConfigError(f"{path}: {exc}") from exc
        try:
            return cls(_merge(DEFAULTS, user), path.parent)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    @classmethod
    def from_dict(cls, user: dict, base_dir=".") -> "RunConfig":
        return cls(_merge(DEFAULTS, copy.deepcopy(user)), Path(base_dir))  # the caller keeps ``user``

    def origin(self) -> Optional[GeoPoint]:
        """Configured origin, or None for "auto" (first UAV sample)."""
        o = self.data["origin"]
        if o == "auto":
            return None
        try:
            return GeoPoint(float(o["lat_deg"]), float(o["lon_deg"]))
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"invalid origin: {o!r}: {exc}") from exc

    def sim_origin(self) -> GeoPoint:
        return self.origin() or GeoPoint(**DEFAULT_SIM_ORIGIN)

    def sensor_array(self, origin: GeoPoint) -> SensorArray:
        """Sensor array in the local frame; entries may be geodetic or ENU."""
        spec = self.data["sensors"]
        if not spec:
            raise ConfigError("config has no sensor array")
        try:
            positions = []
            for i, entry in enumerate(spec["sensors"]):
                keys = ("x", "y") if "x" in entry else ("lat_deg", "lon_deg")
                a, b = (_finite_number(entry[k], f"sensors.sensors.{i}.{k}") for k in keys)
                p = EnuPoint(a, b) if keys[0] == "x" else to_enu(GeoPoint(a, b), origin)
                positions.append([p.x, p.y])
            ref = spec.get("reference_idx", 0)
            if isinstance(ref, bool) or not isinstance(ref, int):
                raise ConfigError(f"sensors.reference_idx must be an integer, got {ref!r}")
            return SensorArray(np.array(positions), ref)
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid sensor array: {exc}") from exc

    def input_path(self, key: str) -> Path:
        """Input file path, resolved relative to the config location."""
        p = Path(self.data["paths"][key])
        return p if p.is_absolute() else self.base_dir / p
