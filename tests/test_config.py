import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from uavtrack.config import DEFAULTS, ConfigError, RunConfig, check
from uavtrack.geodesy import GeoPoint, to_enu

README_CONFIG = {
    "sensors": {
        "reference_idx": 0,
        "sensors": [
            {"x": -200.0, "y": -200.0}, {"x": 200.0, "y": -200.0},
            {"x": -200.0, "y": 200.0}, {"x": 200.0, "y": 200.0},
        ],
    },
    "sim": {
        "seed": 7,
        "sigma_t": 3.3e-9,
        "legs": [
            {"mm": "CT", "duration_s": 30, "omega": 0.2, "speed": 8},
            {"mm": "CV", "duration_s": 20},
            {"mm": "CA", "duration_s": 15, "accel": 0.5},
        ],
    },
    "paths": {"truth": "data/truth.csv", "rf": "data/rf.csv", "segments": "data/segments.json"},
}

# one misspelled key per closed section, as (override, dotted name)
TYPOS = [
    ({"sim_": {}}, "sim_"),
    ({"align": {"tol": 2}}, "align.tol"),
    ({"clean": {"threshold": 50.0}}, "clean.threshold"),
    ({"sim": {"sigma_tt": 1e-9}}, "sim.sigma_tt"),
    ({"sim": {"start": {"x": 0.0, "z": 1.0}}}, "sim.start.z"),
    ({"filter": {"vmax": 10.0}}, "filter.vmax"),
    ({"filter": {"sigma_defaults": {"jerkk": 0.2}}}, "filter.sigma_defaults.jerkk"),
    ({"paths": {"truths": "t.csv"}}, "paths.truths"),
]


def _write(tmp_path, data) -> Path:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize("override, key", TYPOS, ids=[k for _, k in TYPOS])
def test_unknown_key_rejected_by_load(tmp_path, override, key):
    path = _write(tmp_path, override)
    with pytest.raises(ConfigError, match=rf"^{path}: unknown config keys: \['{key}'\]$"):
        RunConfig.load(path)


@pytest.mark.parametrize("override, key", TYPOS, ids=[k for _, k in TYPOS])
def test_unknown_key_rejected_by_from_dict(override, key):
    with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
        RunConfig.from_dict(override)


@pytest.mark.parametrize(
    "override, where", [({"sim": 3}, "sim"), ({"sim": {"start": [0, 0]}}, "sim.start")], ids=["sim", "sim.start"]
)
def test_section_must_be_object(override, where):
    with pytest.raises(ConfigError, match=rf"^{where} must be a JSON object$"):
        RunConfig.from_dict(override)


# a setting takes the JSON type of its default: an int only an integer, a float any number, neither a bool
MISTYPED = [
    ({"sim": {"seed": 1.5}}, "sim.seed must be an integer, got 1.5"),
    ({"sim": {"truth_dt_ms": 100.5}}, "sim.truth_dt_ms must be an integer, got 100.5"),
    ({"sim": {"seed": None}}, "sim.seed must be an integer, got null"),
    ({"sim": {"seed": True}}, "sim.seed must be an integer, got true"),
    ({"sim": {"rf_interval_ms": "1000"}}, 'sim.rf_interval_ms must be an integer, got "1000"'),
    ({"align": {"tol_ms": 1.9}}, "align.tol_ms must be an integer, got 1.9"),
    ({"align": {"tol_ms": None}}, "align.tol_ms must be an integer, got null"),
    ({"sim": {"outlier_rate": "0.1"}}, 'sim.outlier_rate must be a number, got "0.1"'),
    ({"filter": {"v_max": None}}, "filter.v_max must be a number, got null"),
    ({"filter": {"accel_var": False}}, "filter.accel_var must be a number, got false"),
    ({"clean": {"threshold_m": [60]}}, "clean.threshold_m must be a number, got [60]"),
    ({"sim": {"start": {"x": {}}}}, "sim.start.x must be a number, got {}"),
    ({"filter": {"sigma_defaults": {"jerk": "0.1"}}}, 'filter.sigma_defaults.jerk must be a number, got "0.1"'),
]


@pytest.mark.parametrize("override, message", MISTYPED, ids=[m.split()[0] + "=" + m.split()[-1] for _, m in MISTYPED])
def test_mistyped_setting_rejected_by_load(tmp_path, override, message):
    path = _write(tmp_path, override)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        RunConfig.load(path)


def test_numbers_keep_their_json_type():
    cfg = RunConfig.from_dict({"clean": {"threshold_m": 60}, "sim": {"seed": 2**70, "speed": 8}})
    assert cfg.data["clean"]["threshold_m"] == 60 and type(cfg.data["clean"]["threshold_m"]) is int
    assert cfg.data["sim"]["seed"] == 2**70
    assert RunConfig.from_dict({"sim": {"outlier_rate": 0.25}}).data["sim"]["outlier_rate"] == 0.25


def test_top_level_must_be_object(tmp_path):
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        RunConfig.load(_write(tmp_path, [1, 2]))


def test_free_form_sections_accept_any_keys():
    cfg = RunConfig.from_dict({
        "origin": {"lat_deg": 35.8, "lon_deg": -78.7, "note": "field site"},
        "sensors": {"sensors": [{"x": 0.0, "y": 0.0, "label": "a"}], "site": "b"},
        "sim": {"legs": [{"mm": "CV", "duration_s": 5, "comment": "leg entries are not checked here"}]},
    })
    assert cfg.data["sensors"]["site"] == "b"
    assert cfg.data["sim"]["legs"][0]["comment"].startswith("leg")


def test_nested_override_keeps_sibling_defaults():
    cfg = RunConfig.from_dict({"filter": {"sigma_defaults": {"jerk": 0.5}}, "sim": {"start": {"y": 3.0}}})
    assert cfg.data["filter"]["sigma_defaults"] == {"accel": 0.2, "jerk": 0.5, "omega": 0.02}
    assert cfg.data["filter"]["v_max"] == 20.0
    assert cfg.data["sim"]["start"] == {"x": 0.0, "y": 3.0}


def test_readme_config_loads(tmp_path):
    cfg = RunConfig.load(_write(tmp_path, README_CONFIG))
    assert cfg.data["sim"]["seed"] == 7
    check(cfg.data)


@pytest.mark.parametrize("workload", ["tdoa_loiter", "dense_segments", "long_legs_10hz"])
def test_benchmark_workload_configs_load(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    check(RunConfig.load(_write(tmp_path, workloads.generate(workload, seed=1))).data)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match=f"^config file not found: {tmp_path / 'absent.json'}$"):
        RunConfig.load(tmp_path / "absent.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"sim": {"seed": 1,}}', encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{path}: invalid JSON: "):
        RunConfig.load(path)


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"sim": {"seed": 1' + b"0" * 4999 + b"}}", "Exceeds the limit (4300 digits)"),
        (b'{"sim": {"seed": 1}}\xff', "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["integer_past_digit_limit", "not_utf8"],
)
def test_unreadable_config_names_the_file(tmp_path, content, message):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}"):
        RunConfig.load(path)


def test_explicit_origin():
    cfg = RunConfig.from_dict({"origin": {"lat_deg": 40.0, "lon_deg": -105.25}})
    assert cfg.origin() == GeoPoint(40.0, -105.25)
    assert cfg.sim_origin() == GeoPoint(40.0, -105.25)
    assert RunConfig.from_dict({}).origin() is None


@pytest.mark.parametrize(
    "origin",
    [{"lat_deg": 40.0}, {"lat_deg": "north", "lon_deg": 0.0}, [40.0, -105.25], {"lat_deg": 91.0, "lon_deg": 0.0}],
    ids=["missing_lon", "non_numeric", "not_an_object", "latitude_out_of_range"],
)
def test_invalid_origin(origin):
    with pytest.raises(ConfigError, match=r"^invalid origin: "):
        RunConfig.from_dict({"origin": origin}).origin()


def test_geodetic_sensor_entries():
    origin = GeoPoint(35.8, -78.7)
    geo = [(35.8, -78.7), (35.801, -78.7), (35.8, -78.698)]
    cfg = RunConfig.from_dict({"sensors": {
        "reference_idx": 1,
        "sensors": [{"lat_deg": lat, "lon_deg": lon} for lat, lon in geo] + [{"x": 50.0, "y": -20.0}],
    }})
    arr = cfg.sensor_array(origin)
    expected = [[p.x, p.y] for p in (to_enu(GeoPoint(lat, lon), origin) for lat, lon in geo)] + [[50.0, -20.0]]
    assert np.array_equal(arr.positions, np.array(expected))
    assert arr.reference_idx == 1


@pytest.mark.parametrize(
    "sensors",
    [
        {"sensors": [{"lat_deg": 35.8}]}, {"sensors": [{"x": 0.0, "y": 0.0}]}, {"beacons": []},
        # float() would read a bool as 1.0 or 0.0 and "nan" as a NaN sensor
        *({"sensors": [{"x": 0.0, "y": 0.0}, {"x": 100.0, "y": 0.0}, {"x": 0.0, "y": 100.0}, entry]} for entry in (
            {"x": True, "y": 0.0}, {"x": "10", "y": 0.0}, {"x": "nan", "y": 200},
            {"lat_deg": 35.8, "lon_deg": "-78.699"},
        )),
    ],
    ids=["missing_lon", "too_few_sensors", "no_sensor_list", "bool_x", "string_x", "nan_string_x", "string_lon"],
)
def test_invalid_sensor_array(sensors):
    with pytest.raises(ConfigError, match=r"^invalid sensor array: "):
        RunConfig.from_dict({"sensors": sensors}).sensor_array(GeoPoint(35.8, -78.7))


@pytest.mark.parametrize("ref", [0.7, "1", True])
def test_reference_sensor_must_be_an_integer(ref):
    # a truncating read would pick sensor 0 for 0.7
    spec = {"reference_idx": ref, "sensors": [{"x": 0.0, "y": 0.0}, {"x": 100.0, "y": 0.0}, {"x": 0.0, "y": 100.0}]}
    with pytest.raises(ConfigError, match=r"^invalid sensor array: sensors.reference_idx must be an integer, got "):
        RunConfig.from_dict({"sensors": spec}).sensor_array(GeoPoint(35.8, -78.7))


def _containers(obj) -> dict[int, object]:
    """Every dict and list inside ``obj``, by identity (the objects are kept alive)."""
    found = {}
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list)):
            found[id(item)] = item
            stack.extend(item.values() if isinstance(item, dict) else item)
    return found


def test_from_dict_never_aliases_its_argument():
    user = copy.deepcopy(README_CONFIG)
    cfg = RunConfig.from_dict(user)
    assert not _containers(cfg.data).keys() & _containers(user).keys()
    cfg.data["sim"]["legs"][0]["mm"] = "CV"
    cfg.data["sensors"]["sensors"].clear()
    assert user == README_CONFIG


def test_no_config_shares_state_with_defaults(tmp_path):
    before = copy.deepcopy(DEFAULTS)
    configs = [
        RunConfig.from_dict({}),
        RunConfig.from_dict(README_CONFIG),
        RunConfig.load(_write(tmp_path, README_CONFIG)),
        RunConfig.load(_write(tmp_path, {"filter": {"v_max": 5.0}})),
    ]
    defaults = _containers(DEFAULTS).keys()
    for cfg in configs:
        assert not _containers(cfg.data).keys() & defaults
        cfg.data["filter"]["sigma_defaults"]["accel"] = -1.0
        cfg.data["sim"]["legs"].append({"mm": "CV", "duration_s": 1})
        cfg.data["paths"].clear()
    assert DEFAULTS == before
