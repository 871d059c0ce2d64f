import csv
import gc
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavtrack import cli, dataio, tdoa, trajgen
from uavtrack.cli import main
from uavtrack.dataio import parse_position_log, write_position_log
from uavtrack.geodesy import GeoPoint

LEGS = [
    {"mm": "CT", "duration_s": 30, "omega": 0.2, "speed": 8},
    {"mm": "CV", "duration_s": 20},
    {"mm": "CA", "duration_s": 15, "accel": 0.5},
]


def _write_config(tmp_path, **overrides):
    cfg = {
        "sensors": {
            "reference_idx": 0,
            "sensors": [
                {"x": -200.0, "y": -200.0},
                {"x": 200.0, "y": -200.0},
                {"x": -200.0, "y": 200.0},
                {"x": 200.0, "y": 200.0},
            ],
        },
        "sim": {"seed": 7, "sigma_t": 3.3e-9, "legs": LEGS},
        "paths": {
            "truth": str(tmp_path / "data/truth.csv"),
            "rf": str(tmp_path / "data/rf.csv"),
            "segments": str(tmp_path / "data/segments.json"),
        },
    }
    for key, value in overrides.items():
        cfg.setdefault(key, {}).update(value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _read_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


class TestSimulate:
    def test_writes_expected_files(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "data"), "simulate"]) == 0
        for name in ("truth.csv", "rf.csv", "segments.json", "resolved_config.json", "summary.json"):
            assert (tmp_path / "data" / name).exists()
        segs = json.loads((tmp_path / "data/segments.json").read_text())
        assert [s["mm"] for s in segs] == ["CT", "CV", "CA"]
        # 65 s of flight at 100 ms
        with open(tmp_path / "data/truth.csv") as f:
            assert sum(1 for _ in f) == 652  # header + 651 samples

    def test_deterministic_outputs(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "a"), "simulate"]) == 0
        assert main(["--config", str(cfg), "--out", str(tmp_path / "b"), "simulate"]) == 0
        assert _read_bytes(tmp_path / "a") == _read_bytes(tmp_path / "b")

    def test_seed_changes_rf_log(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["--config", str(cfg), "--out", str(tmp_path / "a"), "simulate"])
        main(["--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "8", "simulate"])
        assert (tmp_path / "a/rf.csv").read_bytes() != (tmp_path / "b/rf.csv").read_bytes()
        assert (tmp_path / "a/truth.csv").read_bytes() == (tmp_path / "b/truth.csv").read_bytes()

    def test_empty_legs_error(self, tmp_path):
        cfg = _write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["sim"]["legs"] = []
        cfg.write_text(json.dumps(data))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1

    @pytest.mark.parametrize("interval", [0, -1000])
    def test_non_positive_rf_interval_rejected(self, tmp_path, capsys, interval):
        cfg = _write_config(tmp_path, sim={"rf_interval_ms": interval})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert "rf_interval_ms must be positive" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_flight_past_50km_rejected_before_rf_simulation(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("RF simulation ran on a flight beyond the geodesy limit")

        monkeypatch.setattr(tdoa, "simulate_columns", fail)
        cfg = _write_config(tmp_path, sim={"legs": [{"mm": "CV", "duration_s": 520, "speed": 100}]})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert "50 km" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "sim, message",
        [
            ({"noise_model": "gaussian"}, "unknown noise model"),
            ({"rf_interval_ms": 1050}, "must be a multiple of truth_dt_ms"),
            ({"truth_dt_ms": 0}, "truth_dt_ms must be positive"),
            ({"legs": [*LEGS[:-1], dict(LEGS[-1], sigmas={"acel": 0.3})]}, "unknown sigma keys: ['acel']"),
            ({"sigma_t": -1e-9}, "sim.sigma_t must be >= 0"),
            ({"noise_model": "position", "position_sigma_m": -1.0}, "sim.position_sigma_m must be >= 0"),
            ({"seed": -1}, "sim.seed must be >= 0, got -1"),
            ({"outlier_rate": 1.5}, "sim.outlier_rate must be in [0, 1], got 1.5"),
            ({"outlier_rate": -0.1}, "sim.outlier_rate must be in [0, 1], got -0.1"),
            ({"outlier_max_m": -50}, "sim.outlier_max_m must be >= 0, got -50"),
            ({"heading_deg": float("inf")}, "sim.heading_deg must be finite, got inf"),
            ({"speed": float("inf")}, "sim.speed must be finite, got inf"),
            ({"outlier_rate": 0.5, "outlier_max_m": float("inf")}, "sim.outlier_max_m must be finite, got inf"),
            ({"start": {"x": float("nan")}}, "sim.start.x must be finite, got nan"),
            ({"legs": [dict(LEGS[0], speed=float("nan")), *LEGS[1:]]}, "sim.legs.0.speed must be finite, got nan"),
            ({"sigma_t": float("nan")}, "sim.sigma_t must be >= 0, got nan"),
            ({"truth_dt_ms": 10**20, "rf_interval_ms": 10**20}, "sim.truth_dt_ms is too large"),
            ({"legs": [dict(LEGS[0], sigmas={"accel": True}), *LEGS[1:]]},
             "noise sigma accel must be a finite number, got True"),
            ({"legs": [*LEGS[:-1], dict(LEGS[-1], sigmas={"accel": "0.2"})]},
             "noise sigma accel must be a finite number, got '0.2'"),
        ],
        ids=["noise_model", "interval_multiple", "zero_truth_dt", "last_leg_sigma", "negative_sigma_t",
             "negative_position_sigma", "negative_seed", "outlier_rate_above_one", "negative_outlier_rate",
             "negative_outlier_max", "infinite_heading", "infinite_speed", "infinite_outlier_max", "nan_start_x",
             "nan_leg_speed", "nan_sigma_t", "int64_overflow_truth_dt", "bool_leg_sigma", "string_leg_sigma"],
    )
    def test_bad_sim_config_rejected_before_truth(self, tmp_path, capsys, monkeypatch, sim, message):
        def fail(*args, **kwargs):
            pytest.fail("ground truth generated for a config that cannot be simulated")

        monkeypatch.setattr(trajgen, "truth_columns", fail)
        cfg = _write_config(tmp_path, sim=sim)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_tdoa_without_sensors_rejected_before_truth(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("ground truth generated for a TDoA config with no sensor array")

        monkeypatch.setattr(trajgen, "truth_columns", fail)
        cfg = _write_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["sensors"]
        cfg.write_text(json.dumps(data))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert "config has no sensor array" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_two_sensor_tdoa_array_rejected_before_truth(self, tmp_path, capsys, monkeypatch):
        # SensorArray accepts two sensors (simulate_tdoa measures with them),
        # but no epoch of theirs has a 2-D fix
        def fail(*args, **kwargs):
            pytest.fail("ground truth generated for a TDoA array that cannot fix a position")

        monkeypatch.setattr(trajgen, "truth_columns", fail)
        cfg = _write_config(tmp_path, sensors={"sensors": [{"x": -200.0, "y": 0.0}, {"x": 200.0, "y": 0.0}]})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert "sensors.sensors: a TDoA fix needs at least 3 sensors, got 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sensors": {"sensors": [
                {"x": -200.0, "y": -200.0}, {"x": 200.0, "y": -200.0}, {"x": -200.0, "y": 200.0}, {"x": "nan", "y": 200},
            ]}}, "sensors.sensors.3.x must be a finite number, got 'nan'"),
            ({"sim": {"legs": [{"mm": "CV", "duration_s": "nan"}]}}, "duration_s must be a finite number, got 'nan'"),
            ({"sim": {"legs": [{"mm": "CV", "duration_s": True}]}}, "duration_s must be a finite number, got True"),
        ],
        ids=["nan_string_sensor", "nan_string_duration", "bool_duration"],
    )
    def test_non_number_sensor_or_leg_rejected_before_truth(self, tmp_path, capsys, monkeypatch, overrides, message):
        monkeypatch.setattr(trajgen, "truth_columns", lambda *a, **k: pytest.fail("truth generated"))
        cfg = _write_config(tmp_path, **overrides)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "leg, message",
        [
            ({"mm": "CA", "duration_s": 15, "acel": 0.5}, "sim.legs.1: a CA leg takes no key 'acel'"),
            ({"mm": "CV", "duration_s": 20, "omega": 0.5}, "sim.legs.1: a CV leg takes no key 'omega'"),
            ({"mm": "CT", "duration_s": 20, "omega": 0.2, "accel": 0.1}, "sim.legs.1: a CT leg takes no key 'accel'"),
        ],
        ids=["misspelt_accel", "omega_on_cv", "accel_on_ct"],
    )
    def test_unknown_or_misplaced_leg_key_rejected_before_truth(self, tmp_path, capsys, monkeypatch, leg, message):
        monkeypatch.setattr(trajgen, "truth_columns", lambda *a, **k: pytest.fail("truth generated"))
        cfg = _write_config(tmp_path, sim={"legs": [LEGS[0], leg]})
        for command in (["simulate"], ["track"]):
            assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), *command]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_legs_not_a_list_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, sim={"legs": 5})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: sim.legs must be a list, got 5\n"

    def test_wild_fixes_dropped_as_lost_epochs(self, tmp_path, caplog):
        # at 2 us timing jitter a few fixes land past the 50 km geodesy limit
        cfg = _write_config(tmp_path, sim={"sigma_t": 2e-6, "rf_interval_ms": 100})
        with caplog.at_level(logging.WARNING, logger="uavtrack.tdoa"):
            assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 0
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["dropped_epochs"] > 0
        assert summary["n_rf"] + summary["dropped_epochs"] == summary["n_truth"]
        drops = [r.getMessage() for r in caplog.records if r.getMessage().endswith("dropping")]
        assert len(drops) == summary["dropped_epochs"]
        assert any("beyond 50 km" in m for m in drops) and any("rank-deficient" in m for m in drops)
        epochs = [int(m.split()[1].rstrip(":")) for m in drops]
        assert epochs == sorted(epochs)  # one warning per epoch, in epoch order

    def test_leg_without_an_rf_epoch_gets_no_segment(self, tmp_path, caplog):
        # the 0.3 s middle leg holds truth samples 50-53; the 1 s epoch at
        # sample 50 already belongs to S1, so the leg has no epoch of its own
        legs = [{"mm": "CV", "duration_s": 5}, {"mm": "CV", "duration_s": 0.3}, {"mm": "CV", "duration_s": 5}]
        cfg = _write_config(tmp_path, sim={"noise_model": "position", "legs": legs})
        with caplog.at_level(logging.WARNING):
            assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ["leg 2 too short for a segment at the RF rate, skipped"]
        segs = json.loads((tmp_path / "x/segments.json").read_text())
        assert [(s["id"], s["start_idx"], s["end_idx"]) for s in segs] == [("S1", 0, 5), ("S3", 6, 10)]

    @pytest.mark.parametrize(
        "section, key, value, command",
        [
            ("sim", "seed", 1.5, "simulate"),
            ("sim", "seed", None, "simulate"),
            ("sim", "rf_interval_ms", None, "simulate"),
            ("sim", "outlier_rate", "0.1", "simulate"),
            ("align", "tol_ms", None, "track"),
            ("filter", "v_max", None, "track"),
            ("clean", "threshold_m", [60], "track"),
        ],
        ids=["fractional_seed", "null_seed", "null_rf_interval", "string_outlier_rate", "null_tol",
             "null_v_max", "list_threshold"],
    )
    def test_mistyped_setting_rejected_at_load(self, tmp_path, capsys, monkeypatch, section, key, value, command):
        # rejected at load: no command runs on a truncated value or fails later with a traceback
        monkeypatch.setattr(trajgen, "truth_columns", lambda *a, **k: pytest.fail("truth generated"))
        monkeypatch.setattr(dataio, "parse_position_log", lambda *a, **k: pytest.fail("log read"))
        cfg = _write_config(tmp_path, **{section: {key: value}})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), command]) == 1
        err = capsys.readouterr().err
        assert f"{section}.{key} must be" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_fractional_reference_sensor_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, sensors={"reference_idx": 0.7})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert "sensors.reference_idx must be an integer, got 0.7" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_leg_sigma_key_rejected(self, tmp_path, capsys):
        legs = [dict(LEGS[0], sigmas={"acel": 0.3}), *LEGS[1:]]
        cfg = _write_config(tmp_path, sim={"legs": legs})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), "simulate"]) == 1
        assert "unknown sigma keys: ['acel']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestTrack:
    def _simulate(self, tmp_path, **overrides):
        cfg = _write_config(tmp_path, **overrides)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "data"), "simulate"]) == 0
        return cfg

    def test_full_pipeline(self, tmp_path):
        cfg = self._simulate(tmp_path)
        run = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(run), "track"]) == 0
        for name in ("track.csv", "report.csv", "cdf_rf.csv", "cdf_ekf.csv",
                     "resolved_config.json", "summary.json"):
            assert (run / name).exists()
        summary = json.loads((run / "summary.json").read_text())
        assert summary["errors"] == 0
        assert summary["n_segments_tracked"] == 3
        with open(run / "report.csv") as f:
            rows = list(csv.DictReader(f))
        assert {r["segment"] for r in rows} == {"S1", "S2", "S3"}
        assert {r["stat"] for r in rows} == {"min", "max", "mean", "std"}

    def test_raw_flag_keeps_outliers(self, tmp_path):
        cfg = self._simulate(tmp_path, sim={"outlier_rate": 0.2, "outlier_max_m": 200.0, "seed": 3})
        main(["--config", str(cfg), "--out", str(tmp_path / "raw"), "track", "--raw"])
        main(["--config", str(cfg), "--out", str(tmp_path / "clean"), "track"])

        def max_err(p):
            with open(p) as f:
                return max(float(r["error_m"]) for r in csv.DictReader(f))

        raw_max = max_err(tmp_path / "raw/cdf_rf.csv")
        clean_max = max_err(tmp_path / "clean/cdf_rf.csv")
        assert raw_max > clean_max
        assert clean_max <= 60.0

    def test_segments_count_kept_epochs(self, tmp_path):
        # at 2 us timing jitter some epochs are dropped; each segment still
        # holds exactly the RF fixes of its leg, so track runs on the outputs
        cfg = self._simulate(tmp_path, sim={"sigma_t": 2e-6, "rf_interval_ms": 100})
        assert json.loads((tmp_path / "data/summary.json").read_text())["dropped_epochs"] > 0
        with open(tmp_path / "data/rf.csv") as f:
            rf_t = [int(r["t_ms"]) for r in csv.DictReader(f)]
        segs = json.loads((tmp_path / "data/segments.json").read_text())
        ends_ms = np.cumsum([1000 * leg["duration_s"] for leg in LEGS]).tolist()
        assert [s["id"] for s in segs] == ["S1", "S2", "S3"]
        assert [s["start_idx"] for s in segs] == [0] + [s["end_idx"] + 1 for s in segs[:-1]]
        assert segs[-1]["end_idx"] == len(rf_t) - 1
        for seg, after_ms, end_ms in zip(segs, [-1] + ends_ms[:-1], ends_ms):
            assert after_ms < rf_t[seg["start_idx"]] and rf_t[seg["end_idx"]] <= end_ms
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "track"]) == 0

    def test_missing_segments_file_names_path(self, tmp_path, capsys):
        cfg = self._simulate(tmp_path)
        (tmp_path / "data/segments.json").unlink()
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "track"]) == 1
        assert "segments.json" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        cfg = self._simulate(tmp_path)
        main(["--config", str(cfg), "--out", str(tmp_path / "r1"), "track"])
        main(["--config", str(cfg), "--out", str(tmp_path / "r2"), "track"])
        assert _read_bytes(tmp_path / "r1") == _read_bytes(tmp_path / "r2")

    def test_skipped_segment_warns_once(self, tmp_path, caplog):
        cfg = self._simulate(tmp_path)
        seg_path = tmp_path / "data/segments.json"
        segs = json.loads(seg_path.read_text())
        segs[0]["end_idx"] = segs[0]["start_idx"]  # S1 keeps one pair
        seg_path.write_text(json.dumps(segs))
        run = tmp_path / "run"
        with caplog.at_level(logging.WARNING):
            assert main(["--config", str(cfg), "--out", str(run), "track"]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and "S1" in warnings[0]
        summary = json.loads((run / "summary.json").read_text())
        assert summary["warnings"] == 1
        assert summary["n_segments_tracked"] == 2

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan"])
    def test_bad_threshold_rejected(self, tmp_path, capsys, threshold):
        cfg = self._simulate(tmp_path)
        args = ["--config", str(cfg), "--out", str(tmp_path / "run"), f"--threshold-m={threshold}"]
        assert main(args + ["track"]) == 1
        assert "threshold_m must be positive" in capsys.readouterr().err

    def test_duplicate_segment_id_rejected_before_tracking(self, tmp_path, capsys):
        cfg = self._simulate(tmp_path)
        _rename_segment(tmp_path / "data/segments.json", "S3", "S1")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "track"]) == 1
        assert "duplicate segment id 'S1'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_no_aligned_pairs_exit(self, tmp_path, capsys):
        cfg = self._simulate(tmp_path)
        _shift_log(tmp_path / "data/rf.csv", 50)  # halfway between two truth samples
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "track"]) == 1
        assert "no aligned pairs: timestamps never match within tolerance" in capsys.readouterr().err

    @staticmethod
    def _fail_on_log_read(monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("logs read for a filter setting that cannot track")

        monkeypatch.setattr(dataio, "parse_position_log", fail)

    @pytest.mark.parametrize("key, value", [("accel_var", -25), ("omega_var", -0.01), ("v_max", float("nan"))])
    def test_bad_filter_prior_rejected(self, tmp_path, capsys, monkeypatch, key, value):
        self._fail_on_log_read(monkeypatch)
        cfg = _write_config(tmp_path, filter={key: value})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "track"]) == 1
        assert f"{key} must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_r_mode_rejected_before_reading_logs(self, tmp_path, capsys, monkeypatch):
        # argparse's choices check only the --r-mode flag, not the config
        self._fail_on_log_read(monkeypatch)
        cfg = _write_config(tmp_path, filter={"r_mode": "median"})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "track"]) == 1
        assert "unknown R mode: 'median'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flag, command, message",
        [
            ("--threshold-m=-1", ["track"], "threshold_m must be positive, got -1.0"),
            ("--threshold-m=-1", ["clean", "aligned.csv", "--output", "c.csv"], "threshold_m must be positive"),
            ("--tol-ms=-5", ["track"], "tol_ms must be >= 0, got -5"),
            ("--tol-ms=-5", ["track", "--raw"], "tol_ms must be >= 0, got -5"),
            ("--tol-ms=-5", ["evaluate", "nope.csv", "est.csv"], "tol_ms must be >= 0, got -5"),
            ("--tol-ms=-5", ["align", "--uav", "nope.csv", "--rf", "est.csv", "--output", "a.csv"],
             "tol_ms must be >= 0, got -5"),
            ("--threshold-m=-1", ["track", "--raw"], "clean.threshold_m must be positive, got -1.0"),
            (f"--tol-ms={10**30}", ["track"], "align.tol_ms is too large"),
            ("--seed=-1", ["convert", "nope.csv", "--output", "c.csv"], "sim.seed must be >= 0, got -1"),
            ("--seed=-1", ["evaluate", "nope.csv", "est.csv"], "sim.seed must be >= 0, got -1"),
        ],
        ids=["track_threshold", "clean_threshold", "track_tol", "track_raw_tol", "evaluate_tol", "align_tol",
             "track_raw_threshold", "track_int64_overflow_tol", "convert_seed", "evaluate_seed"],
    )
    def test_bad_match_setting_rejected_before_reading_logs(self, tmp_path, capsys, monkeypatch, flag, command, message):
        self._fail_on_log_read(monkeypatch)
        monkeypatch.setattr(dataio, "parse_aligned_log", lambda *a, **k: pytest.fail("aligned log read"))
        cfg = _write_config(tmp_path, paths={"truth": "nope.csv", "rf": "nope.csv"})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), flag, *command]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command", [["track"], ["evaluate", "nope.csv", "est.csv"], ["convert", "nope.csv", "--output", "c.csv"]],
        ids=["track", "evaluate", "convert"],
    )
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"filter": {"sigma_defaults": {"accel": -1.0}}}, "filter.sigma_defaults: negative noise sigma"),
            ({"origin": {"lat_deg": 200, "lon_deg": 0}}, "invalid origin: {'lat_deg': 200, 'lon_deg': 0}"),
        ],
        ids=["negative_sigma_default", "latitude_out_of_range_origin"],
    )
    def test_bad_origin_or_sigma_default_rejected_before_reading_logs(
        self, tmp_path, capsys, monkeypatch, command, overrides, message
    ):
        self._fail_on_log_read(monkeypatch)
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, **overrides)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), *command]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run").exists() and not (tmp_path / "c.csv").exists()

    def test_fractional_segment_index_rejected(self, tmp_path, capsys):
        cfg = self._simulate(tmp_path)
        seg_path = tmp_path / "data/segments.json"
        segs = json.loads(seg_path.read_text())
        segs[0]["end_idx"] += 0.9  # a truncating read would give the same segment
        seg_path.write_text(json.dumps(segs))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "track"]) == 1
        err = capsys.readouterr().err
        assert "malformed segment entry" in err and "'S1'" in err
        assert not (tmp_path / "run").exists()

    def test_tol_ms_override(self, tmp_path):
        cfg = self._simulate(tmp_path)
        _shift_log(tmp_path / "data/rf.csv", 50)
        run = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(run), "--tol-ms", "50", "track"]) == 0
        assert json.loads((run / "resolved_config.json").read_text())["align"]["tol_ms"] == 50
        assert json.loads((run / "summary.json").read_text())["n_segments_tracked"] == 3

    def test_all_pairs_removed_exit(self, tmp_path, capsys):
        cfg = self._simulate(tmp_path)
        args = ["--config", str(cfg), "--out", str(tmp_path / "run"), "--threshold-m", "1e-9", "track"]
        assert main(args) == 1
        assert "all pairs removed by cleaning: nothing to track" in capsys.readouterr().err

    def test_r_mode_override(self, tmp_path):
        cfg = self._simulate(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "mean"), "track"]) == 0
        assert main(["--config", str(cfg), "--out", str(tmp_path / "mse"), "--r-mode", "mse", "track"]) == 0
        assert json.loads((tmp_path / "mse/resolved_config.json").read_text())["filter"]["r_mode"] == "mse"
        assert (tmp_path / "mse/track.csv").read_bytes() != (tmp_path / "mean/track.csv").read_bytes()


def _rename_segment(path: Path, old: str, new: str) -> None:
    segs = json.loads(path.read_text())
    for seg in segs:
        if seg["id"] == old:
            seg["id"] = new
    path.write_text(json.dumps(segs))


def _shift_log(path: Path, dt_ms: int) -> None:
    t_ms, latlon = parse_position_log(path)
    write_position_log(path, t_ms + dt_ms, latlon)


class TestEvaluate:
    def _logs(self, tmp_path, shift=(0.0, 0.0)):
        origin = GeoPoint(35.8, -78.7)
        t_ms = [1000 * k for k in range(20)]
        truth = np.array([(35.8 + 1e-5 * k, -78.7) for k in range(20)])
        write_position_log(tmp_path / "truth.csv", t_ms, truth)
        if shift == (0.0, 0.0):
            est = truth
        else:
            from uavtrack.geodesy import from_enu_array, to_enu_array

            est = from_enu_array(to_enu_array(truth, origin) + shift, origin)
        write_position_log(tmp_path / "est.csv", t_ms, est)

    def test_identical_logs_zero_stats(self, tmp_path):
        self._logs(tmp_path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "evaluate", str(tmp_path / "truth.csv"), str(tmp_path / "est.csv")]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["max_m"] < 1e-6

    def test_shifted_logs(self, tmp_path):
        self._logs(tmp_path, shift=(3.0, 4.0))
        out = tmp_path / "out"
        assert main(["--out", str(out), "evaluate", str(tmp_path / "truth.csv"), str(tmp_path / "est.csv")]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["mean_m"] == pytest.approx(5.0, abs=1e-3)
        assert stats["std_m"] == pytest.approx(0.0, abs=1e-3)

    def _simulate(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "data"), "simulate"]) == 0
        return [str(tmp_path / "data" / name) for name in ("truth.csv", "rf.csv", "segments.json")]

    def test_segments_write_segment_stats(self, tmp_path):
        truth, rf, segments = self._simulate(tmp_path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "evaluate", truth, rf, "--segments", segments]) == 0
        assert json.loads((out / "summary.json").read_text())["n_segments"] == 3
        with open(out / "segment_stats.csv") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == ["segment", "mm", "stat", "value_m"]
        assert [(r["segment"], r["mm"], r["stat"]) for r in rows] == [
            (sid, mm, stat) for sid, mm in (("S1", "CT"), ("S2", "CV"), ("S3", "CA"))
            for stat in ("min", "max", "mean", "std")
        ]
        # the segments cover every epoch, so their extremes are the flight's
        stats = json.loads((out / "stats.json").read_text())
        value = {(r["segment"], r["stat"]): float(r["value_m"]) for r in rows}
        assert min(value[s, "min"] for s in ("S1", "S2", "S3")) == pytest.approx(stats["min_m"], abs=1e-4)
        assert max(value[s, "max"] for s in ("S1", "S2", "S3")) == pytest.approx(stats["max_m"], abs=1e-4)

    def test_duplicate_segment_id_rejected(self, tmp_path, capsys):
        truth, rf, segments = self._simulate(tmp_path)
        _rename_segment(Path(segments), "S2", "S1")
        out = tmp_path / "out"
        assert main(["--out", str(out), "evaluate", truth, rf, "--segments", segments]) == 1
        assert "duplicate segment id 'S1'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_aligned_pairs_exit(self, tmp_path, capsys):
        self._logs(tmp_path)
        _shift_log(tmp_path / "est.csv", 500)
        logs = [str(tmp_path / "truth.csv"), str(tmp_path / "est.csv")]
        assert main(["--out", str(tmp_path / "out"), "evaluate", *logs]) == 1
        assert "no aligned pairs between truth and estimate logs" in capsys.readouterr().err


class TestTruthGap:
    """Segment indices count RF-log rows, so a fix left without truth moves only its own segment."""

    def _runs(self, tmp_path, truth: Path, segments: Path) -> Path:
        data = json.loads((tmp_path / "config.json").read_text())
        data["paths"].update(truth=str(truth), segments=str(segments))
        cfg = truth.parent / "config.json"
        cfg.write_text(json.dumps(data))
        assert main(["--config", str(cfg), "--out", str(truth.parent / "track"), "track"]) == 0
        rf = str(tmp_path / "data/rf.csv")
        assert main(["--out", str(truth.parent / "eval"), "evaluate", str(truth), rf, "--segments", str(segments)]) == 0
        return truth.parent

    @staticmethod
    def _rows(path: Path, fields=("segment", "mm", "stat", "rf_m")) -> list:
        with open(path) as f:
            return [[r[k] for k in fields] for r in csv.DictReader(f)]

    def test_truth_gap_moves_only_its_segment(self, tmp_path, caplog):
        cfg = _write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "data"), "simulate"]) == 0
        data = tmp_path / "data"
        rf_t, _ = parse_position_log(data / "rf.csv")
        gap_row = int(np.searchsorted(rf_t, 5000))
        segs = json.loads((data / "segments.json").read_text())
        assert rf_t[gap_row] == 5000 and segs[0]["start_idx"] < gap_row < segs[0]["end_idx"]  # inside S1
        t_ms, latlon = parse_position_log(data / "truth.csv")
        (tmp_path / "gap").mkdir()
        write_position_log(tmp_path / "gap/truth.csv", t_ms[t_ms != 5000], latlon[t_ms != 5000])

        full = self._runs(tmp_path, data / "truth.csv", data / "segments.json")
        gap = self._runs(tmp_path, tmp_path / "gap/truth.csv", data / "segments.json")
        assert json.loads((gap / "track/summary.json").read_text())["n_segments_tracked"] == 3
        full_report, gap_report = self._rows(full / "track/report.csv"), self._rows(gap / "track/report.csv")
        assert gap_report[4:] == full_report[4:] and gap_report[:4] != full_report[:4]  # S1 first
        full_stats = (full / "eval/segment_stats.csv").read_bytes().splitlines()
        gap_stats = (gap / "eval/segment_stats.csv").read_bytes().splitlines()
        assert gap_stats[5:] == full_stats[5:] and gap_stats[:5] != full_stats[:5]  # header and S1 first

        # a segment holding only the unmatched fix has no pairs in either command
        segs[0]["end_idx"] = gap_row - 1
        segs.insert(1, dict(segs[0], id="G", start_idx=gap_row, end_idx=gap_row))
        (tmp_path / "gap/segments.json").write_text(json.dumps(segs))
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            split = self._runs(tmp_path, tmp_path / "gap/truth.csv", tmp_path / "gap/segments.json")
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ["segment G: too few pairs, skipped", "segment G: no aligned pairs, skipped"]
        assert [r[0] for r in self._rows(split / "eval/segment_stats.csv", ["segment"])][::4] == ["S1", "S2", "S3"]


def test_main_leaves_root_handlers_unchanged(tmp_path):
    write_position_log(tmp_path / "truth.csv", [1000 * k for k in range(3)], [(35.8, -78.7)] * 3)
    args = ["convert", str(tmp_path / "truth.csv"), "--output", str(tmp_path / "local.csv")]
    main(args)  # the first call may install the basicConfig handler
    before = list(logging.getLogger().handlers)
    assert main(args) == 0
    assert main(args) == 0
    assert logging.getLogger().handlers == before


class TestUtilities:
    def test_convert(self, tmp_path):
        write_position_log(tmp_path / "truth.csv", [1000 * k for k in range(5)],
                           [(35.8 + 1e-5 * k, -78.7) for k in range(5)])
        out = tmp_path / "local.csv"
        assert main(["convert", str(tmp_path / "truth.csv"), "--output", str(out)]) == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert float(rows[0]["x"]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[1]["y"]) == pytest.approx(1.11, abs=0.01)

    def test_align_and_clean(self, tmp_path):
        write_position_log(tmp_path / "truth.csv", [1000 * k for k in range(10)],
                           [(35.8 + 1e-5 * k, -78.7) for k in range(10)])
        write_position_log(tmp_path / "est.csv", [1000 * k for k in range(0, 10, 2)],
                           [(35.8 + 1e-5 * k, -78.7 + 1e-3) for k in range(0, 10, 2)])
        aligned = tmp_path / "aligned.csv"
        assert main(["align", "--uav", str(tmp_path / "truth.csv"), "--rf", str(tmp_path / "est.csv"),
                     "--output", str(aligned)]) == 0
        with open(aligned) as f:
            n_aligned = sum(1 for _ in f) - 1
        assert n_aligned == 5
        cleaned = tmp_path / "cleaned.csv"
        # the ~90 m lon offset exceeds the 60 m default threshold
        assert main(["clean", str(aligned), "--output", str(cleaned)]) == 0
        with open(cleaned) as f:
            assert sum(1 for _ in f) - 1 == 0

    def test_clean_custom_threshold(self, tmp_path):
        self_test = TestUtilities()
        write_position_log(tmp_path / "t.csv", [1000 * k for k in range(3)], [(35.8, -78.7)] * 3)
        # duplicate timestamps collapse; just check the flag plumbs through
        aligned = tmp_path / "a.csv"
        aligned.write_text("t_ms,uav_x,uav_y,rf_x,rf_y\n0,0,0,50,0\n1000,0,0,70,0\n")
        out = tmp_path / "c.csv"
        assert main(["--threshold-m", "80", "clean", str(aligned), "--output", str(out)]) == 0
        with open(out) as f:
            assert sum(1 for _ in f) - 1 == 2

    @pytest.mark.parametrize(
        "text, where",
        [
            ("t_ms,uav_x,uav_y,rf_x\n0,0,0,50\n", ":1: expected header"),
            ("t_ms,uav_x,uav_y,rf_x,rf_y\n0,0,0,50,0\n1000,0,0,x70,0\n", ":3: could not convert"),
            ("t_ms,uav_x,uav_y,rf_x,rf_y\n0,0,0,50,0\n1000,0,0,70\n", ":3: expected 5 fields"),
            ("t_ms,uav_x,uav_y,rf_x,rf_y\n0,0,0,50,0\n1000,nan,0,70,0\n", ":3: non-finite ENU coordinate: (nan, 0.0)"),
            ("t_ms,uav_x,uav_y,rf_x,rf_y\n0,0,0,50,0\n9223372036854775808,0,0,70,0\n", ":3: timestamp 9223372036854775808 outside the int64 range"),
        ],
        ids=["missing_column", "non_numeric_field", "short_row", "non_finite_coordinate", "timestamp_past_int64"],
    )
    def test_clean_malformed_aligned_csv_names_line(self, tmp_path, capsys, text, where):
        aligned = tmp_path / "a.csv"
        aligned.write_text(text)
        out = tmp_path / "c.csv"
        assert main(["clean", str(aligned), "--output", str(out)]) == 1
        assert f"{aligned}{where}" in capsys.readouterr().err
        assert not out.exists()


class TestProcessEntry:
    """``python -m uavtrack.cli`` and the ``uavtrack`` script run :func:`cli.entry` in a fresh process."""

    @staticmethod
    def _run(tmp_path, *args):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", "uavtrack.cli", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_bad_config_exits_1_with_the_error_on_stderr(self, tmp_path):
        cfg = _write_config(tmp_path, sim={"rf_interval_ms": 0})
        proc = self._run(tmp_path, "--config", str(cfg), "--out", str(tmp_path / "x"), "simulate")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: sim.rf_interval_ms must be positive, got 0\n"
        assert not (tmp_path / "x").exists()

    def test_outputs_match_in_process_main(self, tmp_path):
        cfg = _write_config(tmp_path)
        data = tmp_path / "data"
        commands = {
            "sim": ["simulate"],
            "track": ["track"],
            "eval": ["evaluate", str(data / "truth.csv"), str(data / "rf.csv"), "--segments", str(data / "segments.json")],
        }
        assert main(["--config", str(cfg), "--out", str(data), "simulate"]) == 0
        for name, command in commands.items():
            proc = self._run(tmp_path, "--config", str(cfg), "--out", str(tmp_path / "proc" / name), *command)
            assert proc.returncode == 0, proc.stderr
            if name != "sim":
                assert main(["--config", str(cfg), "--out", str(tmp_path / "main" / name), *command]) == 0
            expected = data if name == "sim" else tmp_path / "main" / name
            assert _read_bytes(tmp_path / "proc" / name) == _read_bytes(expected)

    def test_entry_freezes_the_heap_and_exits_with_the_code_of_main(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, sim={"rf_interval_ms": 0})
        monkeypatch.setattr(sys, "argv", ["uavtrack", "--config", str(cfg), "simulate"])
        assert gc.get_freeze_count() == 0
        try:
            with pytest.raises(SystemExit) as exit_info:
                cli.entry()
            assert exit_info.value.code == 1 and gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
