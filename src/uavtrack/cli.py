"""Command-line pipelines: simulate, track, evaluate, align, clean, convert.

Every command is driven by a JSON config (plus flag overrides), writes
deterministic outputs for a fixed seed, and echoes the resolved config
and a machine-readable summary into the output directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import config, dataio, ekf, metrics, tdoa, trajgen
from .config import ConfigError, RunConfig
from .dataio import Segment
from .geodesy import EnuPoint, GeoPoint, from_enu_array, to_enu_array
from .motionmodels import ModelKind, NoiseSigmas

log = logging.getLogger("uavtrack")


class RunError(RuntimeError):
    pass


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _aligned_pairs(
    cfg: RunConfig, uav_path, rf_path
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, GeoPoint]:
    """Parse both logs, move them to the local frame and timestamp-match them.

    Returns the matched ``t_ms`` (K,), truth ``uav`` (K, 2) and ``rf`` (K, 2)
    local positions, each pair's RF-log row (K,) ascending, the RF log's
    length and the origin of the local frame.
    """
    uav_t, uav_geo = dataio.parse_position_log(uav_path)
    rf_t, rf_geo = dataio.parse_position_log(rf_path)
    origin = cfg.origin() or GeoPoint(*uav_geo[0].tolist())
    uav_xy = to_enu_array(uav_geo, origin)
    rf_xy = to_enu_array(rf_geo, origin)
    rf_idx, uav_idx = dataio.match_times(uav_t, rf_t, cfg.data["align"]["tol_ms"])
    return rf_t[rf_idx], uav_xy[uav_idx], rf_xy[rf_idx], rf_idx, len(rf_t), origin


def _write_segment_table(path, segments: list[Segment], errors, ekf_errors) -> None:
    """One row per segment and entry of ``metrics.STATS`` of each segment's ``errors``.

    ``ekf_errors`` None gives a ``value_m`` column, else ``rf_m``, ``ekf_m`` and
    ``better``, the side with the lower value (``tie`` where the two are equal).
    """
    n = len(metrics.STATS)
    ids = np.repeat([seg.id for seg in segments], n)
    mms = np.repeat([seg.mm.value for seg in segments], n)
    st = metrics.segment_stats(errors).ravel()
    if ekf_errors is None:
        header, fmt, values = ["value_m"], "%.4f", [st]
    else:
        ekf = metrics.segment_stats(ekf_errors).ravel()
        better = np.where(st == ekf, "tie", np.where(ekf < st, "ekf", "rf"))
        header, fmt, values = ["rf_m", "ekf_m", "better"], "%.4f,%.4f,%s", [st, ekf, better]
    stats = np.tile(metrics.STATS, len(segments))
    dataio.write_csv(path, ["segment", "mm", "stat", *header], "%s,%s,%s," + fmt, ids, mms, stats, *values)


def _write_cdf(path, errors: np.ndarray) -> None:
    curve = metrics.cdf(errors)
    dataio.write_csv(path, ["error_m", "fraction"], "%.6f,%.8f", curve.errors_m, curve.fractions)


# ---------------------------------------------------------------------------
# simulate


def _leg_sigmas(leg_dict: dict, leg: trajgen.LegSpec, defaults: dict) -> NoiseSigmas:
    return NoiseSigmas.from_dict({k: defaults[k] for k in leg.mm.noise_keys} | leg_dict.get("sigmas", {}))


def _segments_from_boundaries(
    boundaries, leg_dicts, step: int, defaults: dict, rows: Optional[np.ndarray] = None
) -> list[Segment]:
    """One segment per leg over the RF epochs whose truth sample lies in the leg.

    ``rows`` holds the truth-sample index of each RF epoch kept in the RF
    log, ascending; by default every ``step``-th sample is one. Segment
    indices count kept epochs, so a dropped epoch shifts no later segment.
    """
    if rows is None:
        rows = np.arange(0, boundaries[-1][2] + 1, step)
    firsts = np.searchsorted(rows, [first for _, first, _ in boundaries]).tolist()
    lasts = (np.searchsorted(rows, [last for _, _, last in boundaries], side="right") - 1).tolist()
    segments = []
    shared: dict[ModelKind, NoiseSigmas] = {}  # one immutable record per model for the legs without sigmas
    prev_end = -1
    for i, ((leg, _, _), first_rf, end_rf) in enumerate(zip(boundaries, firsts, lasts)):
        start_rf = max(prev_end + 1, first_rf)
        if end_rf < start_rf:
            log.warning("leg %d too short for a segment at the RF rate, skipped", i + 1)
            continue
        if "sigmas" in leg_dicts[i]:
            sig = _leg_sigmas(leg_dicts[i], leg, defaults)
        elif leg.mm in shared:
            sig = shared[leg.mm]
        else:
            sig = shared[leg.mm] = _leg_sigmas({}, leg, defaults)
        segments.append(Segment(f"S{i + 1}", start_rf, end_rf, leg.mm, sig))
        prev_end = end_rf
    return segments


def cmd_simulate(args, cfg: RunConfig) -> dict:
    sim = cfg.data["sim"]
    leg_dicts = sim["legs"]
    if not leg_dicts:
        raise RunError("sim.legs is empty: nothing to simulate")
    interval, dt_ms = sim["rf_interval_ms"], sim["truth_dt_ms"]
    legs = [trajgen.leg_from_dict(d) for d in leg_dicts]
    origin = cfg.sim_origin()
    arr = cfg.sensor_array(origin) if sim["noise_model"] == "tdoa" else None
    if arr is not None and len(arr.positions) < 3:  # SensorArray takes 2 for objects.simulate_tdoa
        raise RunError(f"sensors.sensors: a TDoA fix needs at least 3 sensors, got {len(arr.positions)}")

    start = EnuPoint(float(sim["start"]["x"]), float(sim["start"]["y"]))
    t_ms, xy, boundaries = trajgen.truth_columns(
        legs, start, float(sim["heading_deg"]), float(sim["speed"]), dt_ms
    )
    truth_geo = from_enu_array(xy, origin)  # fails past the 50 km limit before the RF simulation
    sigma = sim["position_sigma_m" if sim["noise_model"] == "position" else "sigma_t"]
    rf_t, rf_xy, dropped = tdoa.simulate_columns(
        t_ms, xy, sigma, sim["seed"], interval, sim["outlier_rate"], sim["outlier_max_m"], arr=arr,
    )
    rf_geo = from_enu_array(rf_xy, origin)
    segments = _segments_from_boundaries(
        boundaries, leg_dicts, interval // dt_ms, cfg.data["filter"]["sigma_defaults"], np.searchsorted(t_ms, rf_t)
    )

    args.out.mkdir(parents=True, exist_ok=True)
    dataio.write_position_log(args.out / "truth.csv", t_ms, truth_geo)
    dataio.write_position_log(args.out / "rf.csv", rf_t, rf_geo)
    dataio.write_segments(args.out / "segments.json", segments)
    dataio.write_json(args.out / "resolved_config.json", cfg.data)
    return {
        "n_truth": len(t_ms),
        "n_rf": len(rf_t),
        "n_segments": len(segments),
        "dropped_epochs": dropped,
    }


# ---------------------------------------------------------------------------
# track


def cmd_track(args, cfg: RunConfig) -> dict:
    t_ms, uav, rf, rf_rows, n_rf, origin = _aligned_pairs(cfg, cfg.input_path("truth"), cfg.input_path("rf"))
    if not t_ms.size:
        raise RunError("no aligned pairs: timestamps never match within tolerance")

    if args.raw:
        keep = np.ones(t_ms.size, dtype=bool)
    else:
        keep = dataio.kept_mask(uav, rf, cfg.data["clean"]["threshold_m"])
    t_ms, uav, rf, rf_rows = t_ms[keep], uav[keep], rf[keep], rf_rows[keep]
    if not rf_rows.size:
        raise RunError("all pairs removed by cleaning: nothing to track")

    segments = dataio.load_segments(cfg.input_path("segments"), K=n_rf)
    fcfg = cfg.data["filter"]
    R = ekf.estimate_R_arrays(uav, rf, fcfg["r_mode"])
    filter_cfg = ekf.FilterConfig(R, fcfg["v_max"], fcfg["accel_var"], fcfg["omega_var"])
    tracks, warnings = ekf.filter_segments(segments, t_ms, rf, rf_rows, filter_cfg)
    for w in warnings:
        log.warning("%s", w)

    # the tracked rows stacked once; both sides scored alike (a track starts at its first RF fix)
    lengths = [len(tr.states) for tr in tracks]
    rows = np.concatenate([np.arange(tr.rows.start, tr.rows.stop) for tr in tracks] + [np.empty(0, np.intp)])
    xy = np.concatenate([tr.states[:, :2] for tr in tracks] + [np.empty((0, 2))])
    all_rf = metrics.euclidean_errors(uav, rf)
    ekf_err = metrics.euclidean_errors(uav[rows], xy)
    ids = np.repeat([tr.segment.id for tr in tracks], lengths)
    latlon = from_enu_array(xy, origin)

    args.out.mkdir(parents=True, exist_ok=True)
    dataio.write_csv(
        args.out / "track.csv", ["t_ms", "segment", "x", "y", "lat_deg", "lon_deg"],
        "%s,%s,%.6f,%.6f,%.10f,%.10f", t_ms[rows], ids, *xy.T, *latlon.T,
    )
    ends = np.cumsum(lengths, dtype=np.intp)  # np.split at every end leaves one empty last piece
    _write_segment_table(
        args.out / "report.csv", [tr.segment for tr in tracks],
        np.split(all_rf[rows], ends)[:-1], np.split(ekf_err, ends)[:-1],
    )
    _write_cdf(args.out / "cdf_rf.csv", all_rf)
    if tracks:
        _write_cdf(args.out / "cdf_ekf.csv", ekf_err)
    dataio.write_json(args.out / "resolved_config.json", cfg.data)
    return {
        "raw": args.raw,
        "k_aligned": keep.size,
        "k_used": rf_rows.size,
        "n_segments_tracked": len(tracks),
    }


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args, cfg: RunConfig) -> dict:
    _, uav, est, rf_rows, n_rf, _ = _aligned_pairs(cfg, args.truth, args.estimate)
    if not len(uav):
        raise RunError("no aligned pairs between truth and estimate logs")

    errors = metrics.euclidean_errors(uav, est)
    segments = dataio.load_segments(args.segments, K=n_rf) if args.segments else []

    args.out.mkdir(parents=True, exist_ok=True)
    dataio.write_json(args.out / "stats.json", vars(metrics.stats(errors)))
    _write_cdf(args.out / "cdf.csv", errors)
    if args.segments:
        groups = [errors[rows] for rows in dataio.segment_rows(segments, rf_rows)]
        for seg, group in zip(segments, groups):
            if not group.size:
                log.warning("segment %s: no aligned pairs, skipped", seg.id)
        tabled = [seg for seg, group in zip(segments, groups) if group.size]
        _write_segment_table(args.out / "segment_stats.csv", tabled, [g for g in groups if g.size], ekf_errors=None)
    return {"k_aligned": len(errors), "n_segments": len(segments)}


# ---------------------------------------------------------------------------
# small utilities


def cmd_convert(args, cfg: RunConfig) -> dict:
    t_ms, latlon = dataio.parse_position_log(args.input)
    xy = to_enu_array(latlon, cfg.origin() or GeoPoint(*latlon[0].tolist()))
    dataio.write_csv(args.output, ["t_ms", "x", "y"], "%s,%.6f,%.6f", t_ms, *xy.T)
    return {"n": len(t_ms)}


def cmd_align(args, cfg: RunConfig) -> dict:
    t_ms, uav, rf, *_ = _aligned_pairs(cfg, args.uav, args.rf)
    dataio.write_aligned_log(args.output, t_ms, uav, rf)
    return {"n_pairs": len(t_ms)}


def cmd_clean(args, cfg: RunConfig) -> dict:
    t_ms, uav, rf = dataio.parse_aligned_log(args.input)
    keep = dataio.kept_mask(uav, rf, cfg.data["clean"]["threshold_m"])
    dataio.write_aligned_log(args.output, t_ms[keep], uav[keep], rf[keep])
    return {"n_in": len(t_ms), "n_out": int(keep.sum())}


# ---------------------------------------------------------------------------
# argument parsing and dispatch

# global flags that each replace one config value: (flag, config key, argparse options)
OVERRIDES = (
    ("--seed", "sim.seed", {"type": int}),
    ("--tol-ms", "align.tol_ms", {"type": int}),
    ("--threshold-m", "clean.threshold_m", {"type": float}),
    ("--r-mode", "filter.r_mode", {"choices": ekf.R_MODES}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavtrack",
        description="TDoA localization and segment-wise motion-model EKF tracking pipelines.",
    )
    parser.add_argument("--config", type=Path, help="JSON run configuration")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    for flag, key, options in OVERRIDES:
        parser.add_argument(flag, help=f"override {key}", **options)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="generate truth/RF logs and a segment file").set_defaults(run=cmd_simulate)

    p_track = sub.add_parser("track", help="align, clean, filter, and report")
    p_track.set_defaults(run=cmd_track)
    p_track.add_argument("--raw", action="store_true", help="skip the error-threshold cleaning step")

    p_eval = sub.add_parser("evaluate", help="metrics-only comparison of two logs")
    p_eval.set_defaults(run=cmd_evaluate)
    p_eval.add_argument("truth", type=Path)
    p_eval.add_argument("estimate", type=Path)
    p_eval.add_argument("--segments", type=Path, help="optional segment file for per-segment stats")

    p_conv = sub.add_parser("convert", help="geodetic log to local east/north CSV")
    p_conv.set_defaults(run=cmd_convert)
    p_conv.add_argument("input", type=Path)
    p_conv.add_argument("--output", type=Path, required=True)

    p_align = sub.add_parser("align", help="timestamp-match a truth log and an estimate log")
    p_align.set_defaults(run=cmd_align)
    p_align.add_argument("--uav", type=Path, required=True)
    p_align.add_argument("--rf", type=Path, required=True)
    p_align.add_argument("--output", type=Path, required=True)

    p_clean = sub.add_parser("clean", help="drop aligned pairs above the error threshold")
    p_clean.set_defaults(run=cmd_clean)
    p_clean.add_argument("input", type=Path)
    p_clean.add_argument("--output", type=Path, required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    counter = _WarningCounter()
    logging.getLogger().addHandler(counter)

    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig.from_dict({})
        for flag, key, _ in OVERRIDES:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None:
                section, name = key.split(".")
                cfg.data[section][name] = value
        config.check(cfg.data)
        summary = args.run(args, cfg)
    except (RunError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logging.getLogger().removeHandler(counter)

    summary["command"] = args.command
    summary["warnings"] = counter.count
    if args.command in ("convert", "align", "clean"):
        # utilities write one --output file and report on the log instead
        log.info("%s", json.dumps(summary, sort_keys=True))
    else:
        summary["errors"] = 0
        dataio.write_json(args.out / "summary.json", summary)
    return 0


def entry() -> None:
    """Process entry of ``python -m uavtrack.cli`` and the ``uavtrack`` script: :func:`main`,
    with the objects the imports left moved out of the garbage collector's reach first.

    ``gc.freeze`` spares every later collection, the interpreter's last passes
    at exit included, the scans of those ~22k long-lived objects. It is not in
    ``main``, which tests and in-process runners call repeatedly, nor at import.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
