"""Pipeline benchmark: simulate, track and evaluate one generated flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload config is drawn from
the seed (see workloads.py); the program only sees that config. Every
command runs in a fresh, single-threaded interpreter, one at a time, and
every run of a command is checked (exit code, summary counts, outputs
byte-identical to its first run, finite accuracy). See README.md for the
metrics. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import workloads
from traced_cli import LAYERS

HERE = Path(__file__).resolve().parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 9
HARD_LIMIT_S = 170.0  # every child is killed after this, so a run ends within 180 s
PASS = ["simulate", "track", "track", "evaluate"]
SETUP_SNIPPET = (
    "import sys, uavtrack.cli\n"
    "from uavtrack.config import RunConfig\n"
    "RunConfig.load(sys.argv[1])\n"
)


class Child(NamedTuple):
    """Outcome of one child process."""

    wall_s: float
    rss_mb: float
    rc: int


class Bench:
    def __init__(self, work: Path, env: dict, expected: dict, deadline: float):
        self.work, self.env, self.expected, self.deadline = work, env, expected, deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict] = {}  # command -> first run's output hashes
        self.n_runs: dict[str, int] = {}

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str]) -> Child:
        """Run ``argv`` in the work dir; wall time and peak RSS via wait4."""
        with open(self.work / "children.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        finished = False
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                timeout = max(0.0, self.deadline - time.monotonic())
                finished = bool(select.select([fd], [], [], timeout)[0])
            finally:
                os.close(fd)
        finally:
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall_s, usage.ru_maxrss / 1024.0, proc.returncode)

    def cli_args(self, command: str, out: str) -> list[str]:
        args = ["--config", "run.json", "--out", out, command]
        if command == "evaluate":
            args += ["data/truth.csv", "data/rf.csv"]
        return args

    def run_command(self, command: str, trace: int | None = None) -> tuple[Child, Path]:
        """One checked run of ``command``; ``trace`` selects the in-process runner."""
        i = self.n_runs[command] = self.n_runs.get(command, 0) + 1
        out = "data" if command == "simulate" else f"{command}{i}"
        if trace is None:
            argv = [sys.executable, "-m", "uavtrack.cli"]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), f"{out}.npz"]
            argv += ["--trace", "--"] if trace else ["--"]
        child = self.spawn(argv + self.cli_args(command, out))
        self.check(command, child, self.work / out)
        if command != "simulate":
            shutil.rmtree(self.work / out, ignore_errors=True)
        return child, self.work / f"{out}.npz"

    # -- output checks -----------------------------------------------------

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.problems.append(msg)

    def check(self, command: str, child: Child, out: Path) -> None:
        exp = self.expected
        self.attempted += 1
        if command == "simulate":
            self.attempted += exp["n_rf"]
        elif command == "track":
            self.attempted += exp["n_segments"]
        if child.rc != 0:
            self.fail(f"{command}: exit code {child.rc}")
            return
        summary = json.loads((out / "summary.json").read_text())
        if command == "simulate":
            want = {"n_truth": exp["n_truth"], "n_rf": exp["n_rf"], "n_segments": exp["n_segments"]}
            for _ in range(int(summary["dropped_epochs"])):
                self.fail("simulate: dropped epoch")
        elif command == "track":
            want = {"k_aligned": exp["n_rf"]}
            for _ in range(exp["n_segments"] - int(summary["n_segments_tracked"])):
                self.fail("track: skipped segment")
        else:
            want = {"k_aligned": exp["n_rf"]}
        for key, value in want.items():
            if summary.get(key) != value:
                self.fail(f"{command}: summary {key}={summary.get(key)}, expected {value}")
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        first = self.reference.setdefault(command, hashes)
        if hashes != first:
            self.fail(f"{command}: outputs differ from its first run")
        if command == "track":
            self.ekf_err = _cdf_mean(out / "cdf_ekf.csv")
            if not (math.isfinite(self.ekf_err) and self.ekf_err > 0):
                self.fail(f"track: EKF mean error {self.ekf_err}")
            rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
            self.ekf_worse = sum(1 for r in rows if r[2] == "mean" and r[5] == "rf")
        if command == "evaluate":
            self.rf_err = float(json.loads((out / "stats.json").read_text())["mean_m"])
            if not (math.isfinite(self.rf_err) and self.rf_err > 0):
                self.fail(f"evaluate: RF mean error {self.rf_err}")
        if command == "simulate":
            self.sim_summary = summary
        if command == "track":
            self.track_summary = summary


def _cdf_mean(path: Path) -> float:
    """Mean error from a staircase CDF file (error_m, cumulative fraction)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return float(np.sum(data[:, 0] * np.diff(data[:, 1], prepend=0.0)))


def _env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(bench: Bench) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and loads the config."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, "run.json"]
    bench.spawn(argv)  # compiles bytecode on a fresh checkout; not timed
    walls = []
    for _ in range(SETUP_REPEATS):
        child = bench.spawn(argv)
        bench.attempted += 1
        if child.rc != 0:
            bench.fail(f"setup: exit code {child.rc}")
        walls.append(child.wall_s)
    return statistics.median(walls)


def run_untraced(bench: Bench, seconds: float) -> dict:
    """Cycle through the pipeline until ``seconds`` run out, at least one full pass."""
    t_start = time.monotonic()
    samples: dict[str, list[Child]] = {"simulate": [], "track": [], "evaluate": []}
    for command in PASS:
        samples[command].append(bench.run_command(command)[0])
        if bench.failed:
            return samples
    while True:
        ran = False
        for command in PASS:
            expected = max(c.wall_s for c in samples[command])
            if time.monotonic() - t_start + expected > seconds:
                continue
            samples[command].append(bench.run_command(command)[0])
            ran = True
            if bench.failed:
                return samples
        if not ran:
            return samples


def layer_metrics(bench: Bench, traced: dict[str, Path], untraced_wall: dict[str, float]) -> dict:
    """Per-layer self time and counts from the spans of one traced pass."""
    self_s = {layer: 0.0 for layer in ["cli"] + LAYERS}
    calls = {layer: 0 for layer in self_s}
    fixes = unconverged = 0
    steps = {"CV": 0, "CA": 0, "CT": 0}
    step_s = {"CV": 0.0, "CA": 0.0, "CT": 0.0}
    wall = 0.0
    for command, path in traced.items():
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            layer, parent, t0, t1 = z["layer"], z["parent"], z["t0"], z["t1"]
        dur = t1 - t0
        child_s = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child_s, parent[nested], dur[nested])
        own = np.bincount(layer, weights=dur - child_s, minlength=len(meta["layers"]))
        for i, name in enumerate(meta["layers"]):
            self_s[name] += float(own[i])
            calls[name] += int(np.count_nonzero(layer == i))
        self_s["cli"] += meta["wall_s"] - float(dur[~nested].sum())
        split = {n: float(own[i]) for i, n in enumerate(meta["layers"]) if own[i] > 0}
        split["cli"] = meta["wall_s"] - float(dur[~nested].sum())
        print(f"# {command} self_s " + " ".join(f"{n}={v:.3f}" for n, v in sorted(split.items(), key=lambda kv: -kv[1])))
        wall += meta["wall_s"]
        fixes += meta["fixes"]
        unconverged += meta["unconverged"]
        for m in steps:
            steps[m] += meta["steps"][m]
            step_s[m] += meta["step_s"][m]
    if abs(sum(self_s.values()) - wall) > 1e-6 * max(wall, 1.0):
        bench.fail(f"trace: layer self times sum to {sum(self_s.values())}, traced wall {wall}")

    sim, trk = bench.sim_summary, bench.track_summary
    n_truth, n_rf, k_used = sim["n_truth"], sim["n_rf"], trk["k_used"]
    points = 3 * (n_truth + n_rf) + k_used  # simulate, track, evaluate + track.csv rows
    rows_in = 2 * (n_truth + n_rf)  # log rows parsed by track and evaluate
    n_steps = sum(steps.values())
    bytes_out = sum(p.stat().st_size for p in (bench.work / "data").iterdir())

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {
        "geodesy.self_s": (self_s["geodesy"], "s"),
        "geodesy.calls": (calls["geodesy"], "count"),
        "geodesy.us_per_point": (per(self_s["geodesy"], points, 1e6), "us"),
        "tdoa.self_s": (self_s["tdoa"], "s"),
        "tdoa.fixes": (fixes, "count"),
        "tdoa.ms_per_fix": (per(self_s["tdoa"], fixes, 1e3), "ms"),
        "tdoa.unconverged_frac": (per(unconverged, fixes, 1.0), "fraction"),
        "tdoa.dropped": (int(sim["dropped_epochs"]), "count"),
        "motionmodels.self_s": (self_s["motionmodels"], "s"),
        "motionmodels.calls": (calls["motionmodels"], "count"),
        "ekf.self_s": (self_s["ekf"], "s"),
        "ekf.steps": (n_steps, "count"),
        "ekf.us_per_step": (per(sum(step_s.values()), n_steps, 1e6), "us"),
        "ekf.segments_skipped": (sim["n_segments"] - trk["n_segments_tracked"], "count"),
        "ekf.err_mean_m": (bench.ekf_err, "m"),
        "ekf.segments_worse_than_rf": (bench.ekf_worse, "count"),
        "dataio.self_s": (self_s["dataio"], "s"),
        "dataio.rows_in": (rows_in, "count"),
        "dataio.us_per_row": (per(self_s["dataio"], rows_in, 1e6), "us"),
        "dataio.bytes_out": (bytes_out, "B"),
        "metrics.self_s": (self_s["metrics"], "s"),
        "metrics.calls": (calls["metrics"], "count"),
        "trajgen.self_s": (self_s["trajgen"], "s"),
        "trajgen.samples": (n_truth, "count"),
        "config.self_s": (self_s["config"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (wall / sum(untraced_wall[c] for c in traced) - 1.0, "fraction"),
    }
    for model in steps:
        m[f"ekf.us_per_step.{model}"] = (per(step_s[model], steps[model], 1e6), "us")
    return m


def run_traced(bench: Bench) -> dict:
    """One checked pass in-process untraced, then simulate/track/evaluate traced."""
    untraced_wall = {}
    for command in PASS:
        child, npz = bench.run_command(command, trace=0)
        if bench.failed:
            return {}
        with np.load(npz) as z:
            untraced_wall.setdefault(command, json.loads(str(z["meta"]))["wall_s"])
    traced = {}
    for command in ("simulate", "track", "evaluate"):
        _, traced[command] = bench.run_command(command, trace=1)
        if bench.failed:
            return {}
    return layer_metrics(bench, traced, untraced_wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "uavtrack" / "cli.py").is_file():
        print(f"error: {root} is not a uavtrack source checkout (no src/uavtrack/cli.py)", file=sys.stderr)
        return 2
    cfg = workloads.generate(args.workload, args.seed)
    cfg["paths"] = {"truth": "data/truth.csv", "rf": "data/rf.csv", "segments": "data/segments.json"}

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        (work / "run.json").write_text(json.dumps(cfg, indent=1))
        expected = workloads.expected_counts(cfg["sim"])
        bench = Bench(work, _env(root), expected, time.monotonic() + HARD_LIMIT_S)
        if args.trace:
            metrics = run_traced(bench)
        else:
            setup_s = measure_setup(bench)
            samples = run_untraced(bench, args.seconds)
            metrics = {} if bench.failed else {
                "setup_s": (setup_s, "s"),
                **{f"{c}_s": (statistics.median(x.wall_s for x in samples[c]), "s") for c in samples},
                "peak_rss_mb": (max(x.rss_mb for s in samples.values() for x in s), "MB"),
                "rf_err_mean_m": (bench.rf_err, "m"),
            }
            for c, s in samples.items():
                print(f"# {c}: {len(s)} runs, wall s " + " ".join(f"{x.wall_s:.3f}" for x in s))
        if bench.failed:
            tail = (work / "children.log").read_text(errors="replace")[-2000:]
            print(tail, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in bench.problems:
        print(f"# FAIL {msg}")
    env = {
        "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "pinned_env": PINNED_ENV,
    }
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# fail_frac {bench.failed / max(bench.attempted, 1):.6g} ({bench.failed} of {bench.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
