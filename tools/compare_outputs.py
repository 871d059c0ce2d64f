"""List every CLI output that differs between two uavtrack source trees.

Usage:
    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a checkout's ``src`` directory, the one holding the
``uavtrack`` package. For every benchmark flight of
``perfbench/workloads.py`` (all three workloads, seeds 1 and 2) each tree
runs, in its own work directory,

    simulate
    track
    track --raw
    evaluate sim/truth.csv sim/rf.csv --segments sim/segments.json
    convert sim/truth.csv --output convert.csv
    align --uav sim/truth.csv --rf sim/rf.csv --output align.csv
    --tol-ms 600 align --uav sim/truth.csv --rf sim/rf.csv --output align_wide.csv
    clean align.csv --output clean.csv

and every file written and every stderr stream of the two trees is
compared byte for byte. Each tree tracks and evaluates its own simulated
flight. Each tree also dumps, from its own interpreter, the local truth
positions that ``simulate`` samples (``trajgen.truth_columns``' ``xy``),
and the two are compared bit for bit: ``truth.csv`` and ``rf.csv`` print
degrees to ``%.10f``, about 1e-5 m, so the byte compare cannot show a
change in the last bits of the truth. At the default 1 ms tolerance no RF window of these flights
overlaps a neighbour's, so ``align`` takes each nearest candidate
directly; at 600 ms every window overlaps, so ``align_wide.csv`` runs
every epoch through ``dataio.match_times``' nearest-unused loop.

Prints one line per difference, a summary, and each tree's line count
(as ``wc -l`` counts) of every ``uavtrack/*.py`` module and of all of
them, with the change's delta, so that the modules that shrank or grew
show; a module that one tree lacks counts 0 lines there. Exits 1 if any
output, a command's exit code or a flight's truth bits differ, else 0. A change that moves
outputs within a stated bound exits 1 too; its list of differing files is
what the bound has to account for.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from run import PINNED_ENV  # noqa: E402

COMMANDS = {
    "sim": ["simulate"],
    "track": ["track"],
    "track_raw": ["track", "--raw"],
    "evaluate": ["evaluate", "sim/truth.csv", "sim/rf.csv", "--segments", "sim/segments.json"],
    "convert": ["convert", "sim/truth.csv", "--output", "convert.csv"],
    "align": ["align", "--uav", "sim/truth.csv", "--rf", "sim/rf.csv", "--output", "align.csv"],
    "align_wide": [
        "--tol-ms", "600", "align", "--uav", "sim/truth.csv", "--rf", "sim/rf.csv", "--output", "align_wide.csv",
    ],
    "clean": ["clean", "align.csv", "--output", "clean.csv"],
}
SEEDS = (1, 2)
# the truth positions of the flight in run.json, as cli.cmd_simulate samples them, in raw bits to stdout
TRUTH_XY = (
    "import sys\n"
    "from uavtrack import trajgen\n"
    "from uavtrack.config import RunConfig\n"
    "from uavtrack.geodesy import EnuPoint\n"
    "sim = RunConfig.load('run.json').data['sim']\n"
    "legs = [trajgen.leg_from_dict(d) for d in sim['legs']]\n"
    "start = EnuPoint(float(sim['start']['x']), float(sim['start']['y']))\n"
    "xy = trajgen.truth_columns(legs, start, float(sim['heading_deg']), float(sim['speed']), sim['truth_dt_ms'])[1]\n"
    "sys.stdout.buffer.write(xy.astype('<f8').tobytes())\n"
)


def package_root(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / "uavtrack" / "cli.py").is_file():
        raise SystemExit(f"error: no uavtrack package in {path}")
    return root


def tree_env(src: Path) -> dict[str, str]:
    """The environment of a tree's commands: the pinned one, with ``src`` alone on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV, PYTHONPATH=str(src))
    return env


def flight_config(name: str, seed: int) -> dict:
    """The workload's run config, its logs under ``sim/`` of the work directory."""
    cfg = workloads.generate(name, seed)
    cfg["paths"] = {"truth": "sim/truth.csv", "rf": "sim/rf.csv", "segments": "sim/segments.json"}
    return cfg


def module_lines(root: Path) -> dict[str, int]:
    """Newlines in each of the package's modules, as ``wc -l uavtrack/*.py`` counts them."""
    return {p.name: p.read_bytes().count(b"\n") for p in (root / "uavtrack").glob("*.py")}


def run_flight(src: Path, cfg: dict, work: Path) -> dict[str, bytes]:
    """Outputs of the eight commands on one flight: relative path -> bytes.

    A command's stderr is ``<out>/stderr`` and its exit code ``<out>/exit``.
    """
    work.mkdir(parents=True)
    (work / "run.json").write_text(json.dumps(cfg, indent=1))
    env = tree_env(src)
    outputs = {}
    for out, args in COMMANDS.items():
        argv = [sys.executable, "-m", "uavtrack.cli", "--config", "run.json", "--out", out, *args]
        proc = subprocess.run(argv, cwd=work, env=env, stdin=subprocess.DEVNULL, capture_output=True)
        outputs[f"{out}/stderr"] = proc.stderr
        outputs[f"{out}/exit"] = str(proc.returncode).encode()
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != "run.json":
            outputs[path.relative_to(work).as_posix()] = path.read_bytes()
    return outputs


def truth_bits(src: Path, work: Path) -> bytes:
    """The bits of the truth ``xy`` of the flight in ``work``'s run.json, from ``src``'s interpreter."""
    argv = [sys.executable, "-c", TRUTH_XY]
    proc = subprocess.run(argv, cwd=work, env=tree_env(src), stdin=subprocess.DEVNULL, capture_output=True)
    if proc.returncode:
        raise SystemExit(f"error: the truth dump failed in {src}:\n{proc.stderr.decode()}")
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args()
    trees = {"parent": package_root(args.parent_src), "change": package_root(args.change_src)}

    n_compared, differ, n_flights, truth_differ = 0, [], 0, []
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        for name in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                cfg = flight_config(name, seed)
                flight = f"{name}-{seed}"
                parent, change = (run_flight(src, cfg, Path(tmp, side, flight)) for side, src in trees.items())
                n_flights += 1
                if len({truth_bits(src, Path(tmp, side, flight)) for side, src in trees.items()}) > 1:
                    truth_differ.append(f"{flight}/truth xy: bits differ")
                for key in sorted(parent.keys() | change.keys()):
                    n_compared += 1
                    if key not in parent or key not in change:
                        differ.append(f"{flight}/{key}: written by the {'change' if key in change else 'parent'} only")
                    elif parent[key] != change[key]:
                        differ.append(f"{flight}/{key}: differs")
                print(f"# {flight}: {len(parent)} outputs compared", file=sys.stderr)
    for line in differ + truth_differ:
        print(line)
    print(f"{len(differ)} of {n_compared} outputs differ")
    print(f"{len(truth_differ)} of {n_flights} flights' truth xy differ in bits")
    parent, change = (module_lines(root) for root in trees.values())
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name, 0), change.get(name, 0)
        print(f"uavtrack/{name} lines: parent {a}, change {b} ({b - a:+d})")
    a, b = sum(parent.values()), sum(change.values())
    print(f"uavtrack/*.py lines: parent {a}, change {b} ({b - a:+d})")
    return 1 if differ or truth_differ else 0


if __name__ == "__main__":
    sys.exit(main())
