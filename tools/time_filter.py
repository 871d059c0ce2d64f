"""Time in-process ``ekf.filter_segments`` of two uavtrack source trees.

Usage:
    python tools/time_filter.py PARENT_SRC CHANGE_SRC [--pairs N]

Each argument is a checkout's ``src`` directory, the one holding the
``uavtrack`` package. For every benchmark flight of
``perfbench/workloads.py`` (all three workloads, seeds 1-3) the parent
tree runs ``simulate`` once; both trees then filter that same flight.

One pair is two fresh processes, one per tree, in alternating order
(parent first in even pairs, change first in odd ones). Each process runs
``track`` in-process on every flight once, untimed, keeping the arguments
it passed to ``ekf.filter_segments``; it then calls ``filter_segments``
``REPEATS`` times on them and reports the median wall time per flight.

Prints, per flight, each tree's median and quartiles over the pairs (in
ms) and in how many pairs the change was faster. It is a report, not a
gate: it always exits 0 unless a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from compare_outputs import flight_config, package_root, tree_env, workloads

SEEDS = (1, 2, 3)
REPEATS = 5  # filter_segments calls per flight and process


def worker(flights_dir: str) -> None:
    """Print ``{flight: median seconds of filter_segments}`` as JSON, run inside one tree."""
    from uavtrack import cli, ekf

    filter_segments = ekf.filter_segments
    medians = {}
    for work in sorted(Path(flights_dir).iterdir()):
        captured = []

        def keep(*args, **kwargs):
            captured.append((args, kwargs))
            return filter_segments(*args, **kwargs)

        ekf.filter_segments = keep
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with tempfile.TemporaryDirectory(prefix="time_filter-") as out:
                if cli.main(["--config", "run.json", "--out", out, "track"]) != 0:
                    raise SystemExit(f"error: track failed on {work.name}")
        finally:
            os.chdir(cwd)
            ekf.filter_segments = filter_segments
        (args, kwargs), = captured
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            filter_segments(*args, **kwargs)
            times.append(time.perf_counter() - t0)
        medians[work.name] = float(np.median(times))
    print(json.dumps(medians))


def run_tree(src: Path, flights: Path) -> dict[str, float]:
    argv = [sys.executable, __file__, "--worker", str(flights)]
    proc = subprocess.run(argv, env=tree_env(src), stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: timing run of {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def simulate(src: Path, flights: Path) -> None:
    argv = [sys.executable, "-m", "uavtrack.cli", "--config", "run.json", "--out", "sim", "simulate"]
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            work = flights / f"{name}-{seed}"
            work.mkdir(parents=True)
            (work / "run.json").write_text(json.dumps(flight_config(name, seed), indent=1))
            subprocess.run(argv, cwd=work, env=tree_env(src), stdin=subprocess.DEVNULL, capture_output=True, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", nargs="?")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("--pairs", type=int, default=10, help="alternating parent/change process pairs")
    parser.add_argument("--worker", metavar="FLIGHTS_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if args.parent_src is None or args.change_src is None:
        parser.error("PARENT_SRC and CHANGE_SRC are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": package_root(args.parent_src), "change": package_root(args.change_src)}

    times: dict[str, dict[str, list[float]]] = {side: {} for side in trees}
    with tempfile.TemporaryDirectory(prefix="time_filter-") as tmp:
        flights = Path(tmp)
        simulate(trees["parent"], flights)
        for i in range(args.pairs):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in sides:
                for flight, t in run_tree(trees[side], flights).items():
                    times[side].setdefault(flight, []).append(t)
            print(f"# pair {i + 1} of {args.pairs} done", file=sys.stderr)

    print(f"filter_segments ms, {args.pairs} pairs, median of {REPEATS} calls per process")
    print(f"{'flight':<18} {'parent median [q1, q3]':>26} {'change median [q1, q3]':>26} {'change faster':>14}")
    for flight in sorted(times["parent"]):
        p, c = (np.array(times[side][flight]) * 1000.0 for side in ("parent", "change"))
        cells = [f"{np.median(x):8.2f} [{np.quantile(x, 0.25):.2f}, {np.quantile(x, 0.75):.2f}]" for x in (p, c)]
        print(f"{flight:<18} {cells[0]:>26} {cells[1]:>26} {f'{int(np.sum(c < p))} of {len(p)}':>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
