"""Time the fixed cost of fresh uavtrack processes of two source trees.

Usage:
    python tools/time_startup.py PARENT_SRC CHANGE_SRC [--pairs N] [--workload NAME ...]
                                 [--command simulate|track|evaluate ...]

Each argument is a checkout's ``src`` directory, the one holding the
``uavtrack`` package. The parent tree simulates each workload's seed 1
flight of ``perfbench/workloads.py`` once; both trees then run these
steps, each in a fresh interpreter with the pinned environment of
``compare_outputs``:

    bare                 python -c pass
    import numpy         python -c "import numpy"
    import uavtrack.cli  python -c "import uavtrack.cli"
    <workload> simulate  python -m uavtrack.cli --config run.json --out ... simulate
    <workload> track     python -m uavtrack.cli --config run.json --out ... track
    <workload> evaluate  python -m uavtrack.cli --config run.json --out ... evaluate sim/truth.csv sim/rf.csv

the three commands as ``perfbench/run.py`` runs them. The first two
steps run no uavtrack code: they show the noise floor. ``--command``,
which may repeat, pairs only the named commands of each workload and
none of the three import steps, so that, say, 30 pairs of
``--workload dense_segments --command track`` run that one step. One
untimed round compiles the bytecode first. In each pair every step runs
once per tree, the parent first in even pairs and the change first in
odd ones.

Prints, per step, each tree's median wall time and quartiles (ms), the
median over pairs of the change's time over the parent's, and in how many
pairs the change was faster. Then, per step, each tree's median and
maximum peak RSS (MB): the child's ``ru_maxrss`` from ``os.wait4``. On
Linux that reading includes the RSS this runner held when it spawned the
child, so the runner prints its own ``ru_maxrss`` as the floor: a child's
reading at or below it is not the child's own. It is a report, not a
gate: it exits 0 unless a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from compare_outputs import flight_config, package_root, tree_env

IMPORTS = {"bare": "pass", "import numpy": "import numpy", "import uavtrack.cli": "import uavtrack.cli"}
SEED = 1  # of every workload's flight
COMMANDS = {
    "simulate": ["simulate"],
    "track": ["track"],
    "evaluate": ["evaluate", "sim/truth.csv", "sim/rf.csv"],
}


def steps(workloads: list[str], commands: list[str] | None, flights: Path) -> dict[str, tuple[list[str], Path]]:
    """Each step's interpreter arguments and work directory: the import steps and every command,
    or only ``commands``."""
    out = {} if commands else {name: (["-c", code], flights) for name, code in IMPORTS.items()}
    for workload in workloads:
        for command, args in COMMANDS.items():
            if commands and command not in commands:
                continue
            argv = ["-m", "uavtrack.cli", "--config", "run.json", "--out", f"out_{command}", *args]
            out[f"{workload} {command}"] = (argv, flights / workload)
    return out


def timed(src: Path, argv: list[str], cwd: Path) -> tuple[float, float]:
    """Wall time (s) and peak RSS (MB) of one fresh interpreter running ``argv`` in ``cwd``."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=tree_env(src), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"error: {' '.join(argv)} failed in {src}:\n{err.read().decode()}")
    return wall, usage.ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--pairs", type=int, default=30, help="alternating parent/change rounds")
    parser.add_argument("--workload", nargs="+", default=["tdoa_loiter", "dense_segments"])
    parser.add_argument("--command", action="append", choices=list(COMMANDS),
                        help="pair only this command's steps (repeatable); default: the import steps and all three")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": package_root(args.parent_src), "change": package_root(args.change_src)}

    with tempfile.TemporaryDirectory(prefix="time_startup-") as tmp:
        flights = Path(tmp)
        for workload in args.workload:
            (flights / workload).mkdir()
            (flights / workload / "run.json").write_text(json.dumps(flight_config(workload, SEED), indent=1))
            timed(trees["parent"], ["-m", "uavtrack.cli", "--config", "run.json", "--out", "sim", "simulate"],
                  flights / workload)
        plan = steps(args.workload, args.command, flights)
        for src in trees.values():  # compiles each tree's bytecode; not timed
            for argv, cwd in plan.values():
                timed(src, argv, cwd)
        times = {side: {step: [] for step in plan} for side in trees}
        rss = {side: {step: [] for step in plan} for side in trees}
        for i in range(args.pairs):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for step, (argv, cwd) in plan.items():
                for side in sides:
                    wall, peak = timed(trees[side], argv, cwd)
                    times[side][step].append(wall)
                    rss[side][step].append(peak)
            print(f"# pair {i + 1} of {args.pairs} done", file=sys.stderr)

    print(f"wall ms of fresh processes, {args.pairs} pairs, seed {SEED}")
    print(f"{'step':<26} {'parent median [q1, q3]':>24} {'change median [q1, q3]':>24} {'change/parent':>14} "
          f"{'change faster':>14}")
    for step in plan:
        p, c = (np.array(times[side][step]) * 1000.0 for side in ("parent", "change"))
        cells = [f"{np.median(x):6.1f} [{np.quantile(x, 0.25):.1f}, {np.quantile(x, 0.75):.1f}]" for x in (p, c)]
        ratio = f"{np.median(c / p):.3f}"
        print(f"{step:<26} {cells[0]:>24} {cells[1]:>24} {ratio:>14} {f'{int(np.sum(c < p))} of {len(p)}':>14}")

    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"\npeak RSS MB of fresh processes (ru_maxrss from os.wait4); floor, this runner's own: {floor:.2f}")
    print(f"{'step':<26} {'parent median / max':>24} {'change median / max':>24} {'change - parent':>16}")
    for step in plan:
        p, c = (np.array(rss[side][step]) for side in ("parent", "change"))
        cells = [f"{np.median(x):.2f} / {np.max(x):.2f}" for x in (p, c)]
        print(f"{step:<26} {cells[0]:>24} {cells[1]:>24} {np.median(c) - np.median(p):>+16.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
