"""The CLI runs on the columnar path alone: it never loads or enters ``uavtrack.objects``.

``objects`` holds the per-sample object API, which wraps the pipeline's
array kernels for callers that hold one object per sample. A command that
imported it, or reached one of its functions through some alias, would
bring the second data path back into the pipeline. The README's library
example, which uses the object API, runs here too.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from uavtrack import cli, objects

ROOT = Path(__file__).resolve().parents[1]

LEGS = [
    {"mm": "CV", "duration_s": 12, "speed": 8},
    {"mm": "CT", "duration_s": 10, "omega": 0.2},
    {"mm": "CA", "duration_s": 8, "accel": 0.5},
]
SENSORS = [{"x": -200.0, "y": -200.0}, {"x": 200.0, "y": -200.0}, {"x": -200.0, "y": 200.0}, {"x": 200.0, "y": 200.0}]
FLIGHTS = {
    "tdoa_outliers": {"sigma_t": 3.3e-9, "outlier_rate": 0.3, "outlier_max_m": 300.0},
    "position_noise": {"noise_model": "position", "position_sigma_m": 9.0},
}
# every subcommand, each as the benchmark's output comparison runs it
COMMANDS = [
    ["simulate"],
    ["track"],
    ["track", "--raw"],
    ["evaluate", "sim/truth.csv", "sim/rf.csv", "--segments", "sim/segments.json"],
    ["convert", "sim/truth.csv", "--output", "convert.csv"],
    ["align", "--uav", "sim/truth.csv", "--rf", "sim/rf.csv", "--output", "align.csv"],
    ["--tol-ms", "600", "align", "--uav", "sim/truth.csv", "--rf", "sim/rf.csv", "--output", "align_wide.csv"],
    ["clean", "align.csv", "--output", "clean.csv"],
]


def test_cli_import_does_not_load_objects():
    # a fresh interpreter: this one has imported every module already
    code = (
        f"import json, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import uavtrack.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = json.loads(child.stdout)
    assert "uavtrack.cli" in loaded
    assert "uavtrack.objects" not in loaded


def test_commands_cover_every_subcommand():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {next(arg for arg in argv if arg in sub.choices) for argv in COMMANDS} == set(sub.choices)


@pytest.mark.parametrize("flight", sorted(FLIGHTS))
def test_commands_never_enter_objects(tmp_path, monkeypatch, flight):
    config = {
        "sensors": {"sensors": SENSORS},
        "sim": {"seed": 3, "legs": LEGS, **FLIGHTS[flight]},
        "paths": {"truth": "sim/truth.csv", "rf": "sim/rf.csv", "segments": "sim/segments.json"},
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)

    objects_file, pipeline_files = Path(objects.__file__).resolve(), set()
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(str(objects_file.parent)):
                pipeline_files.add(Path(path).name)
                if Path(path).resolve() == objects_file:
                    entered.append(frame.f_code.co_name)

    codes = []
    for i, argv in enumerate(COMMANDS):
        out = "sim" if argv == ["simulate"] else f"out{i}"
        sys.setprofile(profile)
        try:
            codes.append(cli.main(["--config", "run.json", "--out", out, *argv]))
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(COMMANDS)
    # the profile saw the pipeline run: the solver or noise model, the filter and the log writer
    assert {"tdoa.py", "ekf.py", "dataio.py", "cli.py"} <= pipeline_files
    assert entered == []


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    fix = namespace["fix"]
    assert isinstance(fix, objects.TdoaFix) and fix.converged
    assert abs(fix.pos.x - 30.0) < 1.0 and abs(fix.pos.y - 40.0) < 1.0
    assert capsys.readouterr().out.startswith("EnuPoint(x=")
