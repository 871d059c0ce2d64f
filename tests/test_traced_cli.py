"""The import contract of ``perfbench/traced_cli.py``.

After ``import uavtrack.cli`` the traced runner reads
``sys.modules["uavtrack.<layer>"]`` for each of its ``LAYERS``, so that
import has to load every layer module eagerly.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_every_traced_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from traced_cli import LAYERS

    # a fresh interpreter: this one has imported every module already
    code = (
        f"import json, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import uavtrack.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = json.loads(child.stdout)
    assert LAYERS
    assert [layer for layer in LAYERS if f"uavtrack.{layer}" not in loaded] == []
