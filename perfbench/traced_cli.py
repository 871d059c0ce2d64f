"""Run one `uavtrack` CLI command in this process, optionally traced.

    python3 perfbench/traced_cli.py OUT.npz [--trace] -- CLI_ARGS...

Always records the wall time of `uavtrack.cli.main(CLI_ARGS)`. With
`--trace`, every public function and public method of each layer module
is wrapped before the command runs, at every binding that refers to it
(the module itself, `from ... import` copies in other modules and the
package namespace), so no call escapes through an alias. A call from
one layer into another opens a span; a call from a layer into itself
does not. Spans stay in memory and are written to OUT.npz when the
command ends, with counters for the few calls whose arguments or
results the benchmark reads: TDoA fixes and their convergence flag, and
EKF predict/update time per motion model.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ["geodesy", "tdoa", "motionmodels", "ekf", "dataio", "metrics", "trajgen", "config"]
_STATE_DIM_MODEL = {4: "CV", 6: "CA", 5: "CT"}


class Tracer:
    def __init__(self):
        self.layer, self.func, self.parent, self.t0, self.t1 = [], [], [], [], []
        self.func_names: list[str] = []
        self.stack = [(-1, -1)]  # (layer id, span index); -1 is the cli root
        self.fixes = 0
        self.unconverged = 0
        self.steps = {m: 0 for m in _STATE_DIM_MODEL.values()}
        self.step_s = {m: 0.0 for m in _STATE_DIM_MODEL.values()}

    def _observe(self, name, args, result, dt):
        if name == "tdoa.solve_position":
            self.fixes += 1
            self.unconverged += not result.converged
        elif name == "ekf.predict":
            model = args[1].value
            self.steps[model] += 1
            self.step_s[model] += dt
        elif name == "ekf.update":
            self.step_s[_STATE_DIM_MODEL[args[0].s.shape[0]]] += dt

    def wrap(self, layer_id: int, fn):
        name = f"{LAYERS[layer_id]}.{fn.__qualname__}"
        func_id = len(self.func_names)
        self.func_names.append(name)
        observed = name in ("tdoa.solve_position", "ekf.predict", "ekf.update")
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller_layer, caller_span = self.stack[-1]
            if caller_layer == layer_id:
                if not observed:
                    return fn(*args, **kwargs)
                t0 = clock()
                result = fn(*args, **kwargs)
                self._observe(name, args, result, clock() - t0)
                return result
            span = len(self.t0)
            self.layer.append(layer_id)
            self.func.append(func_id)
            self.parent.append(caller_span)
            self.t1.append(0.0)
            self.stack.append((layer_id, span))
            self.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.t1[span] = t1
                self.stack.pop()
            if observed:
                self._observe(name, args, result, t1 - self.t0[span])
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and methods at every binding."""
        import uavtrack.cli  # noqa: F401  imports every layer module

        replaced = {}
        for layer_id, layer in enumerate(LAYERS):
            module = sys.modules[f"uavtrack.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(layer_id, obj)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)):
                            setattr(obj, meth, type(raw)(self.wrap(layer_id, raw.__func__)))
                        elif inspect.isfunction(raw):
                            setattr(obj, meth, self.wrap(layer_id, raw))
        for name, module in list(sys.modules.items()):
            if name == "uavtrack" or name.startswith("uavtrack."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        setattr(module, attr, replaced[id(obj)])

    def save(self, path, wall_s: float, rc: int) -> None:
        meta = {
            "wall_s": wall_s, "rc": rc, "layers": LAYERS, "funcs": self.func_names,
            "fixes": self.fixes, "unconverged": self.unconverged,
            "steps": self.steps, "step_s": self.step_s,
        }
        np.savez(
            path, meta=np.array(json.dumps(meta)),
            layer=np.array(self.layer, dtype=np.int16), func=np.array(self.func, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            t0=np.array(self.t0, dtype=float), t1=np.array(self.t1, dtype=float),
        )


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    out, trace, cli_args = argv[0], "--trace" in argv[1:sep], argv[sep + 1:]
    tracer = Tracer()
    if trace:
        tracer.install()
    from uavtrack.cli import main as cli_main

    t0 = time.perf_counter()
    rc = cli_main(cli_args)
    wall_s = time.perf_counter() - t0
    tracer.save(out, wall_s, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
