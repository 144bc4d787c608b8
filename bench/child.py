"""Child processes of the benchmark, each run in a fresh interpreter.

    python child.py setup <mode> <config> <spawn_time>
        Pay what a `heliport <mode>` run pays before its first compute call:
        import heliport.cli, numpy, scipy and the heliport modules that the
        mode's runner imports, then config.load_config.  Prints one JSON line
        with the elapsed time since <spawn_time> (time.monotonic() of the
        parent just before the spawn; the clock is system-wide on Linux) and
        the environment the child sees.

    python child.py trace <spans_json> <spawn_time> <cli argv...>
        Install timing wrappers on the layer functions, run
        heliport.cli.main(argv) in-process, write the recorded spans to
        <spans_json> and exit with the CLI's exit code.

The wrappers go in through an import hook, so each module is patched right
after it executes and before anything imports names from it; modules the CLI
never imports stay unimported.  A name that no longer exists is recorded as
absent.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import platform
import resource
import sys
import time

# Modules each CLI runner imports (heliport.cli._run_<mode>).
RUNNER_MODULES = {
    "dynamics": ("dynamics", "hamiltonian", "output"),
    "bands": ("bloch", "output"),
    "zak": ("bloch", "output", "topology"),
    "field": ("dynamics", "field", "hamiltonian", "output"),
    "check": ("output", "selfcheck"),
}

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def _leading(name):
    """Work counter: number of separations in an array of shape (..., 3)."""
    def count(args, _result):
        import numpy as np
        return int(np.prod(np.shape(args[name])[:-1]))
    return count


def _lattice_terms(args, _result):
    return len(args["k_grid"]) * len(args["c"])


def _plane_points(args, _result):
    plane = args["plane"]
    return len(plane.u) * len(plane.v)


def _rk4_fallback(args, _result):
    return int(bool(getattr(args["self"], "use_stepper", False)))


def _written_bytes(args, result):
    path = args.get("path", result)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# module -> [(attribute, span name, work counter)]; "Class.method" patches
# the method on the class.  A module is patched as soon as it has executed,
# so every module that later imports one of these names (hamiltonian and
# bloch import coupling_blocks, field imports green_tensor) binds the wrapper
# and a call counts once whatever the call site.
TARGETS = {
    "heliport.greens": [
        ("green_tensor", "greens.green_tensor", _leading("r")),
        ("coupling_blocks", "greens.coupling_blocks", _leading("sep")),
    ],
    "heliport.hamiltonian": [("assemble", "hamiltonian.assemble", "rss")],
    "heliport.dynamics": [
        ("Propagator.__init__", "dynamics.propagator_init", _rk4_fallback),
        ("Propagator.propagate", "dynamics.propagate", None),
        ("evolve", "dynamics.evolve", None),
    ],
    "heliport.bloch": [
        ("cell_couplings", "bloch.cell_couplings", None),
        ("_fourier_sum", "bloch.fourier_sum", _lattice_terms),
        ("_convergence_estimate", "bloch.convergence", None),
        ("band_structure", "bloch.band_structure", None),
        ("linear_sum_assignment", "bloch.linear_sum_assignment", None),
    ],
    "heliport.topology": [
        ("zak_phase", "topology.zak_phase", None),
        ("wilson_loop", "topology.wilson_loop", None),
        ("_biorthogonal_loop", "topology.wilson_loop", None),
        ("detect_gap", "topology.detect_gap", None),
    ],
    "heliport.field": [("intensity_map", "field.intensity_map", _plane_points)],
    "heliport.output": "write_",   # every module-level write_* function
    "heliport.selfcheck": [("run_checks", "selfcheck.run_checks", None)],
    "numpy.linalg": [(f, f"linalg.{f}", None)
                     for f in ("eig", "eigh", "inv", "cond", "det")],
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, work]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []

    def wrap(self, fn, name, work):
        spans, stack = self.spans, self.stack
        sig = inspect.signature(fn) if callable(work) else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1, 0]
            spans.append(rec)
            stack.append(idx)
            rss0 = _maxrss_mb() if work == "rss" else 0.0
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if work == "rss":
                    rec[4] = _maxrss_mb() - rss0
                elif sig is not None:
                    try:
                        rec[4] = work(sig.bind(*args, **kwargs).arguments, result)
                    except (KeyError, AttributeError, TypeError):
                        rec[4] = 0  # the signature changed; the span still counts

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def patch(self, module):
        spec = TARGETS.get(module.__name__)
        if isinstance(spec, str):
            spec = [(attr, "output.write", _written_bytes)
                    for attr, val in sorted(vars(module).items())
                    if attr.startswith(spec) and inspect.isfunction(val)
                    and val.__module__ == module.__name__]
        for attr, name, work in spec or ():
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, leaf, None) if holder is not None else None
            if fn is None:
                self.absent.append(f"{module.__name__}.{attr}")
            else:
                setattr(holder, leaf, self.wrap(fn, name, work))


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, inner, tracer):
        self.inner, self.tracer = inner, tracer

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module):
        self.inner.exec_module(module)
        self.tracer.patch(module)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in TARGETS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, self.tracer)
        return spec


def environment() -> dict:
    """What this child sees: interpreter, library versions, BLAS threads."""
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def setup(mode: str, config: str, spawn: float) -> int:
    import heliport.cli  # noqa: F401
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    for name in RUNNER_MODULES[mode]:
        try:
            importlib.import_module(f"heliport.{name}")
        except ModuleNotFoundError:
            pass  # a module a later version no longer has costs nothing
    from heliport.config import load_config
    _, errors = load_config(config)
    elapsed = time.monotonic() - spawn
    print(json.dumps({"setup_s": elapsed, "errors": errors, "env": environment()}))
    return 1 if errors else 0


def trace(spans_path: str, spawn: float, argv: list[str]) -> int:
    tracer = Tracer()
    sys.meta_path.insert(0, _PatchingFinder(tracer))
    t0 = time.perf_counter()
    mono0 = time.monotonic()
    from heliport.cli import main
    code = main(argv)
    t_end = time.perf_counter()
    # the root span starts at the spawn, so interpreter start-up is included
    root_start = t0 - (mono0 - spawn)
    with open(spans_path, "w") as fh:
        json.dump({"root": [root_start, t_end], "spans": tracer.spans,
                   "absent": tracer.absent, "exit_code": code,
                   "maxrss_mb": _maxrss_mb(), "env": environment()}, fh)
    return code


if __name__ == "__main__":
    cmd = sys.argv[1]
    if cmd == "setup":
        sys.exit(setup(sys.argv[2], sys.argv[3], float(sys.argv[4])))
    if cmd == "trace":
        sys.exit(trace(sys.argv[2], float(sys.argv[3]), sys.argv[4:]))
    sys.exit(f"unknown child command {cmd!r}")
