"""Span tracer installed on the package from outside.

The tracer replaces the public module-level functions of each layer (plus a
few named private ones) with wrappers that record one span per call: name,
start, end, parent span and op id. Wrappers are installed on every module
attribute that is bound to a wrapped function, so names imported with
``from ... import`` (``protocols.build_effective``, ``cli.build_effective``,
``numeric.expm``) resolve to the wrapper too. ``StateVector.__post_init__`` is
patched on the class. No file under ``src/`` changes.

Per function the tracer keeps ``calls``, ``errors`` and ``self_s`` (span time
minus the time of its child spans), and a few computed counters (bytes, nonzero
fractions, solver iterations). Spans stay in memory until ``write``.
"""
from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("statespace", "hamiltonian", "numeric", "analytic", "protocols", "metrics", "cli")
PRIVATE = ("numeric._dopri5", "cli._sweep_point")


class Stat:
    __slots__ = ("calls", "errors", "self_s")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0


def _count_nonzero(arr) -> int:
    import numpy as np   # loaded by the package before any hook runs

    return int(np.count_nonzero(arr))


# Counters computed from a call's arguments and result. Each hook returns
# {counter: increment}; its time is excluded from every span's self time.
def _state_bytes(args, result):
    return {"bytes_copied": args[0].amplitudes.nbytes}


def _matrix_stats(args, result):
    m = result.matrix
    return {"matrix_bytes": m.nbytes, "nnz": _count_nonzero(m), "stored": m.size}


def _expm_bytes(args, result):
    return {"matrix_bytes": args[0].nbytes}


def _iterations(args, result):
    return {"iterations": result.iterations}


def _register_fill(args, result):
    register = result[0]
    return {"register_nonzero": _count_nonzero(register.amplitudes), "register_dim": register.dim}


HOOKS = {
    "statespace.StateVector": _state_bytes,
    "hamiltonian.build_effective": _matrix_stats,
    "numeric.expm": _expm_bytes,
    "analytic.w_solve_lambda1": _iterations,
    "protocols.run_w": _register_fill,
}


class Tracer:
    """Records spans and per-function statistics while installed."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.stats: dict = {}
        self.counters: dict = {}
        self.op_id = -1
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer._record(span_id, name_id, start, end, parent)
            if hook is not None:
                hook_start = perf_counter()
                for key, value in hook(args, result).items():
                    full = f"{name}.{key}"
                    tracer.counters[full] = tracer.counters.get(full, 0) + value
                if stack:
                    stack[-1][1] += perf_counter() - hook_start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, span_id, name_id, start, end, parent):
        self.span_id.append(span_id)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)

    # -- installation -----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer function on every package module that binds it."""
        import cavity_entangler
        from cavity_entangler import cli, numeric, statespace  # noqa: F401  (loads all layers)

        wrappers = {}
        for short in LAYERS:
            mod = sys.modules[f"cavity_entangler.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in PRIVATE)
                ):
                    wrappers[id(obj)] = self._wrap(name, obj)
        wrappers[id(numeric.expm)] = self._wrap("numeric.expm", numeric.expm)

        modules = [cavity_entangler] + [
            m for key, m in sys.modules.items() if key.startswith("cavity_entangler.")
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

        cls = statespace.StateVector
        original = cls.__dict__["__post_init__"]
        self._patches.append((cls, "__post_init__", original))
        cls.__post_init__ = self._wrap("statespace.StateVector", original)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, n, s, e, p, o in zip(
                self.span_id, self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_op,
            ):
                fh.write(json.dumps([i, self.names[n], s, e, p, o]) + "\n")
