"""Call counts and times for the public functions of each pointfam module.

The tracer wraps functions from outside the package: for every public
function a layer module defines, it rebinds each name that refers to it in
every pointfam module, including names bound at import (`from .scattering
import amplitudes` in diffraction) and module-level dispatch tables
(`suites._SUITES`). Each wrapper adds its elapsed time to its function's
total and to the child time of the wrapped call it runs inside, so a
function's self time is its total minus the time of its wrapped callees.

Per-item functions run about 1e5 times per pass, so calls are aggregated,
not kept as one span each. Counters live in one table per thread (scans
fan out to a thread pool), so every count is exact. Work a function hands
to other threads counts in those threads, not in its child time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types

LAYERS = ("core", "one_body", "scattering", "many_body", "diffraction", "verify", "suites", "cli")

# Functions whose cost is reported per item rather than per call: how many
# items one call handled, from its arguments and result.
ITEMS = {
    "diffraction.scan_points": lambda args, kwargs, result: len(result),
    "diffraction.no_diffraction_scan": lambda args, kwargs, result: args[1] if len(args) > 1 else kwargs["samples"],
}


class Tracer:
    """Wraps the package's public functions while installed; counts only while installed."""

    def __init__(self, package: types.ModuleType):
        self._package = package
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._wrappers: dict = {}
        self._patches: list = []
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for key, value in vars(module).items():
                if (
                    not key.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    self._wrappers[value] = self._wrap(f"{layer}.{key}", value)

    def _state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table, local.stack = {}, []
            with self._lock:
                self._tables.append(local.table)
        return local.table, local.stack

    def _wrap(self, name: str, fn):
        state = self._state
        clock = time.perf_counter
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table, stack = state()
            stack.append(0.0)
            start = clock()
            count = 1
            try:
                result = fn(*args, **kwargs)
                if items is not None:
                    count = items(args, kwargs, result)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0, 0.0, 0.0]
                row[0] += 1
                row[1] += count
                row[2] += elapsed
                row[3] += child
                if stack:
                    stack[-1] += elapsed

        return traced

    def _namespaces(self):
        prefix = self._package.__name__
        for name, module in list(sys.modules.items()):
            if module is not None and (name == prefix or name.startswith(prefix + ".")):
                ns = vars(module)
                yield ns
                yield from (v for v in list(ns.values()) if isinstance(v, dict))

    def install(self) -> None:
        for ns in self._namespaces():
            for key, value in list(ns.items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    ns[key] = self._wrappers[value]
                    self._patches.append((ns, key, value))

    def uninstall(self) -> None:
        while self._patches:
            ns, key, value = self._patches.pop()
            ns[key] = value

    def summary(self) -> dict:
        """{function: {calls, items, total_s, self_s}} merged over threads."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, items, total, child) in table.items():
                row = merged.setdefault(name, [0, 0, 0.0, 0.0])
                row[0] += calls
                row[1] += items
                row[2] += total
                row[3] += child
        return {
            name: {"calls": c, "items": i, "total_s": t, "self_s": t - ch}
            for name, (c, i, t, ch) in sorted(merged.items())
        }
