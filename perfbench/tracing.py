"""Outside-in span tracing of the gabwin layers.

The tracer wraps the public functions of the package from the benchmark's
side: every module namespace of ``gabwin`` that holds one of the traced
function objects (its defining module, a module that imported it by name,
the package itself) gets a wrapper in its place.  No file of the package
changes.  Private helpers stay unwrapped, so the step kernels inside
``iterations.run`` show up as that span's self time.

Spans are aggregated in memory per function: call count, inclusive time and
self time, where self time is the span's duration minus the time its child
spans (on the same thread) cover.  The time of each span nested directly in
another is also kept per (parent, child) pair.  Work submitted to a thread
pool by a traced call runs on another thread and is a top-level span there;
its self time includes waiting for the interpreter lock.

RuntimeWarnings that reach ``warnings.showwarning`` are counted, every one
of them, not once per location.  ``iterations.run`` silences warnings with
``warnings.catch_warnings``, which is not thread-safe: under the CLI's
thread pools it can leave an "ignore" filter behind for the whole process.
The filters are therefore reset before every op, and the count of a
multi-threaded op depends on that race.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import warnings

TRACED = {
    "zak": ("factorize", "unfactorize", "block_gram", "frame_bounds"),
    "canonical": ("eig_tight", "svd_tight", "inv_dual", "cholesky_solve_blocks"),
    "diagnostics": ("adjoint_correlations", "dual_lattice_norm_tight",
                    "dual_lattice_norm_dual", "wexler_raz_residual", "z_bounds"),
    "iterations": ("run", "upper_frame_bound_estimate"),
    "windows": ("gaussian_window", "sech_window", "monster_window"),
    "dense": ("synthesis_matrix", "reference_tight", "reference_dual"),
    "scalarlab": ("two_point_norm_scaled",),
    "cli": ("write_csv", "save_window"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Aggregating span recorder; spans count only while ``enabled``.

    ``on_return`` maps a span name to a callback run on the call's result,
    used to count the work the call did (steps, model flops).
    """

    def __init__(self, on_return=None):
        self.enabled = False
        self._warn_state = (warnings.showwarning, warnings.filters[:])
        self.on_return = on_return or {}
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.total_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.nested_ns = {}  # (parent, child) -> time of child spans in parent
        self.top_level = []  # (start_ns, end_ns) of spans without a parent
        self.runtime_warnings = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append([name, 0])  # name, time covered by its child spans
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _, child_ns = stack.pop()
                dur = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                with self._lock:
                    self.calls[name] += 1
                    self.total_ns[name] += dur
                    self.self_ns[name] += dur - child_ns
                    if parent is None:
                        self.top_level.append((start, end))
                    else:
                        key = (parent[0], name)
                        self.nested_ns[key] = self.nested_ns.get(key, 0) + dur
            hook = self.on_return.get(name)
            if hook is not None:
                with self._lock:
                    hook(result)
            return result

        return traced

    def install(self):
        """Replace every reference to a traced function in the gabwin
        module namespaces with its wrapper."""
        originals = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"gabwin.{mod}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = f"{mod}.{fn}"
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "gabwin" and not modname.startswith("gabwin."):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[name])
        missing = set(SPAN_NAMES) - set(wrappers)
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        self._reset_warnings()

    def _reset_warnings(self):
        showwarning, filters = self._warn_state
        warnings.resetwarnings()
        warnings.filters.extend(filters)
        warnings.showwarning = showwarning

    def begin_op(self):
        self.top_level.clear()
        self._reset_warnings()
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._count_warning
        self.enabled = True

    def end_op(self, start_ns: int, end_ns: int) -> int:
        """Stop recording; returns the op time covered by top-level spans."""
        self.enabled = False
        return self._covered_ns(start_ns, end_ns)

    def _count_warning(self, message, category, *args, **kwargs):
        if self.enabled and issubclass(category, RuntimeWarning):
            with self._lock:
                self.runtime_warnings += 1

    def _covered_ns(self, start_ns: int, end_ns: int) -> int:
        """Length of the union of top-level spans inside [start, end]."""
        covered, reach = 0, start_ns
        for s, e in sorted(self.top_level):
            s, e = max(s, reach), min(e, end_ns)
            if e > s:
                covered += e - s
                reach = e
        return covered
