"""Thread-aware span tracer that wraps sde_gridopt's public functions from outside.

The package binds names at import time (``from .matfun import kt_matrix``
puts ``kt_matrix`` into ``solver``, ``cli`` and the package namespace), so a
function is replaced in every ``sde_gridopt`` module that holds it.  Each call
records one span ``(id, name, start, end, parent)``; the parent is the
innermost open span of the calling thread, and work submitted to
``cli.ThreadPoolExecutor`` inherits the span that submitted it.  Spans stay
in memory until :meth:`Tracer.save` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter

import numpy as np

# Public functions traced per module, named ``<module>.<function>``.
TRACED = {
    "cli": ("parse_config", "cmd_gramian", "cmd_convergence", "cmd_mc_verify", "cmd_ou_table"),
    "model": ("validate_model", "regularity_check"),
    "grid": ("grid_from_density", "density_from_weight"),
    "matfun": ("mat_exp", "phi1", "kt_matrix", "ctrl_gramian", "obs_gramian", "weight_propagate"),
    "solver": ("run_filter", "kalman_step", "mc_verify_mse"),
    "asymptotics": (
        "optimal_profile",
        "weight_curve",
        "phi_functional",
        "ups_functional",
        "min_phi_value",
    ),
}
# The scipy.linalg.expm binding that matfun and asymptotics both call.
EXPM = "matfun.expm"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns) + (EXPM,)
COUNTS = ("grid.steps", "grid.distinct_dt", "solver.mc_path_steps")


def _count_grid(counts, bound, grid):
    counts["grid.steps"] += grid.n_steps
    counts["grid.distinct_dt"] += int(np.unique(grid.steps).size)


def _count_mc(counts, bound, result):
    counts["solver.mc_path_steps"] += int(bound.arguments["paths"]) * bound.arguments["grid"].n_steps


_OBSERVERS = {"grid.grid_from_density": _count_grid, "solver.mc_verify_mse": _count_mc}


class _Stack(threading.local):
    def __init__(self):
        self.open = []


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, name index, start, end, parent id or -1)
        self.counts = Counter({name: 0 for name in COUNTS})
        self._ids = itertools.count()
        self._stack = _Stack()
        self._lock = threading.Lock()
        self._restore = []

    def current(self) -> int:
        open_spans = self._stack.open
        return open_spans[-1] if open_spans else -1

    def _wrap(self, name: str, fn):
        name_index = SPAN_NAMES.index(name)
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe is not None else None
        stack, ids, spans, clock = self._stack, self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans = stack.open
            parent = open_spans[-1] if open_spans else -1
            span_id = next(ids)  # atomic under the interpreter lock
            open_spans.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                spans.append((span_id, name_index, t0, t1, parent))
            if observe is not None:
                with self._lock:
                    observe(self.counts, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _adopting_pool(self, pool_cls):
        stack = self._stack
        current = self.current

        class AdoptingPool(pool_cls):
            def submit(self, fn, /, *args, **kwargs):
                parent = current()

                def adopted(*a, **kw):
                    stack.open.append(parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        stack.open.pop()

                return super().submit(adopted, *args, **kwargs)

        return AdoptingPool

    def install(self) -> None:
        """Replace every traced function in every loaded sde_gridopt module."""
        mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "sde_gridopt"]
        originals = {
            f"{short}.{fn}": getattr(sys.modules[f"sde_gridopt.{short}"], fn)
            for short, fns in TRACED.items()
            for fn in fns
        }
        originals[EXPM] = sys.modules["sde_gridopt.matfun"].expm
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        # module globals, and module-level dicts such as cli's command table
        tables = [vars(mod) for mod in mods]
        tables += [v for table in tables for v in table.values() if type(v) is dict]
        for table in tables:
            for key, value in list(table.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((table, key, value))
                    table[key] = wrapper
        cli = vars(sys.modules["sde_gridopt.cli"])
        if "ThreadPoolExecutor" in cli:
            self._restore.append((cli, "ThreadPoolExecutor", cli["ThreadPoolExecutor"]))
            cli["ThreadPoolExecutor"] = self._adopting_pool(cli["ThreadPoolExecutor"])

    def uninstall(self) -> None:
        for table, key, value in reversed(self._restore):
            table[key] = value
        self._restore.clear()

    def save(self, path: str) -> None:
        rec = sorted(self.spans)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(SPAN_NAMES),
            parent=np.array([r[4] for r in rec], dtype=np.int64),
            name_index=np.array([r[1] for r in rec], dtype=np.int64),
            start=np.array([r[2] for r in rec]),
            end=np.array([r[3] for r in rec]),
        )


# Ancestors whose descendants are summed separately by summarize().
_MARKED = ("solver.run_filter", "solver.mc_verify_mse", "cli.cmd_convergence", "cli.cmd_mc_verify")


def summarize(paths) -> dict:
    """Aggregate saved span files (one per process) into per-name figures.

    Returns ``{"calls", "total", "self"}`` dicts keyed by span name, plus
    ``under``: for each name in _MARKED, the self time of matfun spans and
    the total time of run_filter spans that have it as an ancestor.  Self
    time is a span's duration minus the part of it that its child spans
    cover; children on pool threads may overlap, so their union is taken.
    """
    calls = Counter({n: 0 for n in SPAN_NAMES})
    total = Counter({n: 0.0 for n in SPAN_NAMES})
    self_s = Counter({n: 0.0 for n in SPAN_NAMES})
    under = {m: Counter({"matfun_self": 0.0, "run_filter_total": 0.0}) for m in _MARKED}
    bits = {n: 1 << k for k, n in enumerate(_MARKED)}
    for path in paths:
        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            name_of = [names[i] for i in z["name_index"]]
            parent, start, end = z["parent"], z["start"], z["end"]
        count = len(name_of)
        children = [[] for _ in range(count)]
        for i in range(count):
            if parent[i] >= 0:
                children[parent[i]].append(i)
        marks = [0] * count  # bit k set when _MARKED[k] is an ancestor
        for i in range(count):  # span ids grow with start time, so parents come first
            p = parent[i]
            if p >= 0:
                marks[i] = marks[p] | bits.get(name_of[p], 0)
        for i in range(count):
            name = name_of[i]
            covered, reach = 0.0, start[i]
            for c in sorted(children[i], key=lambda c: start[c]):
                lo, hi = max(start[c], reach), min(end[c], end[i])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            dur = end[i] - start[i]
            own = dur - covered
            calls[name] += 1
            total[name] += dur
            self_s[name] += own
            for k, m in enumerate(_MARKED):
                if marks[i] >> k & 1:
                    if name.startswith("matfun."):
                        under[m]["matfun_self"] += own
                    elif name == "solver.run_filter":
                        under[m]["run_filter_total"] += dur
    return {"calls": calls, "total": total, "self": self_s, "under": under}
