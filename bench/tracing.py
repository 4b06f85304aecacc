"""Spans and counters recorded around the package's public functions.

The package imports its kernels by name (``from .numerics import
evolve_ode``), so a function is wrapped by replacing every module
attribute that holds it.  Nothing under ``src/`` is edited; the
originals are put back when the tracer is closed.

Spans live in memory as ``[name, start, end, parent, point, child_s]``
and are written out once at the end; ``child_s`` is the time the
span's children took, so its self time is ``end - start - child_s``
(one thread, so children never overlap).  Functions called hundreds of
thousands of times per point (``bessel_j`` in a bisection,
``rotated_rates`` inside an RHS) are "leaf" layers: they add their call
count and duration to aggregate counters and to the ``child_s`` of the
enclosing span instead of storing a span each.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

# (module holding the definition, function name, leaf?)
TRACED = [
    ("numerics", "evolve_ode", False),
    ("numerics", "find_roots", False),
    ("numerics", "eig_hermitian", False),
    ("numerics", "bessel_table", False),
    ("numerics", "bessel_j", True),
    ("floquet", "build_floquet_matrix_lab", False),
    ("floquet", "p1_floquet", False),
    ("floquet", "p1_direct", False),
    ("floquet", "dynamic_base", False),
    ("chrw", "solve_xi", False),
    ("chrw", "solution_count_map", False),
    ("chrw", "chrw_solution", False),
    ("chrw", "chrw_coefficients", False),
    ("chrw", "p1_chrw", False),
    ("gvv", "gvv_effective", False),
    ("gvv", "gvv_shifts", False),
    ("gvv", "frame_unitary", True),
    ("open_system", "evolve_lab_lindblad", False),
    ("open_system", "evolve_gvv_lindblad", False),
    ("open_system", "rotated_rates", True),
]

MODULES = ("numerics", "floquet", "chrw", "gvv", "open_system", "cli")


class RhsCounter:
    """Counts calls of an ODE right-hand side and the integration passes.

    ``evolve_ode`` restarts from ``t_grid[0]`` for every Richardson pass
    and no other RHS call sees that time, so each return of the time
    argument to ``t0`` starts a pass.  ``final`` is the number of calls
    in the last pass, the only one whose result is returned.
    """

    def __init__(self, rhs, t0: float):
        self.rhs, self.t0 = rhs, t0
        self.calls = self.passes = self.last_start = 0

    def __call__(self, t, y):
        if t == self.t0:
            self.passes += 1
            self.last_start = self.calls
        self.calls += 1
        return self.rhs(t, y)

    @property
    def final(self) -> int:
        return self.calls - self.last_start


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.point = None
        self.counts = defaultdict(float)  # "<layer>.<counter>" -> total
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.point, 0.0]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            if parent >= 0:
                self.spans[parent][5] += rec[2] - rec[1]

    def leaf(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - start
            self.counts[name + ".calls"] += 1
            self.counts[name + ".self_s"] += dt
            if self.stack:
                self.spans[self.stack[-1]][5] += dt

    # -- wrappers with extra counters --------------------------------------

    def _wrapper(self, name: str, fn, leaf: bool):
        if name == "numerics.evolve_ode":
            def run(rhs, y0, t_grid, *args, **kwargs):
                counter = RhsCounter(rhs, float(np.asarray(t_grid, dtype=float)[0]))
                try:
                    return self.span(name, fn, counter, y0, t_grid, *args, **kwargs)
                finally:
                    self.counts[name + ".rhs_evals"] += counter.calls
                    self.counts[name + ".passes"] += counter.passes
                    self.counts[name + ".final_pass_evals"] += counter.final
        elif name == "numerics.find_roots":
            def run(f, *args, **kwargs):
                def counted(x):
                    if np.ndim(x):
                        self.counts[name + ".scan_evals"] += np.size(x)
                    else:
                        self.counts[name + ".scalar_evals"] += 1
                    return f(x)
                return self.span(name, fn, counted, *args, **kwargs)
        elif name == "numerics.eig_hermitian":
            def run(matrix, *args, **kwargs):
                dim = np.shape(matrix)[0]
                self.counts[name + ".n3_sum"] += float(dim) ** 3
                caller = self.spans[self.stack[-1]][0] if self.stack else ""
                if caller.startswith("floquet."):
                    self.counts["floquet.eig_per_point"] += 1
                return self.span(name, fn, matrix, *args, **kwargs)
        elif name == "numerics.bessel_j":
            def run(n, x, *args, **kwargs):
                self.counts[name + ".values"] += np.size(x)
                return self.leaf(name, fn, n, x, *args, **kwargs)
        elif name == "chrw.chrw_solution":
            def run(*args, **kwargs):
                self.counts[name + ".attempts"] += 1
                out = self.span(name, fn, *args, **kwargs)
                self.counts[name + ".unique"] += 1
                return out
        else:
            def run(*args, **kwargs):
                return (self.leaf if leaf else self.span)(name, fn, *args, **kwargs)
        return functools.wraps(fn)(run)

    def install(self, package) -> None:
        """Replace each traced function in every package module holding it."""
        modules = [getattr(package, m) for m in MODULES]
        for home, fname, leaf in TRACED:
            original = getattr(getattr(package, home), fname)
            wrapped = self._wrapper(f"{home}.{fname}", original, leaf)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self._patched.append((mod, fname, original))
                    setattr(mod, fname, wrapped)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "point", "child_s"), rec))) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    return [end - start - child_s for _, start, end, _, _, child_s in spans]


def layer_totals(tracer: Tracer) -> dict:
    """Per-name call counts, inclusive and self seconds, plus counters."""
    totals = defaultdict(float)
    for rec, self_s in zip(tracer.spans, self_times(tracer.spans)):
        totals[rec[0] + ".calls"] += 1
        totals[rec[0] + ".self_s"] += self_s
        totals[rec[0] + ".incl_s"] += rec[2] - rec[1]
    for key, value in tracer.counts.items():
        totals[key] += value
        if key.endswith(".self_s"):  # leaf layers: inclusive == self
            totals[key[: -len("self_s")] + "incl_s"] += value
    return totals
