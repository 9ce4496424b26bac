"""Span tracing from outside the package, for the benchmark's traced runs.

`install` replaces, for the duration of one run, the package's public
functions by wrappers that record a span per call. A function is replaced
wherever a module of the package holds it, so each caller's own lookup
(`bilaplab.config.minimize`, `bilaplab.solver.energy_array`, a function-level
import) reaches the wrapper. Methods are replaced on their class, the SciPy
sparse solvers through a stand-in for the `spla` name that `bilaplab.solver`
uses, and the acceptance checks inside `verify.ALL_CHECKS`.

A span is a name, a start, an end, its parent span and an operation id. The
spans stay in flat arrays until the run ends. A layer's time is the sum of
its spans' self times: duration minus the time its child spans cover.
Energy and gradient calls inside the brute-force oracle and inside the
descent solver (p < 2) get no span of their own: their time stays with the
caller, and descent calls are counted apart so the 40 000 steps of a
descent solve do not swamp the Newton counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer metric -> span name whose self times it sums
TIME_METRICS = {
    "grid.build_s": "grid.build",
    "grid.quadrature_s": "grid.quadrature",
    "grid.interp_s": "grid.interp",
    "problem.assembly_s": "problem.assembly",
    "problem.energy_s": "problem.energy",
    "problem.gradient_s": "problem.gradient",
    "solver.solve_s": "solver.solve",
    "solver.initial_s": "solver.initial",
    "solver.linear_solve_s": "solver.linear_solve",
    "solver.descent_s": "solver.descent",
    "solver.el_crosscheck_s": "solver.el_crosscheck",
    "solver.weak_residual_s": "solver.weak_residual",
    "oracle.solve_s": "oracle.solve",
    "harmonics.eval_s": "harmonics.eval",
    "diagnostics.profile_s": "diagnostics.profile",
    "freeboundary.extract_s": "freeboundary.extract",
    "freeboundary.analyze_s": "freeboundary.analyze",
    "freeboundary.blowup_fit_s": "freeboundary.blowup_fit",
    "extension.dtn_s": "extension.dtn",
    **{f"verify.check{k:02d}_s": f"verify.check{k:02d}" for k in range(1, 13)},
    "config.parse_s": "config.parse",
    "config.run_self_s": "config.run",
}

# layer metric -> span name whose calls it counts
SPAN_COUNT_METRICS = {
    "grid.builds": "grid.build",
    "grid.quadratures": "grid.quadrature",
    "problem.assemblies": "problem.assembly",
    "problem.energy_evals": "problem.energy",
    "problem.gradient_evals": "problem.gradient",
    "solver.linear_solves": "solver.linear_solve",
    "oracle.solves": "oracle.solve",
    "diagnostics.profiles": "diagnostics.profile",
    "freeboundary.blowup_fits": "freeboundary.blowup_fit",
}

# layer metrics counted by the wrappers themselves
COUNTERS = (
    "grid.interp_points",
    "solver.solves",
    "solver.newton_iters",
    "solver.cg_iters",
    "solver.factorizations",
    "solver.descent_evals",
    "oracle.steps",
    "diagnostics.profile_radii",
    "freeboundary.points",
    "config.artifact_bytes",
)

# spans inside which energy and gradient calls stay with the caller
_ABSORBING = ("solver.descent", "oracle.solve")


class Tracer:
    """In-memory span store for one run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op_id = -1

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(float("nan"))
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def innermost(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def wrap(self, fn, name, after=None):
        """Wrapper recording a span per call; `name` may be a function of the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: number of spans and summed self time."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        if nid.size == 0:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        own = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        total = np.bincount(nid, weights=own, minlength=len(self.names))
        return {name: (int(calls[k]), float(total[k])) for k, name in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        per_name = self.self_times()
        out: dict[str, float] = {}
        for metric, span in SPAN_COUNT_METRICS.items():
            out[metric] = per_name.get(span, (0, 0.0))[0]
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        for metric, span in TIME_METRICS.items():
            out[metric] = per_name.get(span, (0, 0.0))[1]
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON rows: name, start, end, parent index, operation id."""
        rows = [[self.names[n], s, e, p, o] for n, s, e, p, o in
                zip(self.name_id, self.start, self.end, self.parent, self.op)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "op"],
                                    "spans": rows}))


class _SplaStandIn:
    """`scipy.sparse.linalg` as `bilaplab.solver` sees it, with traced solvers.

    A solve inside `harmonic_extension` (its `spsolve`) gets no span and no
    count: its time stays with `solver.initial`, so `solver.linear_solves`
    and `solver.factorizations` count the solves of the minimization itself.
    """

    def __init__(self, real, tracer: Tracer):
        self._real = real
        counts = tracer.counts

        def cg(A, b, *args, callback=None, **kwargs):
            def count(xk):
                counts["solver.cg_iters"] += 1
                if callback is not None:
                    callback(xk)
            return real.cg(A, b, *args, callback=count, **kwargs)

        def factorize(fn):
            def call(*args, **kwargs):
                counts["solver.factorizations"] += 1
                return fn(*args, **kwargs)
            return call

        def traced(fn, counted):
            wrapped = tracer.wrap(counted, "solver.linear_solve")

            def call(*args, **kwargs):
                if tracer.innermost() == "solver.initial":
                    return fn(*args, **kwargs)
                return wrapped(*args, **kwargs)

            return call

        self.cg = traced(real.cg, cg)
        self.splu = traced(real.splu, factorize(real.splu))
        self.spsolve = traced(real.spsolve, factorize(real.spsolve))

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _run_dir_bytes(out) -> int:
    return sum(p.stat().st_size for p in Path(out).iterdir() if p.is_file())


def install(tracer: Tracer):
    """Route the package's public functions through `tracer`; return an undo callable."""
    from bilaplab import (config, diagnostics, extension, freeboundary, grid, harmonics,
                          oracle, problem, solver, verify)

    counts = tracer.counts

    def bump(key, k=1):
        counts[key] += k

    def absorbed(fn, name):
        traced = tracer.wrap(fn, name)

        def call(*args, **kwargs):
            where = tracer.innermost()
            if where in _ABSORBING:
                if where == "solver.descent":
                    counts["solver.descent_evals"] += 1
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return functools.wraps(fn)(call)

    def assembling(fn):
        traced = tracer.wrap(fn, "problem.assembly")

        def call(g):
            return fn(g) if getattr(g, "_ops", None) is not None else traced(g)

        return functools.wraps(fn)(call)

    def solve_name(spec, *args, **kwargs):
        bump("solver.solves")
        return "solver.descent" if spec.p < 2.0 else "solver.solve"

    def solved(result, spec, *args, **kwargs):
        if spec.p >= 2.0:
            bump("solver.newton_iters", result.iterations)

    def interp_name(self, box, points, *args, **kwargs):
        pts = np.asarray(points)
        bump("grid.interp_points", 1 if pts.ndim == 1 else pts.shape[0])
        return "grid.interp"

    def profile_name(*args, **kwargs):
        radii = kwargs["radii"] if "radii" in kwargs else args[3]
        bump("diagnostics.profile_radii", np.atleast_1d(radii).size)
        return "diagnostics.profile"

    functions = {
        grid.build_grid: tracer.wrap(grid.build_grid, "grid.build"),
        grid.sphere_quadrature: tracer.wrap(grid.sphere_quadrature, "grid.quadrature"),
        problem.operators: assembling(problem.operators),
        problem.energy_array: absorbed(problem.energy_array, "problem.energy"),
        problem.gradient_array: absorbed(problem.gradient_array, "problem.gradient"),
        solver.minimize: tracer.wrap(solver.minimize, solve_name, after=solved),
        solver.harmonic_extension: tracer.wrap(solver.harmonic_extension, "solver.initial"),
        solver.el_crosscheck: tracer.wrap(solver.el_crosscheck, "solver.el_crosscheck"),
        solver.weak_residual: tracer.wrap(solver.weak_residual, "solver.weak_residual"),
        oracle.brute_minimize: tracer.wrap(
            oracle.brute_minimize, "oracle.solve",
            after=lambda res, *a, **k: bump("oracle.steps", res.iterations)),
        diagnostics.compute_profile: tracer.wrap(diagnostics.compute_profile, profile_name),
        freeboundary.extract_gamma: tracer.wrap(
            freeboundary.extract_gamma, "freeboundary.extract",
            after=lambda pts, *a, **k: bump("freeboundary.points", len(pts))),
        freeboundary.analyze_point: tracer.wrap(freeboundary.analyze_point,
                                                "freeboundary.analyze"),
        freeboundary.blowup_fit: tracer.wrap(freeboundary.blowup_fit,
                                             "freeboundary.blowup_fit"),
        extension.dtn_compare: tracer.wrap(extension.dtn_compare, "extension.dtn"),
        config.parse_config: tracer.wrap(config.parse_config, "config.parse"),
        config.run: tracer.wrap(
            config.run, "config.run",
            after=lambda out, *a, **k: bump("config.artifact_bytes", _run_dir_bytes(out))),
    }
    by_id = {id(fn): wrapper for fn, wrapper in functions.items()}

    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod in [m for name, m in sys.modules.items()
                if name == "bilaplab" or name.startswith("bilaplab.")]:
        for attr, value in list(vars(mod).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                swap(mod, attr, wrapper)

    swap(grid.HalfBallGrid, "interp_box",
         tracer.wrap(grid.HalfBallGrid.interp_box, interp_name))
    swap(harmonics.HomogeneousHarmonicPoly, "__call__",
         tracer.wrap(harmonics.HomogeneousHarmonicPoly.__call__, "harmonics.eval"))
    swap(solver, "spla", _SplaStandIn(solver.spla, tracer))

    checks = list(verify.ALL_CHECKS)
    verify.ALL_CHECKS[:] = [tracer.wrap(fn, f"verify.check{k:02d}")
                            for k, fn in enumerate(checks, start=1)]

    def restore():
        verify.ALL_CHECKS[:] = checks
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
