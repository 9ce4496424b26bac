"""Slow, independent reference computations used to pin expected values.

`brute_minimize` shares nothing with the Newton path except the energy and
its gradient: fixed-step projected gradient descent with a step set by a
power-iteration bound on the Hessian norm. It is deliberately simple so its
correctness is auditable, and deliberately slow, so it is restricted to
coarse grids.

`reference_integral` wraps adaptive Gauss-Kronrod quadrature and refuses to
return a value whose error estimate exceeds the requested tolerance.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import quad

from .problem import (
    ProblemSpec,
    ScalarField,
    discrete_laplacian,
    energy_array,
    energy_hessian_apply,
    gradient_array,
)
from .solver import ConvergenceError, SolveResult, _initial_vector


def reference_integral(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive quadrature of f over [a, b] to absolute tolerance tol."""
    val, err = quad(f, a, b, epsabs=min(tol * 1e-2, 1e-12), epsrel=1e-12, limit=500)
    if err > tol:
        raise RuntimeError(f"quadrature error estimate {err:.3e} exceeds tol {tol:.3e}")
    return float(val)


def _hessian_norm(spec: ProblemSpec, w: np.ndarray, iters: int = 60) -> float:
    """Power iteration for the spectral norm of the free-block Hessian."""
    grid = spec.grid()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(grid.node_count)
    x[grid.pinned_ids] = 0.0
    x /= np.linalg.norm(x)
    field = ScalarField(grid, w)
    lam = 1.0
    for _ in range(iters):
        y = energy_hessian_apply(field, x, spec)
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 1.0
        x = y / lam
    return lam


def brute_minimize(spec: ProblemSpec, initial: ScalarField | None = None,
                   budget: int = 1_000_000, tol: float = 1e-10,
                   refresh: int = 1000) -> SolveResult:
    """Projected gradient descent to sup-norm gradient tolerance `tol`.

    Restricted to coarse problems (h >= 1/16 and at most 2000 nodes) so the
    fixed-step iteration stays affordable. Raises ConvergenceError if the
    iteration budget is exhausted before the tolerance is met.
    """
    grid = spec.grid()
    if grid.h < 1.0 / 16 - 1e-12:
        raise ValueError("brute_minimize requires h >= 1/16")
    if grid.node_count > 2000:
        raise ValueError(f"brute_minimize limited to 2000 nodes, grid has {grid.node_count}")
    if grid.M < 2:
        raise ValueError("solving requires h <= 1/2")
    t0 = time.perf_counter()
    w = _initial_vector(spec, initial)
    free = grid.free_ids
    step = 0.9 / _hessian_norm(spec, w)
    it = 0
    gsup = np.inf
    while it < budget:
        g = gradient_array(grid, w, spec)
        gsup = float(np.abs(g[free]).max())
        if gsup <= tol:
            break
        w -= step * g  # gradient vanishes at pinned nodes, so this projects
        it += 1
        if it % refresh == 0:
            step = 0.9 / _hessian_norm(spec, w)
    else:
        raise ConvergenceError(
            f"budget of {budget} gradient steps exhausted (sup grad {gsup:.3e})",
            ScalarField(grid, w))
    u = ScalarField(grid, w, role="u")
    v = discrete_laplacian(u, boundary=spec.g)
    return SolveResult(u=u, v=v, energy=energy_array(grid, w, spec),
                       grad_sup=gsup, iterations=it, cg_iterations=0,
                       wall_time=time.perf_counter() - t0, spec=spec)
