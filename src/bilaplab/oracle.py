"""Brute-force minimizer used to pin the Newton solver's results.

`brute_minimize` shares nothing with the Newton path except the energy, its
gradient and the norm of `problem.hessian`, Newton's own generalized
Hessian. Its iterates and its stopping test read only the energy and the
gradient; the Hessian only sizes the step, 0.9 / (a power-iteration bound
on its norm), so it can change how fast the oracle converges but not the
stationarity test the oracle's answer passes. The gradient steps are
accelerated by Nesterov momentum with the gradient restart of O'Donoghue
and Candes (2015). The momentum counter resets whenever the step
x -> x_new makes an acute angle with the gradient g at the extrapolated
point, g . (x_new - x) > 0, so momentum is dropped as soon as it points
uphill and no schedule needs tuning. The iteration starts from the datum on
the pinned nodes and 0 elsewhere, not from the harmonic extension, so it
never factors the Laplacian that Newton's preconditioner uses. It is
restricted to coarse grids.
"""

from __future__ import annotations

import numpy as np

from .problem import (
    ProblemSpec,
    ScalarField,
    dirichlet_values,
    discrete_laplacian,
    energy_array,
    gradient_array,
    hessian,
)
from .solver import ConvergenceError, SolveResult

STEP_REFRESH = 1000  # gradient steps between re-estimates of the Hessian norm
MAX_STEPS = 100_000
GRAD_TOL = 1e-10  # the sup|grad J| over the free nodes at which the iteration stops


def _hessian_norm(spec: ProblemSpec, w: np.ndarray) -> float:
    """60 power-iteration steps for the spectral norm of `hessian` at w."""
    grid = spec.grid()
    H = hessian(w, spec, float(np.abs(gradient_array(w, spec)).max()))
    x = np.random.default_rng(0).standard_normal(grid.node_count)[grid.free_ids]
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(60):
        y = H @ x
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 1.0
        x = y / lam
    return lam


def brute_minimize(spec: ProblemSpec) -> SolveResult:
    """Restarted accelerated projected gradient descent to sup|grad J| <= GRAD_TOL.

    Restricted to coarse problems (h >= 1/16 and at most 2000 nodes). The
    returned `u` is the iterate whose free-node gradient met GRAD_TOL, and `v`
    is `discrete_laplacian(u)`, as for `minimize`. Raises ConvergenceError
    after MAX_STEPS gradient steps.
    """
    grid = spec.grid()
    if grid.h < 1.0 / 16 - 1e-12:
        raise ValueError("brute_minimize requires h >= 1/16")
    if grid.node_count > 2000:
        raise ValueError(f"brute_minimize limited to 2000 nodes, grid has {grid.node_count}")
    if grid.M < 2:
        raise ValueError("solving requires h <= 1/2")
    free = grid.free_ids
    x = np.zeros(grid.node_count)
    x[grid.pinned_ids] = dirichlet_values(spec)
    y = x.copy()  # the extrapolated point where the gradient is taken
    step = 0.9 / _hessian_norm(spec, x)
    k = 0  # steps since the last restart
    for it in range(MAX_STEPS):
        g = gradient_array(y, spec)
        gsup = float(np.abs(g[free]).max())
        if gsup <= GRAD_TOL:
            break
        x_new = y - step * g  # gradient vanishes at pinned nodes, so this projects
        if g @ (x_new - x) > 0.0:
            k = 0
        y = x_new + (k / (k + 3.0)) * (x_new - x)
        x = x_new
        k += 1
        if (it + 1) % STEP_REFRESH == 0:
            step = 0.9 / _hessian_norm(spec, x)
    else:
        raise ConvergenceError(
            f"{MAX_STEPS} gradient steps exhausted (sup grad {gsup:.3e})",
            ScalarField(grid, y))
    u = ScalarField(grid, y)
    return SolveResult(u=u, v=discrete_laplacian(u), energy=energy_array(y, spec),
                       grad_sup=gsup, iterations=it, spec=spec)
