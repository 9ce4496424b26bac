"""Minimization of the discrete energy and Euler-Lagrange diagnostics.

`minimize` runs one damped semismooth Newton method with Armijo
backtracking for every p > 1. Each step solves with `problem.hessian`, the
one generalized Hessian: 2 Kff on the index arrays of `operators(grid).Kff`
with the nonnegative face diagonal of `problem.face_hessian_diagonal` added at
its thin-node diagonal entries (`operators(grid).thin_slots`), where
Kff = L_ff^T diag(omega) L_ff and L_ff is the reflected Dirichlet Laplacian
(the Ciarlet-Raviart splitting into two Poisson operators). For 1 < p < 2
the reaction derivative is unbounded at the sign change, so that diagonal
uses max(|u|, delta)^(p-2) with delta = 1e-3 sup|grad J|; the energy, the
gradient, the Armijo test and the stopping rule stay those of the true
problem. CG solves each Newton system preconditioned with (2 Kff)^-1, two
transposed solves with one LU of L_ff, so its step count stays small at
every h and every p. That LU is factored in SuperLU's symmetric mode
(minimum-degree ordering on L_ff + L_ff^T, no pivoting), which holds about
half the fill of the default column ordering. Every solve with it is a
transposed solve, SuperLU's faster path: D L_ff is symmetric for
D = omega / h^(n+1), so L_ff^-1 y = D^-1 L_ff^-T (D y). The factor, like
Kff, depends on the grid alone and lives exactly as long as its grid:
`build_grid` hands every spec with the same (n, h) one grid and keeps the
two most recent lattices, and `_laplace_factor` keys the factor by that
grid, so L_ff is factored once per lattice while the lattice stays alive,
also across one solve on another lattice.

CG stops once its residual's 2-norm is below CG_FLOOR = 0.1 times the
Newton tolerance: for the quadratic model that residual is the next
gradient, and a smaller one cannot change the sup-norm stopping test
(inexact Newton, Dembo-Eisenstat-Steihaug).

Near a p < 2 minimizer a Newton step can predict a decrease below the
rounding of J, where Armijo compares noise; the unit step is then taken
when that prediction and the change of J are both within 1e-13 (1 + |J|).
For p < 2 each step also sets the face nodes of `face_phase` 0 to exactly
0. A Newton step on c|u|^p maps u to u (1 - 1/(p - 1)), so it never
shrinks a trace that is 0 up to rounding, as u(0) of an odd problem is,
and the gradient 2 face_w lambda |u|^(p-1) there stayed above the
tolerance.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .grid import SOLID_BLOCK, THIN, sphere_quadrature
from .problem import (
    ProblemSpec,
    ScalarField,
    dirichlet_values,
    discrete_laplacian,
    energy_array,
    face_phase,
    gradient_array,
    hessian,
    operators,
    thin_reaction,
)

ARMIJO_SLOPE = 1e-4
CG_FLOOR = 0.1  # CG's residual 2-norm target, as a share of the Newton tolerance
MAX_BACKTRACKS = 50
ROUNDING_FLOOR = 1e-13  # relative size of changes of J taken as rounding
_TRIALS = 12  # random test fields of the weak residual


@dataclass(frozen=True)
class NewtonStep:
    """One Newton step: the iterate it starts from and what the step did."""

    energy: float     # J at the start of the step
    grad_sup: float   # sup|grad J| over the free nodes there
    step: float       # accepted step length, 1 halved `backtracks` times
    backtracks: int
    cg_steps: int     # inner CG steps of the Newton system
    phase_flips: int  # free face nodes whose `face_phase` of u the step changed


class SolverError(RuntimeError):
    """Base for solver failures; carries the last iterate and the Newton steps taken."""

    def __init__(self, message: str, iterate: ScalarField | None = None,
                 trace: list[NewtonStep] | None = None):
        super().__init__(message)
        self.iterate = iterate
        self.trace = trace or []


class LineSearchError(SolverError):
    pass


class LinearSolveError(SolverError):
    pass


class ConvergenceError(SolverError):
    pass


@dataclass
class SolveResult:
    """Converged minimizer u, its lattice Laplacian v, and solve metadata."""

    u: ScalarField
    v: ScalarField
    energy: float
    grad_sup: float
    iterations: int
    spec: ProblemSpec
    trace: list[NewtonStep] = field(default_factory=list)  # one record per Newton step

    @property
    def cg_iterations(self) -> int:
        """Inner CG steps summed over `trace`; 0 for an empty trace."""
        return sum(step.cg_steps for step in self.trace)


_factors = weakref.WeakKeyDictionary()  # grid -> the LU of its L_ff, while the grid lives


def _laplace_factor(grid):
    """Sparse LU of the reflected Dirichlet Laplacian L_ff of `grid`.

    The factor is kept in `_factors` for as long as the grid lives, and goes
    with it: 216k nonzeros at n = 1, h = 1/64, and 1.46M at n = 2, h = 1/16.
    `build_grid` decides which lattices stay alive. It keeps the two most
    recent, and a third lattice drops the least recent grid when it is
    built, before anything is factored on it; a grid holds no reference
    cycle, so it is freed, factor included, at once. So unless a caller
    still holds an older grid, SuperLU factors beside at most one other
    factor. That matters: SuperLU sizes its storage from a fill estimate
    (about 24 MB of heap at n = 1, h = 1/64, for 2.5 MB of L and U), and
    factoring while the factor of the grid being replaced was still held,
    as a `functools.lru_cache` over factors would, raised the peak RSS of
    a `sweep-n1` benchmark run from 73 to 79 MB.

    L_ff has a symmetric pattern, and its rows are weakly diagonally dominant,
    so elimination needs no pivoting. SuperLU therefore runs in its
    symmetric mode: minimum-degree ordering on A + A^T, the same permutation
    for rows and columns, and no partial pivoting. The default
    COLAMD ordering ignores the symmetric pattern; it filled the factor with
    about twice as many nonzeros (366k -> 216k at n = 1, h = 1/64, and
    2.97M -> 1.46M at n = 2, h = 1/16), and every preconditioner
    application solves with both triangles.
    """
    lu = _factors.get(grid)
    if lu is None:
        # pass no relax= or panel_size=: they do not reduce the fill of L_ff, and
        # changing them between factorizations in one process has crashed
        # SuperLU with a corrupted heap (exit 139)
        lu = _factors[grid] = spla.splu(operators(grid).L[:, grid.free_ids].tocsc(),
                                        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                        options=dict(SymmetricMode=True))
    return lu


def _split_preconditioner(grid) -> spla.LinearOperator:
    """(2 Kff)^-1 = 1/2 L_ff^-1 diag(omega)^-1 L_ff^-T, as two transposed solves.

    With D = omega / h^(n+1) (1, and 1/2 on the thin rows), D L_ff is
    symmetric, so L_ff^-1 y = D^-1 L_ff^-T (D y) and
    (2 Kff)^-1 x = 1/2 h^-(n+1) D^-1 L_ff^-T (L_ff^-T x) = L_ff^-T (L_ff^-T x) / (2 omega).
    SuperLU's transposed solve with the symmetric-mode factor of L_ff is
    the faster of its two (see the README's cost of the Newton solve).
    """
    lu, scale = _laplace_factor(grid), 0.5 / operators(grid).omega
    # dtype given, so scipy does not apply the operator to a zero vector to find it
    return spla.LinearOperator(
        (scale.size, scale.size), dtype=np.float64,
        matvec=lambda x: scale * lu.solve(lu.solve(np.ravel(x), trans="T"), trans="T"))


def harmonic_extension(spec: ProblemSpec) -> ScalarField:
    """Solve the lattice Laplace equation with the problem's Dirichlet data.

    Used as the default initial iterate: it already matches the boundary
    values and satisfies the face reflection condition. It solves with
    `_laplace_factor(grid)`, which the Newton preconditioner then reuses; the
    factor lives as long as the grid. Like the preconditioner it takes the
    transposed solve: L_ff^-1 rhs = D^-1 L_ff^-T (D rhs), with D the
    symmetrizer omega / h^(n+1) of `_split_preconditioner`.
    """
    grid = spec.grid()
    ops = operators(grid)
    g = dirichlet_values(spec)
    rhs = -(ops.L_pinned @ g)
    D = ops.omega / grid.h ** (grid.n + 1)
    w = np.zeros(grid.node_count)
    w[grid.pinned_ids] = g
    w[grid.free_ids] = _laplace_factor(grid).solve(D * rhs, trans="T") / D
    return ScalarField(grid, w)


def _newton(spec: ProblemSpec, w: np.ndarray):
    grid = spec.grid()
    free, thin = grid.free_ids, grid.thin_ids
    E = free.size
    on_thin = grid.node_class[grid.face_ids] == THIN
    phase = face_phase(grid, w)[on_thin]
    M = _split_preconditioner(grid)
    trace: list[NewtonStep] = []
    cg_steps = 0

    def count(_):
        nonlocal cg_steps
        cg_steps += 1

    def failure(kind, message):
        return kind(message, ScalarField(grid, w), trace)

    for it in range(spec.max_iter + 1):
        if spec.p < 2.0:
            # a trace within rounding of 0 is 0: Newton on |u|^p does not shrink it
            w[thin[phase == 0]] = 0.0
        # near-overflow data: the finiteness test below is the one report
        with np.errstate(over="ignore", invalid="ignore"):
            J = energy_array(grid, w, spec)
            g = gradient_array(grid, w, spec)
        gf = g[free]
        gsup = float(np.abs(gf).max()) if E else 0.0
        if not (np.isfinite(J) and np.isfinite(gsup)):
            raise failure(SolverError, f"energy {J:.3e} or sup grad {gsup:.3e} is not finite")
        tol = spec.tol_grad if spec.tol_grad is not None else 1e-8 * (1.0 + abs(J))
        if gsup <= tol:
            return w, J, gsup, trace
        if it == spec.max_iter:
            raise failure(ConvergenceError, f"no convergence in {spec.max_iter} Newton "
                          f"steps (sup grad {gsup:.3e})")

        cg_steps = 0
        d, info = spla.cg(hessian(grid, w, spec, gsup), -gf, rtol=1e-10, atol=CG_FLOOR * tol,
                          maxiter=10 * E, M=M, callback=count)
        if info != 0:
            raise failure(LinearSolveError, f"conjugate gradient stalled (info={info})")

        slope = float(gf @ d)
        if slope >= 0.0:
            raise failure(LineSearchError, "Newton direction is not a descent direction")
        # Armijo halving from the unit step; the first trial also passes when
        # both the predicted decrease and the change of J are rounding
        floor = ROUNDING_FLOOR * (1.0 + abs(J))
        t = 1.0
        for backtracks in range(MAX_BACKTRACKS):
            w_try = w.copy()
            w_try[free] += t * d
            with np.errstate(over="ignore", invalid="ignore"):
                E_try = energy_array(grid, w_try, spec)
            if E_try <= J + ARMIJO_SLOPE * t * slope or (
                    backtracks == 0 and -slope <= floor and E_try - J <= floor):
                break
            t *= 0.5
        else:
            raise failure(LineSearchError, f"line search exhausted {MAX_BACKTRACKS} halvings")
        phase_try = face_phase(grid, w_try)[on_thin]
        flips = int(np.count_nonzero(phase_try != phase))
        trace.append(NewtonStep(J, gsup, t, backtracks, cg_steps, flips))
        w, phase = w_try, phase_try


def minimize(spec: ProblemSpec) -> SolveResult:
    """Minimize the discrete energy subject to the Dirichlet datum.

    Newton starts from `harmonic_extension(spec)`. Returns a SolveResult
    whose `u` satisfies sup|grad J| <= tolerance on the free nodes and whose
    `v` is `discrete_laplacian(u)`: the reflected star stencil at free nodes
    and 0 in the pinned band (v = 0 on the sphere). Each Newton step is one
    CG solve preconditioned by the split Laplacian factor, stopped at
    CG_FLOOR times the Newton tolerance; `trace` records every step and
    `cg_iterations` sums their CG steps. The factor is
    `_laplace_factor(grid)`: every later solve on the same grid reuses it,
    and it is kept after this call returns, failed solves included, for as
    long as the grid lives (at n = 2, h = 1/16 that is 1.46M nonzeros).
    `build_grid` keeps the two most recent lattices, so a solve that returns
    to a lattice after one solve on another keeps its grid and factor. An
    energy or sup|grad J| that is not finite, as a datum near overflow
    gives, ends the solve in a SolverError.
    """
    grid = spec.grid()
    if grid.M < 2:
        raise ValueError("solving requires h <= 1/2")
    w, J, gsup, trace = _newton(spec, harmonic_extension(spec).values)
    u = ScalarField(grid, w)
    return SolveResult(u=u, v=discrete_laplacian(u), energy=J, grad_sup=gsup,
                       iterations=len(trace), spec=spec, trace=trace)


# ---------------------------------------------------------------------------
# Euler-Lagrange cross-checks


@dataclass
class ELReport:
    """Sup norms of the three strong-form residuals of a solve.

    harmonic_sup  |doubled-arm lattice Laplacian of v| at interior nodes at
                  least 2h from the boundaries, restricted to a fixed
                  compact core (v should be harmonic there)
    neumann_sup   |one-sided d/dy of v - F(u)| on the thin face, away from
                  the two corner points (the reaction balance transmitted
                  across the face)
    natural_sup   |v| at free nodes within 2h of the sphere (v vanishes on
                  the sphere in the continuum; discretely O(h))

    All three decrease under h-refinement for h <= 1/8.

    Two measurement choices keep these residuals discretization-limited.
    First, the harmonicity check uses arms of length 2h: with single arms
    it would be the solver's own stationarity residual divided by 2h^2
    (identically zero for the exact discrete minimizer, so it would report
    only floor noise amplified like h^-2). Second, both the harmonicity and
    Neumann checks stay a fixed distance away from where v is singular (the
    free boundary on the face, and the two corner points, where mixed
    boundary conditions meet): consistent stencils evaluated at lattice
    distance from those points see truncation terms that grow as h shrinks,
    an O(1) boundary layer of fixed lattice width. Inside fixed margins the
    layer exits the window and every residual decays.
    """

    harmonic_sup: float
    neumann_sup: float
    natural_sup: float


def el_crosscheck(result: SolveResult, spec: ProblemSpec) -> ELReport:
    """Strong-form Euler-Lagrange residuals of a converged solve."""
    grid = spec.grid()
    u, v = result.u.values, result.v.values
    M = grid.M

    lat = grid.lattice[grid.free_ids]
    cen = lat.astype(np.int64).copy()
    cen[:, :-1] -= M
    r2 = (cen * cen).sum(axis=1)
    pts = grid.nodes[grid.free_ids]
    rad = np.linalg.norm(pts, axis=1)
    deep = ((lat[:, -1] >= 2) & (r2 <= (M - 2) ** 2)
            & (pts[:, -1] >= 0.25 - 1e-12) & (rad <= 0.75 + 1e-12))  # the core
    sel = grid.free_ids[deep]
    if sel.size:
        acc = -2.0 * (grid.n + 1) * v[sel]
        for ax in range(grid.n + 1):
            for d in (2, -2):
                acc = acc + v[grid.neighbours(sel, ax, d)]
        harmonic_sup = float(np.abs(acc).max()) / (2.0 * grid.h) ** 2
    else:
        harmonic_sup = 0.0

    thin = grid.thin_ids
    xnorm = np.linalg.norm(grid.nodes[thin, :-1], axis=1)
    thin = thin[xnorm <= 0.75 + 1e-12]  # 1/4 away from the corners
    i1, i2 = (grid.neighbours(thin, grid.n, k) for k in (1, 2))  # the rows y = h, 2h
    dyv = (-3.0 * v[thin] + 4.0 * v[i1] - v[i2]) / (2.0 * grid.h)
    neumann_sup = float(np.abs(dyv - thin_reaction(u[thin], spec)).max()) if thin.size else 0.0

    rim = (lat[:, -1] >= 1) & (r2 > (M - 2) ** 2)
    natural_sup = float(np.abs((v[grid.free_ids])[rim]).max()) if rim.any() else 0.0

    return ELReport(harmonic_sup=harmonic_sup, neumann_sup=neumann_sup,
                    natural_sup=natural_sup)


def _poly_trials(n: int, seed: int):
    """Monomials x^a (y^2)^b of total degree <= 3, as exponent tuples (a..., b),
    and a (_TRIALS, K) table of random coefficients, one row per test field."""
    monos = []
    for total in range(4):
        if n == 1:
            monos += [(a, total - a) for a in range(total + 1)]
        else:
            monos += [(a, b, total - a - b)
                      for a in range(total + 1) for b in range(total + 1 - a)]
    return monos, np.random.default_rng(seed).standard_normal((_TRIALS, len(monos)))


def _power_tables(pts: np.ndarray, n: int):
    """Monomial tables at pts: x_ax^a and (y^2)^b for a, b <= 3, and 1 - |z|^2."""
    x = pts[:, :n]
    y2 = pts[:, -1] ** 2
    xs = [[x[:, ax] ** a for a in range(4)] for ax in range(n)]
    return xs, [y2 ** b for b in range(4)], 1.0 - (pts ** 2).sum(axis=1)


def _monomial(expo, xs, ys) -> np.ndarray:
    """x^a (y^2)^b from the power tables, for expo = (a..., b)."""
    term = ys[expo[-1]]
    for ax, table in enumerate(xs):
        term = term * table[expo[ax]]
    return term


def _basis_values(monos, pts: np.ndarray, n: int) -> np.ndarray:
    """c^2 m, c = 1 - |z|^2, for every monomial m at pts, (K, N): flat on the
    sphere, even in y."""
    xs, ys, cut = _power_tables(pts, n)
    return np.array([_monomial(expo, xs, ys) for expo in monos]) * (cut * cut)


def _basis_laplacians(monos, pts: np.ndarray, n: int) -> np.ndarray:
    """Exact Laplacian of c^2 m for every monomial m at pts, (K, N).

    For m = x^a y^(2b) of degree d = |a| + 2b, Euler's identity z . grad m = d m
    gives  Lap(c^2 m) = c^2 Lap(m) + (8 |z|^2 - (8 d + 4 (n + 1)) c) m.
    """
    xs, ys, cut = _power_tables(pts, n)
    r2 = 1.0 - cut
    c2 = cut * cut
    out = np.empty((len(monos), cut.size))
    for k, expo in enumerate(monos):
        lap = np.zeros(cut.size)
        for ax in range(n):
            a = expo[ax]
            if a >= 2:
                lower = list(expo)
                lower[ax] -= 2
                lap += a * (a - 1) * _monomial(lower, xs, ys)
        b = expo[-1]
        if b >= 1:
            lap += 2 * b * (2 * b - 1) * _monomial(expo[:-1] + (b - 1,), xs, ys)
        d = sum(expo[:-1]) + 2 * b
        out[k] = c2 * lap + (8.0 * r2 - (8 * d + 4 * (n + 1)) * cut) * _monomial(expo, xs, ys)
    return out


def weak_residual(result: SolveResult, spec: ProblemSpec, seed: int = 0) -> float:
    """Max normalized weak-form defect of a solve over _TRIALS random test fields.

    For test fields phi vanishing to second order on the sphere and even in
    y, a minimizer satisfies  int Lap(u) Lap(phi) = int_face F(u) phi. Both
    sides are evaluated with the unit ball's `sphere_quadrature`, sized by h
    and independent of the solver's own discrete algebra (v and u enter
    through interpolation), so the defect measures consistency, not the
    solver's optimality; it decays like O(h).

    The test fields are phi = (1 - |z|^2)^2 P(x, y^2) with random cubic P,
    and their Laplacians are taken in closed form (`_basis_laplacians`), with
    no finite differences. The solid integrals are reduced in one pass over
    blocks of `grid.SOLID_BLOCK` points, reading v on each block only, so no
    array of trials by solid points and no v over all solid points is held.
    """
    grid = spec.grid()
    quad = sphere_quadrature(grid, np.zeros(grid.n), 1.0)
    monos, coef = _poly_trials(grid.n, seed)
    pts, wts = quad.solid_points, quad.solid_weights
    lhs = np.zeros(_TRIALS)
    norm2 = np.zeros(_TRIALS)
    for lo in range(0, pts.shape[0], SOLID_BLOCK):
        chunk = pts[lo:lo + SOLID_BLOCK]
        w = wts[lo:lo + SOLID_BLOCK]
        lap = coef @ _basis_laplacians(monos, chunk, grid.n)
        lhs += lap @ (w * result.v(chunk))
        norm2 += (lap * lap) @ w
    phi = coef @ _basis_values(monos, quad.thin_points, grid.n)
    Fu = thin_reaction(result.u(quad.thin_points), spec)
    rhs = phi @ (quad.thin_weights * Fu)
    norm = np.sqrt(norm2 + (phi * phi) @ quad.thin_weights)
    return float((np.abs(lhs - rhs) / norm).max(initial=0.0))
