"""Solver behavior: exact special cases, symmetry, oracle agreement, refinement."""

import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import bilaplab
from bilaplab import ProblemSpec, minimize, harmonic_extension, solver
from bilaplab.oracle import brute_minimize
from bilaplab.grid import SOLID_BLOCK, build_grid, sphere_quadrature
from bilaplab.problem import energy_array, gradient_array, operators, thin_reaction
from bilaplab.solver import (ConvergenceError, LinearSolveError, SolveResult,
                             _basis_laplacians, _poly_trials, _split_preconditioner,
                             el_crosscheck, weak_residual)
from bilaplab.verify import corpus_solve

ASYM = dict(p=2.0, lambda_plus=2.0, lambda_minus=0.5, g="harmonic:coeffs=1;0.2")


def _spec(h, p=2.0, lam_plus=1.0, lam_minus=1.0, g="harmonic:deg=1", **kw):
    return ProblemSpec(n=1, p=p, lambda_plus=lam_plus, lambda_minus=lam_minus,
                       g=g, h=h, **kw)


def test_zero_datum_solution_is_zero():
    result = minimize(_spec(0.125, g="zero"))
    assert np.abs(result.u.values).max() == 0.0
    assert np.abs(result.v.values).max() == 0.0
    assert result.energy == 0.0


def test_harmonic_extension_reproduces_linear_datum():
    # x is lattice-harmonic and satisfies the face reflection condition,
    # so the direct solve must return it to rounding accuracy.
    ext = harmonic_extension(_spec(0.125))
    assert np.abs(ext.values - ext.grid.nodes[:, 0]).max() < 1e-12


def test_solve_result_metadata():
    spec = _spec(0.125)
    result = minimize(spec)
    assert isinstance(result, SolveResult)
    assert result.iterations >= 1
    assert result.grad_sup <= 1e-8 * (1.0 + abs(result.energy))
    assert energy_array(result.u.values, spec) == pytest.approx(result.energy, abs=1e-14)
    assert result.u.values.shape == (spec.grid().node_count,)
    assert result.v.values.shape == result.u.values.shape


def test_symmetric_problem_has_odd_solution():
    """Equal weights and an odd datum force u(-x, y) = -u(x, y)."""
    result = minimize(_spec(0.125))
    grid = result.u.grid
    index = {(round(float(x), 9), round(float(y), 9)): i
             for i, (x, y) in enumerate(grid.nodes)}
    mirrored = np.array([index[(round(float(-x), 9), round(float(y), 9))]
                         for x, y in grid.nodes])
    assert np.abs(result.u.values + result.u.values[mirrored]).max() < 1e-10
    assert np.abs(result.v.values + result.v.values[mirrored]).max() < 1e-10


def test_agrees_with_brute_force_minimizer():
    spec = _spec(0.125)
    fast = minimize(spec)
    slow = brute_minimize(spec)
    rel = abs(fast.energy - slow.energy) / max(1.0, abs(slow.energy))
    assert rel < 1e-8
    assert np.abs(fast.u.values - slow.u.values).max() < 1e-6


def test_energy_is_cauchy_under_refinement():
    energies = [minimize(_spec(h)).energy for h in (0.125, 0.0625, 0.03125)]
    d1 = abs(energies[1] - energies[0])
    d2 = abs(energies[2] - energies[1])
    assert d2 < 0.6 * d1


def test_stationarity_residuals_shrink_under_refinement():
    reports = []
    for h in (0.125, 0.0625):
        spec = _spec(h)
        result = minimize(spec)
        reports.append((el_crosscheck(result), weak_residual(result)))
    (el1, wr1), (el2, wr2) = reports
    assert el2.harmonic_sup < 0.6 * el1.harmonic_sup
    assert el2.neumann_sup < 0.6 * el1.neumann_sup
    assert el2.natural_sup < el1.natural_sup
    assert wr2 < 0.5 * wr1


def _monomial(pts, expo, d=None):
    """x^a y^(2b) for expo = (a..., b), or its derivative along axis d."""
    powers = list(expo[:-1]) + [2 * expo[-1]]
    out = np.ones(pts.shape[0])
    for ax, k in enumerate(powers):
        if ax == d:
            out = out * (k * pts[:, ax] ** (k - 1) if k else 0.0)
        else:
            out = out * pts[:, ax] ** k
    return out


def _monomial_laplacian(pts, expo):
    powers = list(expo[:-1]) + [2 * expo[-1]]
    out = np.zeros(pts.shape[0])
    for ax, k in enumerate(powers):
        if k >= 2:
            lower = list(powers)
            lower[ax] -= 2
            out += k * (k - 1) * np.prod(pts ** np.array(lower), axis=1)
    return out


def _reference_weak_residual(result, seed=0, fd_delta=None):
    """The weak residual from per-monomial tables over all solid points at
    once: each monomial's trial value c^2 m and its Laplacian are evaluated
    once per point set, then combined with the coefficient rows. The
    Laplacian is the product rule Lap(c^2 m) = c^2 Lap(m) + 2 grad(c^2) . grad(m)
    + m Lap(c^2), c = 1 - |z|^2, or, with `fd_delta`, the centred finite
    difference of that step size."""
    spec = result.spec
    n = spec.n
    monos, table = _poly_trials(n, seed)

    def values(pts):
        cut = 1.0 - (pts ** 2).sum(axis=1)
        return np.array([cut * cut * _monomial(pts, expo) for expo in monos])

    def exact_laplacians(pts):
        cut = 1.0 - (pts ** 2).sum(axis=1)
        lap_c2 = 8.0 * (pts ** 2).sum(axis=1) - 4.0 * (n + 1) * cut
        out = []
        for expo in monos:
            grad_dot = sum(-4.0 * cut * pts[:, ax] * _monomial(pts, expo, ax)
                           for ax in range(n + 1))
            out.append(cut * cut * _monomial_laplacian(pts, expo) + 2.0 * grad_dot
                       + _monomial(pts, expo) * lap_c2)
        return np.array(out)

    def fd_laplacians(pts, delta):
        dim = pts.shape[1]
        out = -2.0 * dim * values(pts)
        for ax in range(dim):
            e = np.zeros(dim)
            e[ax] = delta
            out += values(pts + e) + values(pts - e)
        return out / delta ** 2

    quad = sphere_quadrature(spec.grid(), np.zeros(n), 1.0)
    v_solid = result.v(quad.solid_points)
    Fu = thin_reaction(result.u(quad.thin_points), spec)
    laps = table @ (exact_laplacians(quad.solid_points) if fd_delta is None
                    else fd_laplacians(quad.solid_points, fd_delta))
    phis = table @ values(quad.thin_points)
    worst = 0.0
    for lap, phi in zip(laps, phis):
        lhs = float(quad.solid_weights @ (v_solid * lap))
        rhs = float(quad.thin_weights @ (Fu * phi))
        norm = float(np.sqrt(quad.solid_weights @ lap ** 2 + quad.thin_weights @ phi ** 2))
        worst = max(worst, abs(lhs - rhs) / norm)
    return worst


@pytest.mark.parametrize("n,h", [(1, 1.0 / 41), (2, 1.0 / 11)])
def test_weak_residual_matches_the_per_trial_evaluation_exactly(n, h):
    # the chunked pass over shared monomial tables agrees with the field-by-field
    # product-rule Laplacian to rounding, and with the old finite-difference
    # Laplacian to its truncation error (about 2e-9 absolute at every h, so
    # each h is the coarsest whose quadrature takes more than one chunk)
    spec = ProblemSpec(n=n, h=h, **ASYM)
    result = minimize(spec)
    assert sphere_quadrature(spec.grid(), np.zeros(n), 1.0).solid_points.shape[0] > SOLID_BLOCK
    value = weak_residual(result, seed=7)
    assert value == pytest.approx(_reference_weak_residual(result, seed=7),
                                  rel=1e-12, abs=0.0)
    assert value == pytest.approx(
        _reference_weak_residual(result, seed=7, fd_delta=1e-4), rel=1e-5, abs=0.0)


@pytest.mark.parametrize("n,h", [(1, 1.0 / 41), (2, 1.0 / 11)])
def test_trial_laplacians_satisfy_greens_identity(n, h):
    # phi is flat on the sphere and even in y, so int_{B1+} Lap(phi) = 0, and
    # the quadrature is exact on these polynomials
    quad = sphere_quadrature(build_grid(n, h), np.zeros(n), 1.0)
    monos, coef = _poly_trials(n, 0)
    laps = coef @ _basis_laplacians(monos, quad.solid_points, n)
    norms = np.sqrt((laps * laps) @ quad.solid_weights)
    assert np.all(np.abs(laps @ quad.solid_weights) <= 1e-12 * norms)


def test_weak_residual_holds_no_trial_by_point_array():
    # n = 1 at h = 1/128 samples m = 1024 directions: N = 131 072 solid points
    # in 16 chunks; 12 trials by N doubles alone would be 12 MiB
    spec = ProblemSpec(n=1, h=1.0 / 128, **ASYM)
    result = minimize(spec)
    N = sphere_quadrature(spec.grid(), np.zeros(1), 1.0).solid_points.shape[0]
    assert N == 131072
    tracemalloc.start()
    try:
        weak_residual(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * N * 8


def _assert_local_minimum(spec, result, seed=11, step=1e-6):
    """J(u +- step phi) >= J(u) along three seeded smooth directions phi that
    vanish inside the ball of the pinned nodes."""
    grid = spec.grid()
    z = grid.nodes
    r0 = np.linalg.norm(z[grid.pinned_ids], axis=1).min()
    rng = np.random.default_rng(seed)
    for _ in range(3):
        a = rng.standard_normal(z.shape[1] + 1)
        phi = (a[0] + z @ a[1:]) * np.maximum(r0 ** 2 - (z * z).sum(axis=1), 0.0) ** 2
        assert np.all(phi[grid.pinned_ids] == 0.0)
        phi /= np.abs(phi).max()
        for sign in (1.0, -1.0):
            assert energy_array(result.u.values + sign * step * phi, spec) >= result.energy


SUBQUADRATIC = [(p, lp, lm) for p in (1.25, 1.5, 1.75) for lp, lm in ((1.0, 1.0), (2.0, 0.5))]


@pytest.mark.parametrize("p,lam_plus,lam_minus", SUBQUADRATIC)
def test_subquadratic_exponent_newton_solve_is_a_minimizer(p, lam_plus, lam_minus):
    # the clamped face curvature keeps Newton short for 1 < p < 2
    spec = _spec(1.0 / 64, p=p, lam_plus=lam_plus, lam_minus=lam_minus,
                 g=ASYM["g"])
    result = minimize(spec)
    assert result.grad_sup <= 1e-8 * (1.0 + abs(result.energy))
    assert 1 <= result.iterations <= 6
    assert result.cg_iterations <= 10 * result.iterations
    _assert_local_minimum(spec, result)


@pytest.mark.parametrize("p,lam_plus,lam_minus", [(1.5, 1.0, 1.0), (1.75, 2.0, 0.5)])
def test_subquadratic_solve_does_not_stall_at_the_rounding_floor(p, lam_plus, lam_minus):
    # At h = 1/128 the last Newton step predicts a decrease below the
    # rounding of J. Without the line search's rounding floor these two
    # stalled at sup grad ~1e-7, backtracking ~30 times a step. Whether
    # they stall depends on the rounding of J, and so on the BLAS thread
    # count: the solve runs in a child process with one thread.
    code = ("from bilaplab import ProblemSpec, minimize\n"
            f"r = minimize(ProblemSpec(n=1, h=1 / 128, p={p}, lambda_plus={lam_plus}, "
            f"lambda_minus={lam_minus}, g={ASYM['g']!r}, max_iter=30))\n"
            "print(r.iterations, r.grad_sup <= 1e-8 * (1.0 + abs(r.energy)))\n")
    src = str(Path(bilaplab.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-400:]
    iterations, converged = child.stdout.split()
    assert converged == "True" and int(iterations) <= 6


def test_subquadratic_energy_matches_the_descent_value():
    # the value the earlier gradient-descent solver reached for this problem
    spec = _spec(1.0 / 16, p=1.5, lam_plus=2.0, lam_minus=0.5, g=ASYM["g"])
    assert abs(minimize(spec).energy - 1.4885050785900) <= 1e-11


# p -> (h, lambda+, lambda-): at p = 3 and h = 1/32 the free boundary crosses no node
TRACE_CASES = {1.5: (1.0 / 32, 2.0, 0.5), 3.0: (1.0 / 64, 4.0, 0.25)}


@pytest.mark.parametrize("p", sorted(TRACE_CASES))
def test_trace_records_every_newton_step(p):
    h, lam_plus, lam_minus = TRACE_CASES[p]
    spec = _spec(h, p=p, lam_plus=lam_plus, lam_minus=lam_minus, g=ASYM["g"])
    start = harmonic_extension(spec).values
    result = minimize(spec)
    trace = result.trace
    assert len(trace) == result.iterations >= 1
    assert sum(s.cg_steps for s in trace) == result.cg_iterations
    assert trace[0].energy == energy_array(start, spec)
    assert trace[0].grad_sup == np.abs(gradient_array(start, spec)).max()
    energies = [s.energy for s in trace] + [result.energy]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    for s in trace:
        assert s.step == 0.5 ** s.backtracks and s.cg_steps >= 1
    # a node may flip back and forth, so the flips bound the net sign changes;
    # u_start(0, 0) is 0 in exact arithmetic (x + 0.2 (x^2 - y^2) is discrete-
    # harmonic), so its sign is rounding and only nodes above the solve's
    # rounding floor eps h^-4 max(1, sup|u_start|) count
    thin = spec.grid().thin_ids
    floor = np.finfo(float).eps / h ** 4 * max(1.0, np.abs(start[thin]).max())
    sure = np.abs(start[thin]) > floor
    net = np.count_nonzero(np.sign(start[thin][sure]) != np.sign(result.u.values[thin][sure]))
    assert sum(s.phase_flips for s in trace) >= net >= 1


ODD_CASES = {"sym-p2": (2.0, "harmonic:deg=1"), "sym-p3": (3.0, "harmonic:deg=1"),
             "trig-sin3": (2.0, "trig:freq=3,kind=sin")}


@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32, 1.0 / 64])
@pytest.mark.parametrize("tag", sorted(ODD_CASES))
def test_odd_problems_flip_no_phase(tag, h):
    # u(0) of an odd problem is 0 in exact arithmetic and the solve changes only
    # its rounding, which face_phase reads as phase 0; the sign test counted 1-2 flips
    p, g = ODD_CASES[tag]
    result = minimize(_spec(h, p=p, g=g))
    assert [s.phase_flips for s in result.trace] == [0] * result.iterations


# odd problems at p < 2: the trace at x = 0 is 0 in exact arithmetic, and Newton
# on |u|^p maps a rounding-sized u to u (1 - 1/(p - 1)), which never shrinks it;
# each step sets the face nodes of phase 0 to 0
ODD_SUBQUADRATIC = (
    [(1, h_inv, p, lam, g) for lam in (1.0, 16.0)
     for g in ("harmonic:deg=1", "trig:freq=3,kind=sin")
     for p in (1.25, 1.5) for h_inv in (16, 32, 64)]
    + [(2, h_inv, p, 1.0, "harmonic:deg=1") for p in (1.25, 1.5) for h_inv in (8, 12, 16)])


@pytest.mark.parametrize("n,h_inv,p,lam,g", ODD_SUBQUADRATIC)
def test_odd_problems_below_p_2_solve(n, h_inv, p, lam, g):
    result = minimize(ProblemSpec(n=n, h=1.0 / h_inv, p=p, lambda_plus=lam,
                                  lambda_minus=lam, g=g))
    assert result.grad_sup <= 1e-8 * (1.0 + abs(result.energy))
    # lambda = 16, trig:freq=3,kind=sin, p = 1.5, h = 1/16 takes 13 steps; the others 2-3
    assert result.iterations <= 13


def test_solver_errors_carry_the_trace(monkeypatch):
    spec = _spec(1.0 / 16, p=1.5, max_iter=1)
    with pytest.raises(ConvergenceError) as caught:
        minimize(spec)
    assert len(caught.value.trace) == 1 and caught.value.iterate is not None

    real_cg = solver.spla.cg
    calls = []

    def stall_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            return np.zeros_like(args[1]), 7
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "cg", stall_second)
    with pytest.raises(LinearSolveError, match="info=7") as caught:
        minimize(_spec(0.125, p=3.0))  # needs two Newton steps
    assert len(caught.value.trace) == 1
    assert caught.value.trace[0].cg_steps >= 1


def test_coarse_grid_rejected():
    with pytest.raises(ValueError, match="requires h"):
        minimize(_spec(1.0))


def test_cg_steps_per_newton_step_do_not_grow_as_h_shrinks():
    # the Hessian is 2 Kff plus a face diagonal, and the preconditioner
    # inverts 2 Kff exactly, so the CG count is bounded independently of h
    per_step = []
    for h in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        result = minimize(ProblemSpec(n=1, h=h, **ASYM))
        assert result.iterations >= 1
        per_step.append(result.cg_iterations / result.iterations)
    assert max(per_step) <= 10
    assert per_step[2] <= per_step[1] <= per_step[0]


def test_split_preconditioner_inverts_twice_kff():
    grid = ProblemSpec(n=1, h=1.0 / 16, **ASYM).grid()
    free = grid.free_ids
    Kff = operators(grid).K[free][:, free].tocsc()
    x = np.random.default_rng(4).standard_normal(free.size)
    got = _split_preconditioner(grid).matvec(x)
    want = spla.spsolve(2.0 * Kff, x)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _laplace_matrix(grid):
    return operators(grid).L[:, grid.free_ids].tocsc()


@pytest.mark.parametrize("n,h_inv", [(1, 8), (1, 41), (1, 64), (2, 11), (2, 16)])
def test_the_symmetrizer_makes_the_reflected_laplacian_symmetric(n, h_inv):
    # D = omega / h^(n+1): 1 off the face and 1/2 on the thin rows
    grid = ProblemSpec(n=n, h=1.0 / h_inv).grid()
    D = operators(grid).omega / grid.h ** (grid.n + 1)
    assert set(np.unique(D)) == {0.5, 1.0}
    DL = _laplace_matrix(grid).multiply(D[:, None]).tocsr()
    assert abs(DL - DL.T).max() == 0.0


@pytest.mark.parametrize("n,h_inv", [(1, 41), (1, 64), (2, 12)])
def test_split_preconditioner_is_the_plain_and_transposed_split(n, h_inv):
    # the two transposed solves against 1/2 L_ff^-1 Omega^-1 L_ff^-T x,
    # with SuperLU's plain solve for L_ff^-1
    grid = ProblemSpec(n=n, h=1.0 / h_inv).grid()
    lu, omega = solver._laplace_factor(grid), operators(grid).omega
    M = _split_preconditioner(grid)
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal(omega.size)
        want = 0.5 * lu.solve(lu.solve(x, trans="T") / omega)
        assert np.linalg.norm(M.matvec(x) - want) <= 1e-13 * np.linalg.norm(want)


# corpus energies of the solver before its CG floor and transposed solves
# (plain solve in the preconditioner and the initial iterate, CG to rtol 1e-10)
CORPUS_ENERGIES = {
    ("sym-p2", 32): 0.6622498363311462, ("sym-p2", 64): 0.6615923826345473,
    ("asym-p2", 32): 0.9863078587567031, ("asym-p2", 64): 0.984327589997906,
    ("sym-p3", 32): 0.33198957661981904, ("sym-p3", 64): 0.331542921095906,
}


@pytest.mark.parametrize("tag,h_inv", sorted(CORPUS_ENERGIES))
def test_corpus_energies_are_those_of_the_full_inner_solve(tag, h_inv):
    energy = corpus_solve(tag, h_inv).energy
    assert abs(energy - CORPUS_ENERGIES[tag, h_inv]) <= 1e-12 * CORPUS_ENERGIES[tag, h_inv]


def test_cg_floor_saves_inner_steps_and_no_newton_step():
    # before the floor: 2 Newton steps of 5 CG steps each
    result = corpus_solve("asym-p2", 64)
    assert result.iterations == 2
    assert result.cg_iterations < 10
    assert result.grad_sup <= 1e-8 * (1.0 + abs(result.energy))


def test_laplace_factor_fills_less_than_the_column_ordering():
    grid = ProblemSpec(n=1, h=1.0 / 64, **ASYM).grid()
    lu = solver._laplace_factor(grid)
    colamd = spla.splu(_laplace_matrix(grid))
    assert lu.L.nnz + lu.U.nnz < 0.7 * (colamd.L.nnz + colamd.U.nnz)


def test_laplace_factor_solves_the_reflected_laplacian():
    grid = ProblemSpec(n=1, h=1.0 / 64, **ASYM).grid()
    A = _laplace_matrix(grid)
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    lu = solver._laplace_factor(grid)
    for trans, op in (("N", A), ("T", A.T)):
        x = lu.solve(b, trans=trans)
        assert np.linalg.norm(op @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_specs_on_one_lattice_share_one_grid():
    first = ProblemSpec(n=1, h=1.0 / 16, **ASYM)
    second = _spec(1.0 / 16, p=3.0)
    assert second.grid() is first.grid()


@pytest.mark.parametrize("change", [dict(h=1.0 / 32), dict(n=2)])
def test_a_replaced_spec_solves_on_its_own_lattice(change):
    """The grid a spec keeps is not an init field: `dataclasses.replace` of a
    spec that built its grid gets the grid of its own (n, h), and no caller
    can hand a spec a grid."""
    spec = _spec(1.0 / 16)
    spec.grid()
    other = dataclasses.replace(spec, **change)
    result = minimize(other)
    assert (result.u.grid.n, result.u.grid.h) == (other.n, other.h)
    assert result.u.grid is build_grid(other.n, other.h)
    assert spec.grid().h == 1.0 / 16 and spec.grid().n == 1
    with pytest.raises(TypeError, match="_grid"):
        ProblemSpec(_grid=spec.grid())


def _counting_splu(monkeypatch):
    """Patch the solver's `splu`; returns the list of the number of Laplace
    factors alive at each call."""
    alive = []
    real = spla.splu

    def counted(*args, **kwargs):
        alive.append(len(solver._factors))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counted)
    return alive


def test_second_solve_on_a_grid_reuses_its_laplace_factor(monkeypatch):
    # A, B, A: one detour keeps A's grid, and with it A's operators and factor
    alive = _counting_splu(monkeypatch)
    first = minimize(_spec(1.0 / 10))
    minimize(_spec(1.0 / 12))
    again = minimize(_spec(1.0 / 10, p=3.0))
    minimize(_spec(1.0 / 12, p=3.0))
    assert again.u.grid is first.u.grid
    assert len(alive) == 2  # once for A and once for B


def test_one_laplace_factor_is_kept_across_grids(monkeypatch):
    # A, B, C with no caller holding A: building C's grid drops A's, which
    # refcounting frees with its factor before C is factored
    solver._factors.clear()  # the factors of grids that other tests still hold
    alive = _counting_splu(monkeypatch)
    collecting = gc.isenabled()
    gc.disable()
    try:
        grid_a = weakref.ref(minimize(_spec(1.0 / 14)).u.grid)
        minimize(_spec(1.0 / 18))
        assert grid_a() is not None
        minimize(_spec(1.0 / 20))
        assert grid_a() is None
    finally:
        if collecting:
            gc.enable()
    assert alive == [0, 1, 1]
    failing = _spec(1.0 / 20, p=3.0, max_iter=1)  # needs two Newton steps
    lu = solver._laplace_factor(failing.grid())
    with pytest.raises(ConvergenceError):
        minimize(failing)
    assert solver._factors[failing.grid()] is lu
    assert len(alive) == 3


def test_a_reused_factor_solves_to_the_same_bits():
    spec = ProblemSpec(n=1, h=1.0 / 32, **ASYM)
    minimize(_spec(1.0 / 32, p=3.0))  # leaves the factor of this grid
    reused = minimize(spec)
    minimize(_spec(1.0 / 16, p=3.0))  # one detour to another lattice
    returned = minimize(ProblemSpec(n=1, h=1.0 / 32, **ASYM))
    assert returned.u.grid is reused.u.grid
    solver._factors.clear()
    fresh = minimize(ProblemSpec(n=1, h=1.0 / 32, **ASYM))
    for result in (reused, returned):
        assert np.array_equal(result.u.values, fresh.u.values)
        assert result.energy == fresh.energy
        assert result.cg_iterations == fresh.cg_iterations


@pytest.mark.parametrize("h", [1.0 / 8, 1.0 / 16])
def test_two_dimensional_face_solve_is_a_minimizer(h):
    spec = ProblemSpec(n=2, h=h, **ASYM)
    result = minimize(spec)
    assert result.grad_sup <= 1e-8 * (1.0 + abs(result.energy))
    assert 1 <= result.iterations and result.cg_iterations <= 10 * result.iterations
    _assert_local_minimum(spec, result)
