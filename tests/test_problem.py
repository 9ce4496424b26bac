"""Problem description: boundary data, energy, gradient, thin reaction."""

import numpy as np
import pytest

from bilaplab.problem import (
    BoundaryDatum,
    ProblemSpec,
    ScalarField,
    dirichlet_values,
    discrete_laplacian,
    energy_array,
    face_hessian_diagonal,
    gradient_array,
    hessian,
    operators,
    thin_reaction,
)


def _spec(**kw):
    base = dict(n=1, p=2.0, lambda_plus=1.0, lambda_minus=1.0, g="zero", h=0.125)
    base.update(kw)
    return ProblemSpec(**base)


# ---------------------------------------------------------------------------
# boundary data


def test_boundary_datum_families():
    pts = np.array([[0.6, 0.8], [-0.6, 0.8], [1.0, 0.0]])
    x, y = pts[:, 0], pts[:, 1]
    lin = BoundaryDatum("harmonic:deg=1")
    assert np.allclose(lin(pts), x)
    # coefficient list starts at degree 1: x + 0.2 Re((x+iy)^2)
    combo = BoundaryDatum("harmonic:coeffs=1;0.2")
    assert np.allclose(combo(pts), x + 0.2 * (x ** 2 - y ** 2))
    zero = BoundaryDatum("zero")
    assert np.allclose(zero(pts), 0.0)


def test_boundary_datum_trig():
    g = BoundaryDatum("trig:freq=2,amp=0.5")
    pts = np.array([[0.6, 0.8], [-1.0, 0.0]])
    expected = 0.5 * np.cos(2 * pts[:, 0]) * np.cosh(2 * pts[:, 1])
    assert np.allclose(g(pts), expected, atol=1e-14)


def test_boundary_datum_tabulated():
    """Three samples pin the datum at angles 0, pi/2, pi."""
    g = BoundaryDatum("tabulated:values=1;0;-1")
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(g(pts), [1.0, 0.0, -1.0])


def test_boundary_datum_errors():
    with pytest.raises(ValueError, match="family"):
        BoundaryDatum("fourier:deg=1")
    with pytest.raises(ValueError, match="zero"):
        BoundaryDatum("zero:deg=1")
    with pytest.raises(ValueError, match="at least two"):
        BoundaryDatum("tabulated:values=1")


def test_spec_validation():
    with pytest.raises(ValueError, match="p > 1"):
        _spec(p=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        _spec(lambda_plus=-1.0)
    with pytest.raises(ValueError, match="must be 1 or 2"):
        _spec(n=3)
    # a vanishing weight is allowed: it turns that phase off
    assert _spec(lambda_minus=0.0).lambda_minus == 0.0
    # the datum is a family string; a callable is refused by name
    with pytest.raises(TypeError, match="datum g must be a family string"):
        _spec(g=lambda pts: pts[:, 0])


def test_dirichlet_values_evaluated_at_nodes():
    spec = _spec(g="harmonic:deg=1")
    grid = spec.grid()
    vals = dirichlet_values(spec)
    pinned = grid.pinned_ids
    assert vals.shape == (len(pinned),)
    assert np.allclose(vals, grid.nodes[pinned, 0])


# ---------------------------------------------------------------------------
# thin reaction


def test_thin_reaction_signs_quadratic():
    spec = _spec(lambda_plus=2.0, lambda_minus=0.5)
    assert thin_reaction(1.0, spec) == pytest.approx(-2.0)
    assert thin_reaction(-1.0, spec) == pytest.approx(0.5)
    assert thin_reaction(0.0, spec) == pytest.approx(0.0)


def test_thin_reaction_cubic_growth():
    spec = _spec(p=3.0, lambda_plus=1.0, lambda_minus=1.0)
    assert thin_reaction(2.0, spec) == pytest.approx(-4.0)
    assert thin_reaction(-2.0, spec) == pytest.approx(4.0)


def _face_curvature(spec, t, grad_sup):
    """face_hessian_diagonal / (2 face_w) at the first thin nodes, their values t."""
    grid = spec.grid()
    thin = grid.thin_ids[:len(t)]
    vals = np.zeros(grid.node_count)
    vals[thin] = t
    diag = face_hessian_diagonal(grid, vals, spec, grad_sup)[:len(t)]
    return diag / (2.0 * operators(grid).face_w_by_node[thin])


def test_face_hessian_diagonal_values():
    """|F'(t)| = (p - 1) lambda |t|^(p - 2): at p = 2 the phase weight."""
    spec = _spec(lambda_plus=2.0, lambda_minus=0.5)
    got = _face_curvature(spec, [1.0, -1.0, 0.0], grad_sup=1.0)
    # minimal-norm selection at the kink
    assert np.allclose(got, [2.0, 0.5, 0.0], rtol=1e-15, atol=0.0)


def test_clamped_derivative_for_subquadratic_exponent():
    spec = _spec(p=1.5, lambda_plus=2.0, lambda_minus=0.5)
    t = np.array([-0.25, -1e-6, 0.0, 1e-6, 0.25])
    # grad_sup = 10 clamps |t| at delta = 1e-3 * 10
    got = _face_curvature(spec, t, grad_sup=10.0)
    # max(|t|, 1e-2)^(-1/2) is 2 at |t| = 0.25 and 10 inside the clamp;
    # t = 0 takes the larger weight
    want = 0.5 * np.array([0.5 * 2.0, 0.5 * 10.0, 2.0 * 10.0, 2.0 * 10.0, 2.0 * 2.0])
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    # from p = 2 on, grad_sup changes nothing
    quad = _spec(p=3.0, lambda_plus=2.0, lambda_minus=0.5)
    assert np.array_equal(_face_curvature(quad, t, 10.0), _face_curvature(quad, t, 0.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_face_hessian_diagonal_is_the_face_part_of_the_hessian(p):
    """`hessian` differs from 2 Kff only on the thin rows' diagonal, by
    face_hessian_diagonal."""
    spec = _spec(p=p, lambda_plus=2.0, lambda_minus=0.5, g="harmonic:deg=1")
    grid = spec.grid()
    rng = np.random.default_rng(5)
    vals = np.zeros(grid.node_count)
    vals[grid.free_ids] = rng.normal(scale=0.3, size=len(grid.free_ids))
    gsup = float(np.abs(gradient_array(grid, vals, spec)).max())
    diag = face_hessian_diagonal(grid, vals, spec, gsup)
    assert np.all(diag > 0.0)
    H, twice = hessian(grid, vals, spec, gsup), 2.0 * operators(grid).Kff
    rows = np.searchsorted(grid.free_ids, grid.thin_ids)
    face = (H - twice).tocoo()
    face.eliminate_zeros()
    assert sorted(zip(face.row, face.col)) == [(r, r) for r in rows]
    assert np.array_equal(H.diagonal()[rows], twice.diagonal()[rows] + diag)


# ---------------------------------------------------------------------------
# energy and derivatives


def test_energy_of_zero_field_is_zero():
    spec = _spec()
    w = ScalarField(spec.grid(), np.zeros(spec.grid().node_count))
    assert energy_array(w.grid, w.values, spec) == pytest.approx(0.0, abs=1e-15)


def test_gradient_matches_finite_differences():
    """Central differences of the energy reproduce the analytic gradient."""
    spec = _spec(p=2.0, lambda_plus=2.0, lambda_minus=0.5, g="harmonic:coeffs=1;0.2")
    grid = spec.grid()
    rng = np.random.default_rng(5)
    vals = np.zeros(grid.node_count)
    vals[grid.free_ids] = rng.normal(scale=0.4, size=len(grid.free_ids))
    g = gradient_array(grid, vals, spec)
    for i in rng.choice(grid.free_ids, size=12, replace=False):
        d = 1e-6
        up, dn = vals.copy(), vals.copy()
        up[i] += d
        dn[i] -= d
        fd = (energy_array(grid, up, spec) - energy_array(grid, dn, spec)) / (2 * d)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_gradient_matches_finite_differences_cubic():
    spec = _spec(p=3.0)
    grid = spec.grid()
    rng = np.random.default_rng(7)
    vals = np.zeros(grid.node_count)
    vals[grid.free_ids] = rng.normal(scale=0.4, size=len(grid.free_ids))
    g = gradient_array(grid, vals, spec)
    for i in rng.choice(grid.free_ids, size=8, replace=False):
        d = 1e-6
        up, dn = vals.copy(), vals.copy()
        up[i] += d
        dn[i] -= d
        fd = (energy_array(grid, up, spec) - energy_array(grid, dn, spec)) / (2 * d)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_hessian_apply_is_positive_semidefinite():
    """d . H d >= 0 along random directions: the energy model is convex."""
    spec = _spec(p=2.0, lambda_plus=2.0, lambda_minus=0.5)
    grid = spec.grid()
    rng = np.random.default_rng(9)
    vals = np.zeros(grid.node_count)
    vals[grid.free_ids] = rng.normal(size=len(grid.free_ids))
    H = hessian(grid, vals, spec, float(np.abs(gradient_array(grid, vals, spec)).max()))
    for _ in range(6):
        d = rng.normal(size=len(grid.free_ids))
        assert d @ (H @ d) >= -1e-10


def test_hessian_is_gradient_jacobian():
    """For p >= 2 `hessian` is the Jacobian of the gradient on the free block."""
    for p in (2.0, 3.0):
        spec = _spec(p=p)
        grid = spec.grid()
        free = grid.free_ids
        rng = np.random.default_rng(13)
        vals = np.zeros(grid.node_count)
        vals[free] = rng.normal(scale=0.3, size=len(free))
        d = np.zeros(grid.node_count)
        d[free] = rng.normal(size=len(free))
        eps = 1e-6
        gp = gradient_array(grid, vals + eps * d, spec)
        gm = gradient_array(grid, vals - eps * d, spec)
        fd = ((gp - gm) / (2 * eps))[free]
        gsup = float(np.abs(gradient_array(grid, vals, spec)).max())
        hd = hessian(grid, vals, spec, gsup) @ d[free]
        assert np.abs(hd - fd).max() < 1e-5 * max(1.0, np.abs(hd).max())


# ---------------------------------------------------------------------------
# discrete Laplacian


def test_discrete_laplacian_of_quadratic():
    """The five-point stencil is exact on x^2 + y^2 away from the rim."""
    spec = _spec(h=1 / 16)
    grid = spec.grid()
    w = ScalarField(grid, grid.nodes[:, 0] ** 2 + grid.nodes[:, 1] ** 2)
    lap = discrete_laplacian(w)
    inner = grid.interior_ids
    rad = np.linalg.norm(grid.nodes[inner], axis=1)
    core = inner[rad < 0.8]
    assert np.allclose(lap.values[core], 4.0, atol=1e-9)


def test_discrete_laplacian_kills_harmonics():
    spec = _spec(h=1 / 16)
    grid = spec.grid()
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    w = ScalarField(grid, x ** 2 - y ** 2)
    lap = discrete_laplacian(w)
    inner = grid.interior_ids
    rad = np.linalg.norm(grid.nodes[inner], axis=1)
    core = inner[rad < 0.8]
    assert np.abs(lap.values[core]).max() < 1e-9


def test_scalar_field_validation():
    spec = _spec()
    grid = spec.grid()
    with pytest.raises(ValueError, match="one float per grid node"):
        ScalarField(grid, np.zeros(grid.node_count - 1))
    bad = np.zeros(grid.node_count)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ScalarField(grid, bad)


@pytest.mark.parametrize("n,h", [(1, 1 / 16), (2, 1 / 8)])
def test_operators_carry_the_free_block_and_its_thin_diagonal_slots(n, h):
    grid = _spec(n=n, h=h).grid()
    ops = operators(grid)
    free, thin = grid.free_ids, grid.thin_ids
    assert (ops.Kff != ops.K[free][:, free]).nnz == 0
    rows = np.searchsorted(free, thin)
    assert np.array_equal(ops.Kff.indices[ops.thin_slots], rows)
    assert np.array_equal(ops.Kff.data[ops.thin_slots], ops.K[thin, thin].A1)
