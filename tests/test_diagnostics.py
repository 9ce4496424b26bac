"""Radial functionals, integral identities, fitting helpers, and refinement in h."""

import warnings

import numpy as np
import pytest

from bilaplab import AnalyticField, ProblemSpec, ScalarField, build_grid
from bilaplab.diagnostics import (
    DEGENERATE_FACTOR,
    RadialProfile,
    _surface_sups,
    compute_profile,
    default_radii,
    estimate_mu,
    face_mean_value_term,
    growth_fit,
    mean_value_defects,
    minimal_almgren_constant,
    minimal_monneau_constant,
    monneau_curve,
    poincare_check,
    refinement,
    rellich_residual,
    trace_check,
)
from bilaplab.freeboundary import FreeBoundaryPoint, blowup_fit, classify_point, nondegeneracy_check
from bilaplab.grid import (HalfBallGrid, _as_thin_center, _even_gradient, _shift,
                           sphere_quadrature)
from bilaplab.problem import thin_reaction

FINE = build_grid(1, 1.0 / 256.0)
SPEC = ProblemSpec(n=1, p=2.0, lambda_plus=1.0, lambda_minus=1.0,
                   g="zero", h=1.0 / 256.0)


_ones = AnalyticField(lambda p: np.ones(len(p)), grid=FINE)
_rez2 = AnalyticField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2, grid=FINE)


def test_poincare_closed_form_for_constants():
    """For w = 1 the two sides are the half-disc and half-circle masses."""
    lhs, rhs = poincare_check(_ones, 0.5)
    assert lhs == pytest.approx(np.pi / 2, abs=1e-12)
    assert rhs == pytest.approx(np.pi, abs=1e-12)
    assert lhs <= rhs


def test_trace_closed_form_for_constants():
    lhs, bracket = trace_check(_ones, 0.5)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert bracket == pytest.approx(np.pi / 2, abs=1e-12)


def test_rellich_identity_vanishes_on_smooth_field():
    ysq = AnalyticField(
        value=lambda p: p[:, 1] ** 2,
        gradient=lambda p: np.column_stack([np.zeros(len(p)), 2.0 * p[:, 1]]),
        laplacian=lambda p: np.full(len(p), 2.0),
        grid=FINE,
    )
    assert rellich_residual(ysq, 0.0, 0.9) < 1e-12


def test_rellich_residual_needs_an_analytic_field():
    w = ScalarField(FINE, FINE.nodes[:, 1] ** 2)
    with pytest.raises(TypeError, match="AnalyticField"):
        rellich_residual(w, 0.0, 0.9)


def test_frequency_of_homogeneous_harmonic_pair():
    # u = v = Re z^2 has scaling exponent exactly 2 at every radius.
    w = _rez2
    radii = np.geomspace(0.05, 0.5, 9)
    prof = compute_profile(w, w, 0.0, radii, SPEC)
    assert not prof.degenerate.any()
    assert np.abs(prof.N0 - 2.0).max() < 1e-9
    # The full frequency adds cross and reaction terms of lower order,
    # so it drifts from 2 by O(r) and tightens as r shrinks.
    assert np.abs(prof.N - 2.0).max() < 0.05
    assert abs(prof.N[0] - 2.0) < 0.01


def test_growth_fit_recovers_homogeneity_degree():
    radii = np.geomspace(0.05, 0.5, 9)
    prof = compute_profile(_rez2, _rez2, 0.0, radii, SPEC)
    # each radius has its own sample count m (128 to 1024 here), and the
    # sampled sup of |Re z^2| is r^2 cos(pi / m): the slope moves by < 4e-4
    assert growth_fit(prof, radii.max()) == pytest.approx(2.0, abs=1e-3)
    # r_max keeps the radii at or below it; one radius gives no slope
    assert growth_fit(prof, radii[3]) == pytest.approx(2.0, abs=1e-3)
    assert np.isnan(growth_fit(prof, radii[0]))


def test_sphere_sup_radial_field():
    w = AnalyticField(lambda p: (p ** 2).sum(axis=1), grid=FINE)
    prof = compute_profile(w, w, 0.0, [0.3], SPEC)
    assert _surface_sups(prof)[0] == pytest.approx([0.09, 0.09], abs=1e-14)


def test_sphere_sup_samples_the_quadrature_surface():
    w = AnalyticField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2 + 0.1 * p[:, 0], grid=FINE)
    quad = sphere_quadrature(FINE, np.array([0.1, 0.0]), 0.3)
    prof = compute_profile(w, _ones, 0.1, [0.3], SPEC)
    assert _surface_sups(prof)[0, 0] == np.abs(w(quad.surface_points)).max()
    with pytest.raises(ValueError, match="under-resolved"):
        compute_profile(w, w, 0.1, [1e-3], SPEC)


def _per_point_set_profile(u, v, center, radii, spec):
    """`compute_profile` read point set by point set: each field's values and
    gradient on the surface and on the solid points, its values on the thin
    points."""
    g = u.grid
    c = _as_thin_center(g.n, center)
    radii = np.sort(np.asarray(radii, dtype=np.float64))
    H, D0, D, B = (np.zeros(radii.size) for _ in range(4))
    sup2, surface = 0.0, []
    for k, r in enumerate(radii):
        quad = sphere_quadrature(g, c, float(r))
        us, vs = u(quad.surface_points), v(quad.surface_points)
        gu, gv = u.gradient(quad.surface_points), v.gradient(quad.surface_points)
        surface.append((quad.surface_points - c, quad.surface_weights, us, vs))
        sup2 = max(sup2, float((us ** 2 + vs ** 2).max()))
        H[k] = quad.surface_weights @ (us ** 2 + vs ** 2)
        B[k] = quad.surface_weights @ ((gu ** 2).sum(axis=1) + (gv ** 2).sum(axis=1))
        gus, gvs = u.gradient(quad.solid_points), v.gradient(quad.solid_points)
        D0[k] = quad.solid_weights @ ((gus ** 2).sum(axis=1) + (gvs ** 2).sum(axis=1))
        cross = quad.solid_weights @ (u(quad.solid_points) * v(quad.solid_points))
        ut, vt = u(quad.thin_points), v(quad.thin_points)
        D[k] = D0[k] + cross + quad.thin_weights @ (thin_reaction(ut, spec) * vt)
    degenerate = H < DEGENERATE_FACTOR * max(sup2, 1e-300)
    safeH = np.where(degenerate, np.nan, H)
    return RadialProfile(center=c, radii=radii, H=H, D0=D0, D=D, B=B, N0=radii * D0 / safeH,
                         N=radii * D / safeH, phi=H / radii ** g.n, degenerate=degenerate,
                         surface=surface)


@pytest.mark.parametrize("kind", ["grid", "analytic"])
@pytest.mark.parametrize("n,h,radii", [(1, 1.0 / 32, [0.6, 0.13, 0.3]),
                                       (2, 1.0 / 16, [0.8, 0.26, 0.5])])
def test_profile_equals_the_per_point_set_reads(n, h, radii, kind, monkeypatch):
    """One read of each field per radius, on the surface, solid and thin
    points together, gives the profile of reading each point set on its own,
    bit for bit, in every column and every kept surface sample. Both fields
    vanish inside |z| < 0.25 (n = 1) or 0.45 (n = 2), so the smallest radius is
    a degenerate row."""
    g = build_grid(n, h)
    spec = ProblemSpec(n=n, p=3.0, lambda_plus=2.0, lambda_minus=0.5, g="zero", h=h)
    a = 0.25 if n == 1 else 0.45

    def fu(z):
        s = np.maximum(np.linalg.norm(z, axis=1) - a, 0.0)
        return s ** 3 * (1.0 + z[:, 0] - 0.5 * z[:, -1]) - s ** 2

    def fv(z):
        return np.maximum(np.linalg.norm(z, axis=1) - a, 0.0) ** 2 * np.cos(2.0 * z[:, 0])

    if kind == "grid":
        u, v = ScalarField(g, fu(g.nodes)), ScalarField(g, fv(g.nodes))
    else:
        u, v = AnalyticField(fu, g), AnalyticField(fv, g)
    center = [0.05] + [0.0] * (n - 1)
    reads = []
    interp_box = HalfBallGrid.interp_box
    monkeypatch.setattr(HalfBallGrid, "interp_box",
                        lambda *a, **k: reads.append(1) or interp_box(*a, **k))
    prof = compute_profile(u, v, center, radii, spec)
    monkeypatch.undo()
    assert len(reads) == (2 * len(radii) if kind == "grid" else 0)
    ref = _per_point_set_profile(u, v, center, radii, spec)
    assert prof.degenerate.tolist() == [True, False, False]
    for col in ("center", "radii", "H", "D0", "D", "B", "N0", "N", "phi", "degenerate"):
        assert np.array_equal(getattr(prof, col), getattr(ref, col),
                              equal_nan=col in ("N0", "N")), col
    assert len(prof.surface) == len(ref.surface) == len(radii)
    for got, want in zip(prof.surface, ref.surface):
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("n,h", [(1, 1.0 / 16), (2, 1.0 / 8)])
def test_grid_field_profile_equals_the_per_field_path(n, h, monkeypatch):
    """Reading each grid field once per radius changes no bit of the profile,
    of the Monneau curve taken from its samples without reading the fields,
    or of the blow-up fit, nondegeneracy ratio and classification."""
    g = build_grid(n, h)
    spec = ProblemSpec(n=n, p=3.0, lambda_plus=2.0, lambda_minus=0.5, g="zero", h=h)
    z = g.nodes
    u = ScalarField(g, z[:, 0] ** 3 - 3.0 * z[:, 0] * z[:, -1] ** 2 + 0.2 * z[:, -1])
    v = ScalarField(g, np.cos(2.0 * z[:, 0]) * np.exp(z[:, -1]) - 0.3)
    c = np.array([0.1] * n + [0.0])
    radii = default_radii(g, c)
    p_mu = lambda rel: rel[:, 0] ** 2 - rel[:, -1] ** 2
    q_mu = lambda rel: 0.5 * rel[:, 0] * rel[:, -1]
    prof = compute_profile(u, v, c, radii, spec)
    ref = _per_point_set_profile(u, v, c, radii, spec)
    assert (prof.H == ref.H).all() and (prof.B == ref.B).all()
    assert (prof.D0 == ref.D0).all() and (prof.D == ref.D).all()
    M = np.array([(w @ ((us - p_mu(rel)) ** 2 + (vs - q_mu(rel)) ** 2)) / r ** (n + 2 * 2.0)
                  for r, (rel, w, us, vs) in zip(ref.radii, ref.surface)])
    reads = []
    interp_box = HalfBallGrid.interp_box
    monkeypatch.setattr(HalfBallGrid, "interp_box",
                        lambda *a, **k: reads.append(1) or interp_box(*a, **k))
    curve = monneau_curve(prof, 2.0, p_mu, q_mu)
    assert reads == []
    monkeypatch.undo()
    assert np.array_equal(curve, np.where(prof.degenerate, np.nan, M), equal_nan=True)

    # analytic fields wrapping one grid field each read the same values
    fu, fv = AnalyticField(u, grid=g), AnalyticField(v, grid=g)
    wrapped = compute_profile(fu, fv, c, radii, spec)
    fit, ref = blowup_fit(prof, 2), blowup_fit(wrapped, 2)
    assert np.array_equal(fit.residuals, ref.residuals, equal_nan=True)
    assert (fit.coeff_curve_u == ref.coeff_curve_u).all()
    assert (fit.coeff_curve_v == ref.coeff_curve_v).all()
    assert np.array_equal(nondegeneracy_check(prof, 2.0), nondegeneracy_check(wrapped, 2.0))
    if n == 1:  # free-boundary points live on the n = 1 face
        pt, ref_pt = FreeBoundaryPoint(x=0.1), FreeBoundaryPoint(x=0.1)
        classify_point(pt, u, v)
        classify_point(ref_pt, fu, fv)
        assert pt == ref_pt and pt.grad_u is not None


def test_default_radii_ladder():
    g = build_grid(1, 1.0 / 16.0)
    radii = default_radii(g, 0.0)
    assert radii[-1] == pytest.approx(0.9)
    assert radii[0] >= 4.0 * g.h - 1e-12
    assert np.all(np.diff(radii) > 0)
    ratios = radii[1:] / radii[:-1]
    assert np.allclose(ratios, 2.0 ** 0.25, atol=1e-12)
    with pytest.raises(ValueError, match="no admissible radii"):
        default_radii(g, 0.98)
    with pytest.raises(ValueError, match="thin face"):
        default_radii(g, [0.0, 0.1])


def _worst_defect(w, rho):
    return mean_value_defects(w, rho)[1].max()


def test_mean_value_violation_signs():
    g = build_grid(1, 1.0 / 16.0)
    rsq = ScalarField(g, (g.nodes ** 2).sum(axis=1))
    harmonic = ScalarField(g, g.nodes[:, 0].copy())
    cap = ScalarField(g, -(g.nodes ** 2).sum(axis=1))
    # Laplacian 4: circle mean exceeds the center value by rho^2.
    assert _worst_defect(rsq, 0.25) < -0.05
    assert abs(_worst_defect(harmonic, 0.25)) < 1e-12
    assert _worst_defect(cap, 0.25) > 0.05


def test_mean_value_defects_per_centre():
    g = build_grid(1, 1.0 / 16.0)
    rsq = ScalarField(g, (g.nodes ** 2).sum(axis=1))
    centres, defects = mean_value_defects(rsq, 0.25)
    assert centres.shape == (defects.size, 2)
    assert np.all(np.linalg.norm(centres, axis=1) + 0.25 <= 1.0 + 1e-12)
    # Laplacian 4: every centre falls short of its circle mean by rho^2,
    # up to the bilinear interpolation error of |z|^2
    assert np.abs(defects + 0.25 ** 2).max() <= 0.5 * g.h ** 2


def test_mean_value_defects_at_n2():
    g = build_grid(2, 1.0 / 8.0)
    rsq = ScalarField(g, (g.nodes ** 2).sum(axis=1))
    centres, defects = mean_value_defects(rsq, 0.25)
    assert centres.shape == (defects.size, 3) and defects.size > 0
    assert np.all(np.linalg.norm(centres, axis=1) + 0.25 <= 1.0 + 1e-12)
    # Laplacian 6: every centre falls short of its sphere mean by rho^2; the
    # trilinear interpolant of |z|^2 exceeds it by at most 3 h^2 / 4
    err = defects + 0.25 ** 2
    assert np.all(err <= 0.0) and np.all(err >= -0.75 * g.h ** 2)


def test_face_mean_value_term_closed_form():
    # trace -1 gives F = lambda_minus = 1, and the log kernel integrates to
    # 2 (a - y arctan(a / y)) over the chord of half-length a
    u = ScalarField(FINE, -np.ones(FINE.node_count))
    rho = 0.25
    centres = np.array([[0.1, 0.05], [-0.3, 0.2], [0.0, 0.3]])
    y = centres[:, 1]
    a = np.sqrt(np.maximum(rho ** 2 - y ** 2, 0.0))
    expect = (2.0 / np.pi) * (a - y * np.arctan2(a, y))
    got = face_mean_value_term(u, SPEC, centres, rho)
    assert np.allclose(got, expect, rtol=0.0, atol=1e-10)
    assert got[2] == 0.0  # the ball misses the face


def _profile_with_n0(radii, n0):
    k = len(radii)
    z = np.zeros(k)
    return RadialProfile(center=np.zeros(1), radii=np.asarray(radii),
                         H=np.ones(k), D0=z, D=z, B=z, N0=np.asarray(n0),
                         N=np.asarray(n0), phi=np.ones(k),
                         degenerate=np.zeros(k, dtype=bool), surface=[])


def test_estimate_mu_extrapolates_to_zero_radius():
    radii = np.geomspace(0.05, 0.4, 16)
    mu_hat, mu_int = estimate_mu(_profile_with_n0(radii, 2.0 + 0.5 * radii))
    assert mu_hat == pytest.approx(2.0, abs=1e-10)
    assert mu_int == 2


def test_estimate_mu_rejects_distant_integers():
    radii = np.geomspace(0.05, 0.4, 16)
    mu_hat, mu_int = estimate_mu(_profile_with_n0(radii, 2.3 + 0.1 * radii))
    assert mu_int is None


def test_estimate_mu_preconditions():
    with pytest.raises(ValueError, match="at least 8"):
        estimate_mu(_profile_with_n0(np.geomspace(0.1, 0.4, 6), np.ones(6)))
    with pytest.raises(ValueError, match="span"):
        estimate_mu(_profile_with_n0(np.linspace(0.1, 0.15, 10), np.ones(10)))


def test_minimal_almgren_constant_scan():
    # Drop from 2.0 to 1.9 over [1.9, 2.0] needs C ~ 10 ln(2/1.9); the
    # 0.01-step scan lands on 0.52.
    c = minimal_almgren_constant([1.9, 2.0], [1.0, 0.9])
    assert c == pytest.approx(0.52, abs=1e-9)
    assert minimal_almgren_constant([0.1, 0.2, 0.3], [1.0, 1.1, 1.2]) == 0.0
    # Over a step of 0.001 even C = 50 multiplies by only e^0.05, which
    # cannot compensate a drop from 100 to 1.
    assert np.isnan(minimal_almgren_constant([0.5, 0.501], [99.0, 0.0]))
    # rows are read in ascending r, and rows with a non-finite N are dropped
    assert minimal_almgren_constant([2.0, 0.3, 1.9], [0.9, np.nan, 1.0]) == c
    assert minimal_almgren_constant([0.3, 0.1, 0.2], [1.2, 1.0, 1.1]) == 0.0
    assert minimal_almgren_constant([0.5, 0.501, 0.6], [np.inf, 0.0, np.nan]) == 0.0
    assert minimal_almgren_constant([0.5], [1.0]) == 0.0


def test_minimal_monneau_constant_closed_form():
    c = minimal_monneau_constant([1.0, 2.0], [1.0, 0.9])
    assert c == pytest.approx(0.099, abs=1e-12)
    assert minimal_monneau_constant([1.0, 2.0], [1.0, 1.5]) == 0.0
    assert np.isnan(minimal_monneau_constant([1.0, 1.001], [1.0, 0.0]))
    # rows are read in ascending r, and rows with a non-finite M are dropped
    assert minimal_monneau_constant([2.0, 1.5, 1.0], [0.9, np.nan, 1.0]) == c
    assert minimal_monneau_constant([2.0, 1.0], [1.5, 1.0]) == 0.0
    assert minimal_monneau_constant([1.0, 1.001, 1.5], [1.0, -np.inf, np.nan]) == 0.0
    assert minimal_monneau_constant([], []) == 0.0


def test_analytic_field_probe_uses_supplied_derivatives():
    f = AnalyticField(
        value=lambda p: p[:, 0] ** 2 * p[:, 1] ** 2,
        gradient=lambda p: np.column_stack([2 * p[:, 0] * p[:, 1] ** 2,
                                            2 * p[:, 0] ** 2 * p[:, 1]]),
        laplacian=lambda p: 2 * p[:, 1] ** 2 + 2 * p[:, 0] ** 2,
        grid=FINE,
    )
    below = np.array([[0.3, -0.4]])
    # Even extension: the vertical derivative flips sign below the face.
    assert np.allclose(f.gradient(below), [[0.096, -0.072]], atol=1e-14)
    assert f.laplacian(below)[0] == pytest.approx(0.5, abs=1e-14)


def _test_fields(n, h):
    """x y^2 as a ScalarField, with closed-form and differenced gradients as
    AnalyticFields, and cos(x) cosh(y) as a ScalarField, on the (n, h) grid."""
    g = build_grid(n, h)

    def f(p):
        return p[:, 0] * p[:, -1] ** 2

    def df(p):
        out = np.zeros_like(p)
        out[:, 0], out[:, -1] = p[:, -1] ** 2, 2.0 * p[:, 0] * p[:, -1]
        return out

    u = ScalarField(g, f(g.nodes))
    v = ScalarField(g, np.cos(g.nodes[:, 0]) * np.cosh(g.nodes[:, -1]))
    return df, u, v, AnalyticField(f, g, gradient=df), AnalyticField(f, g)


def _above_and_below(n):
    rng = np.random.default_rng(3)
    above = rng.uniform(-0.5, 0.5, size=(40, n + 1))
    above[:, -1] = np.abs(above[:, -1]) + 0.05
    flip = np.append(np.ones(n), -1.0)
    return above, above * flip, flip


@pytest.mark.parametrize("n,h", [(1, 1.0 / 32), (2, 1.0 / 16)])
def test_gradients_below_the_face_are_those_of_the_even_extension(n, h):
    """At a mirrored point every gradient reader returns the gradient at the
    point above with d/dy flipped: both field kinds, through `gradient` and
    through `with_gradient`."""
    df, u, v, closed, differenced = _test_fields(n, h)
    above, below, flip = _above_and_below(n)
    for w in (u, v, closed, differenced):
        assert np.array_equal(w.gradient(below), w.gradient(above) * flip)
    assert np.abs(u.gradient(below) - df(above) * flip).max() < 4.0 * h
    if n == 1:
        assert np.allclose(closed.gradient([[0.3, -0.4]]), [[0.16, -0.24]], atol=1e-15)
        assert np.allclose(u.gradient([[0.3, -0.4]]), [[0.16, -0.24]], atol=5e-3)

    su, sgu = u.with_gradient(below)
    sv, sgv = v.with_gradient(below)
    assert np.array_equal(su, u(below)) and np.array_equal(sv, v(below))
    assert np.array_equal(sgu, u.gradient(below)) and np.array_equal(sgv, v.gradient(below))
    fu, fgu = closed.with_gradient(below)
    assert np.array_equal(fgu, closed.gradient(above) * flip)
    assert np.array_equal(v.with_gradient(below)[1], sgv)


def _per_axis_gradient(w, pts):
    """A ScalarField's gradient read box by box: one ghost-filled box of
    central differences per axis, each interpolated on its own."""
    g, box = w.grid, w.ghost_box()
    out = np.empty_like(pts)
    for ax in range(g.n + 1):
        d = (_shift(box, ax, -1) - _shift(box, ax, 1)) / (2.0 * g.h)
        if ax == g.n:
            d[..., 0] = 0.0
        out[:, ax] = g.interp_box(g.fill_extension(d), pts)
    return _even_gradient(pts, out)


@pytest.mark.parametrize("n,h", [(1, 1.0 / 32), (2, 1.0 / 16)])
def test_with_gradient_is_the_value_read_and_the_gradient_read(n, h):
    """One stacked read gives, bit for bit, the values of `w(pts)` and the
    gradient of `w.gradient(pts)`, for both field kinds, above and below the
    face; a ScalarField's gradient is that of its boxes read axis by axis."""
    _, u, v, closed, differenced = _test_fields(n, h)
    above, below, _ = _above_and_below(n)
    for pts in (above, below):
        for w in (u, v, closed, differenced):
            values, grad = w.with_gradient(pts)
            assert np.array_equal(values, w(pts))
            assert np.array_equal(grad, w.gradient(pts))
        for w in (u, v):
            assert np.array_equal(w.with_gradient(pts)[1], _per_axis_gradient(w, pts))


def test_instruments_refuse_plain_callables():
    """A field is a ScalarField or an AnalyticField; the grid that sizes a
    callable's quadrature comes with its AnalyticField."""
    w = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
    radii = np.geomspace(0.1, 0.5, 9)
    with pytest.raises(TypeError, match="ScalarField or an AnalyticField"):
        compute_profile(w, w, 0.0, radii, SPEC)
    with pytest.raises(TypeError, match="ScalarField or an AnalyticField"):
        compute_profile(_rez2, w, 0.0, radii, SPEC)
    with pytest.raises(TypeError):
        AnalyticField(w)


def test_refinement_of_a_first_order_ladder_extrapolates_its_limit():
    """q = L + c 2^-k: every step halves, so each order is 1, the order-1
    Richardson value is L, and the Richardson values agree: settled."""
    q = 0.75 + 0.3 * 2.0 ** -np.arange(5)
    study = refinement(q)
    assert np.allclose(study.errors, 0.3 * 2.0 ** -np.arange(1, 5))
    assert np.allclose(study.ratios, 2.0, rtol=1e-12)
    assert np.allclose(study.orders, 1.0, atol=1e-12)
    assert study.extrapolated == pytest.approx(0.75, abs=1e-14)
    assert study.settled


def test_refinement_of_a_second_order_ladder():
    q = 2.0 - 0.5 * 4.0 ** -np.arange(5)
    study = refinement(q)
    assert np.allclose(study.orders, 2.0, atol=1e-12)
    # an order-1 extrapolation of an order-2 ladder keeps moving
    assert not study.settled


def test_refinement_with_a_known_limit_reads_the_values_themselves():
    q = np.array([3e-2, 7e-3, 2e-3, 4e-4])
    study = refinement(q, limit=0.0)
    assert np.array_equal(study.errors, q)
    assert np.allclose(study.orders, np.log2(q[:-1] / q[1:]), rtol=0, atol=1e-15)
    assert study.shrinks(0.5) and not study.shrinks(0.2)


def test_shrinks_keeps_the_growth_and_floor_arithmetic():
    """|e[i+1]| <= growth |e[i]| + floor, the floor letting a vanishing
    quantity through and the sign of an error not counting."""
    assert refinement([1.0, 1.25], limit=0.0).shrinks(1.25)
    assert not refinement([1.0, 1.26], limit=0.0).shrinks(1.25)
    assert refinement([0.0, 5e-9, 1e-8], limit=0.0).shrinks(1.25, 1e-8)
    assert not refinement([0.0, 5e-9, 2e-8], limit=0.0).shrinks(1.25, 1e-8)
    assert not refinement([0.0, 0.1, 0.05], limit=0.0).shrinks(2.0)  # no floor, no growth from 0
    steps = refinement([0.0, -0.1, 0.05])  # steps 0.1 and -0.15
    assert not steps.shrinks(1.0) and steps.shrinks(2.0)


@pytest.mark.parametrize("values, limit", [
    ([0.0, 0.0, 0.0, 0.0], 0.0),
    ([1.0, 1.0, 1.0], None),
    ([1.0, 0.0, 0.0], 0.0),
    ([0.3, 0.2], None),
    ([0.3, 0.0], 0.0),
], ids=["zero errors", "zero steps", "x/0 and 0/0", "one step", "two values"])
def test_refinement_raises_no_warning_on_zero_errors_or_two_values(values, limit):
    """Zero errors and two-value ladders raise no RuntimeWarning; a ratio
    0/0 reads NaN and x/0 reads inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        study = refinement(values, limit=limit)
    assert study.ratios.size == study.errors.size - 1
    e = np.asarray(study.errors)
    for i, r in enumerate(study.ratios):
        if e[i] == 0.0 and e[i + 1] == 0.0:
            assert np.isnan(r)
        elif e[i + 1] == 0.0:
            assert np.isinf(r)


def test_fewer_than_three_values_never_read_settled():
    assert not refinement([1.0, 1.0]).settled
    assert not refinement([0.5, 0.25], limit=0.0).settled
    assert refinement([1.0, 1.0, 1.0]).settled  # a constant has settled


def test_shrinks_decides_like_the_per_entry_growth_rule():
    """On nonnegative ladders, shrinks(1.25, 1e-8) with limit 0 is the rule
    seq[i+1] <= 1.25 seq[i] + 1e-8 evaluated entry by entry in Python floats,
    ladders that meet the bound exactly included."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        seq = list(rng.uniform(0.0, 1e-7, size=rng.integers(2, 6)))
        if rng.random() < 0.5:  # put one entry exactly on the bound
            i = int(rng.integers(0, len(seq) - 1))
            seq[i + 1] = 1.25 * seq[i] + 1e-8
        rule = all(seq[i + 1] <= 1.25 * seq[i] + 1e-8 for i in range(len(seq) - 1))
        assert refinement(seq, limit=0.0).shrinks(1.25, 1e-8) == rule
        steps = list(np.abs(np.diff(seq)))
        rule = all(steps[i + 1] <= 1.25 * steps[i] + 1e-8 for i in range(len(steps) - 1))
        assert refinement(seq).shrinks(1.25, 1e-8) == rule
