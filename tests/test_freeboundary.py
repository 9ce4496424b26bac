"""Free-boundary extraction, classification, and blow-up fitting."""

import numpy as np
import pytest

from bilaplab import AnalyticField, ProblemSpec, ScalarField, build_grid, minimize
from bilaplab.diagnostics import compute_profile
from bilaplab.freeboundary import (
    MERGE_RESOLUTION,
    MU_CANDIDATES,
    FreeBoundaryPoint,
    analyze_point,
    blowup_fit,
    classify_point,
    extract_gamma,
    nondegeneracy_check,
    singular_dimension,
)
from bilaplab.grid import HalfBallGrid
from bilaplab.harmonics import HomogeneousHarmonicPoly, harmonic_basis
from bilaplab.problem import face_phase

FINE = build_grid(1, 1.0 / 256.0)
SPEC = ProblemSpec(n=1, p=2.0, lambda_plus=1.0, lambda_minus=1.0,
                   g="zero", h=1.0 / 256.0)


_rez2 = AnalyticField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2, grid=FINE)


def test_extract_gamma_single_crossing():
    g = build_grid(1, 1.0 / 16.0)
    u = ScalarField(g, g.nodes[:, 0].copy())
    points = extract_gamma(u)
    assert len(points) == 1
    assert points[0].x == pytest.approx(0.0, abs=1e-12)
    assert points[0].side == "both"


def test_extract_gamma_two_crossings():
    g = build_grid(1, 1.0 / 16.0)
    u = ScalarField(g, g.nodes[:, 0] ** 2 - 0.25)
    points = extract_gamma(u)
    assert [round(p.x, 6) for p in points] == [-0.5, 0.5]
    assert all(p.side == "both" for p in points)


def test_extract_gamma_zero_plateau_contributes_endpoint():
    # Trace max(x, 0): the zero run [-1, 0] meets the positive side at 0;
    # its other end touches the corner and is dropped.
    g = build_grid(1, 1.0 / 16.0)
    u = ScalarField(g, np.maximum(g.nodes[:, 0], 0.0))
    points = extract_gamma(u)
    assert len(points) == 1
    assert points[0].x == pytest.approx(0.0, abs=1e-12)
    assert points[0].side == "+"


def test_extract_gamma_sign_definite_trace_has_no_points():
    g = build_grid(1, 1.0 / 16.0)
    u = ScalarField(g, np.ones(g.node_count))
    assert extract_gamma(u) == []


def _two_pass_gamma(u):
    """The free boundary by two scans of the face: strict sign changes first,
    then the ends of each maximal zero run that border a nonzero node."""
    g = u.grid
    x = g.nodes[g.face_ids, 0]
    t = u.values[g.face_ids]
    sign = face_phase(g, u.values)
    points = {}

    def add(xs, plus, minus):
        if abs(xs) >= 1.0 - 1e-12:
            return
        key = round(xs / (g.h * MERGE_RESOLUTION))
        pt = points.get(key)
        if pt is None:
            pt = FreeBoundaryPoint(x=float(xs))
            points[key] = pt
        pt.in_plus |= plus
        pt.in_minus |= minus

    for i in range(len(x) - 1):
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]:
            add(x[i] + (x[i + 1] - x[i]) * (-t[i]) / (t[i + 1] - t[i]), True, True)
    i = 0
    while i < len(x):
        if sign[i] != 0:
            i += 1
            continue
        j = i
        while j + 1 < len(x) and sign[j + 1] == 0:
            j += 1
        left = sign[i - 1] if i > 0 else 0
        right = sign[j + 1] if j + 1 < len(x) else 0
        if left != 0:
            add(x[i], left > 0, left < 0)
        if right != 0:
            add(x[j], right > 0, right < 0)
        i = j + 1
    return sorted(points.values(), key=lambda p: p.x)


def test_one_edge_scan_equals_the_two_pass_scan():
    """Same x, in_plus and in_minus as the two-pass scan on random phase
    patterns, including zero runs at both corners, a single zero node
    between + and -, interior plateaus, and crossings within 1e-9 h of a
    node (which the 1e-6 h key merges)."""
    g = build_grid(1, 1.0 / 16.0)
    m = g.face_ids.size
    rng = np.random.default_rng(11)
    fixed = [
        [0, 0, 0] + [1] * (m - 6) + [0, 0, 0],
        [0, 0] + [1] * 10 + [-1] * (m - 14) + [0, 0],
        [1] * 12 + [0] + [-1] * (m - 13),
        [-1] * 5 + [0] * 4 + [-1] * 6 + [0] * 3 + [1] * (m - 18),
        [0] * m,
        [1, -1] * (m // 2) + [1],
    ]
    patterns = fixed + [list(rng.choice([-1, 0, 1], size=m, p=[0.4, 0.2, 0.4]))
                        for _ in range(150)]
    patterns += [list(np.repeat(rng.choice([-1, 0, 1], size=m), rng.integers(1, 6, size=m))[:m])
                 for _ in range(150)]
    checked = 0
    for signs in patterns:
        values = np.zeros(g.node_count)
        values[g.face_ids] = np.asarray(signs) * 10.0 ** rng.uniform(-9.0, 0.3, size=m)
        u = ScalarField(g, values)
        got = [(p.x, p.in_plus, p.in_minus) for p in extract_gamma(u)]
        assert got == [(p.x, p.in_plus, p.in_minus) for p in _two_pass_gamma(u)], signs
        checked += bool(got)
    assert checked > 250


ODD_CASES = {
    "sym-p2": dict(p=2.0, g="harmonic:deg=1"),
    "sym-p3": dict(p=3.0, g="harmonic:deg=1"),
    "trig-sin3": dict(p=2.0, g="trig:freq=3,kind=sin"),
}


@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32, 1.0 / 64])
@pytest.mark.parametrize("tag", sorted(ODD_CASES))
def test_odd_problem_has_a_free_boundary_point_at_zero(tag, h):
    # u(0) of an odd problem is 0 up to the rounding of the solve, which
    # grows as h shrinks; the zero test must absorb it
    spec = ProblemSpec(n=1, h=h, lambda_plus=1.0, lambda_minus=1.0, **ODD_CASES[tag])
    pts = np.array([pt.x for pt in extract_gamma(minimize(spec).u)])
    assert np.any(pts == 0.0), pts
    assert np.allclose(np.sort(pts), np.sort(-pts), rtol=0.0, atol=1e-12), pts


def test_classify_transversal_crossing_as_regular():
    point = FreeBoundaryPoint(x=0.0)
    lin = AnalyticField(lambda p: p[:, 0], grid=FINE)
    label = classify_point(point, lin, lin)
    assert label == "REGULAR"
    assert point.classification == "REGULAR"
    assert point.grad_u == pytest.approx(1.0, abs=1e-9)


def test_classify_flat_touch_as_singular():
    point = FreeBoundaryPoint(x=0.0)
    flat = AnalyticField(lambda p: p[:, 0] ** 2, grid=FINE)
    assert classify_point(point, flat, flat) == "SINGULAR"


def _profile(w, radii):
    """The profile of the pair (w, w) around the origin on the given radii."""
    return compute_profile(w, w, 0.0, radii, SPEC)


def test_blowup_fit_exact_on_homogeneous_pair():
    radii = np.geomspace(0.1, 0.5, 9)
    fit = blowup_fit(_profile(_rez2, radii), 2)
    assert fit.residuals.max() < 1e-12
    assert np.allclose(fit.p_mu.coeffs, [1.0], atol=1e-12)
    assert np.allclose(fit.q_mu.coeffs, [1.0], atol=1e-12)


def test_blowup_fit_perturbation_residual_linear_in_radius():
    # A degree-3 perturbation of relative size eps contributes a misfit
    # eps * r, so the residual curve is linear through the origin.
    eps = 1e-3
    pert = AnalyticField(lambda p: _rez2(p) + eps * (p[:, 0] ** 3 - 3 * p[:, 0] * p[:, 1] ** 2),
                         grid=FINE)
    radii = np.geomspace(0.1, 0.5, 9)
    fit = blowup_fit(_profile(pert, radii), 2)
    assert np.allclose(fit.p_mu.coeffs, 1.0, atol=2e-3)
    assert np.allclose(fit.residuals, eps * radii, rtol=1e-3)


def test_blowup_fit_flags_degree_mismatch():
    lin = AnalyticField(lambda p: p[:, 0], grid=FINE)
    radii = np.geomspace(0.1, 0.5, 9)
    fit = blowup_fit(_profile(lin, radii), 3)
    assert fit.residuals.min() > 0.5


def test_analyze_point_reads_the_pair_only_for_its_profile_and_fits_like_blowup_fit(
        monkeypatch):
    """Each field is read once per profile radius (`compute_profile`) and once
    by `classify_point`: 2K + 2 `interp_box` calls for K radii. The fits read
    the profile's samples, so the point's fit is `blowup_fit` on its profile."""
    spec = ProblemSpec(n=1, h=1.0 / 32, p=2.0, lambda_plus=2.0, lambda_minus=0.5,
                       g="harmonic:coeffs=1;0.2")
    res = minimize(spec)
    reads = []
    interp_box = HalfBallGrid.interp_box
    monkeypatch.setattr(HalfBallGrid, "interp_box",
                        lambda *a, **k: reads.append(1) or interp_box(*a, **k))
    pt = analyze_point(extract_gamma(res.u)[0], res)
    monkeypatch.undo()
    assert pt.mu_hat is not None
    assert len(reads) == 2 * pt.profile.radii.size + 2
    fits = {mu: blowup_fit(pt.profile, mu) for mu in MU_CANDIDATES}
    assert pt.best_fit_degree == min(fits, key=lambda k: np.nanmin(fits[k].residuals))
    fit = fits[pt.p_mu.degree]
    assert np.array_equal(pt.p_mu.coeffs, fit.p_mu.coeffs)
    assert np.array_equal(pt.q_mu.coeffs, fit.q_mu.coeffs)
    assert pt.fit_residual == fit.residuals[0]


def test_nondegeneracy_ratio():
    prof = _profile(_rez2, np.geomspace(0.1, 0.5, 9))
    at_two = nondegeneracy_check(prof, 2.0).min()
    assert 0.99 < at_two <= 1.0
    # Claiming a lower frequency than the truth makes the ratio collapse
    # with the smallest radius.
    at_one = nondegeneracy_check(prof, 1.0).min()
    assert at_one == pytest.approx(0.1, rel=1e-3)


def test_singular_dimension_kernels():
    lin = HomogeneousHarmonicPoly(1, 1, [1.0])
    zero = HomogeneousHarmonicPoly(1, 1, [0.0])
    assert singular_dimension(lin, lin) == 0
    # A vanishing polynomial is uninformative: the other one decides,
    # conservatively capped at the thin dimension.
    assert singular_dimension(zero, lin) == 1
    with pytest.raises(ValueError, match="equal degree"):
        singular_dimension(lin, HomogeneousHarmonicPoly(1, 2, [1.0]))
    with pytest.raises(ValueError, match="zero"):
        singular_dimension(zero, zero)


def test_singular_dimension_two_thin_directions():
    b = harmonic_basis(2, 1)
    # Any nonzero linear form on a two-dimensional face has a line kernel.
    assert singular_dimension(b[0], b[1]) == 1

