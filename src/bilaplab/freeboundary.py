"""Free-boundary extraction, classification, rescalings, and blow-up fits.

The free boundary lives on the thin face: the topological boundary (within
the face) of the positivity and negativity sets of the trace u(., 0). Points
are found by scanning the thin trace, classified by the size of the thin
gradients of u and v, and analyzed by rescaling the pair around the point
and fitting homogeneous harmonic polynomials on the unit half-sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .diagnostics import RadialProfile, _as_probe
from .grid import _TOL, HalfBallGrid, _as_thin_center, build_grid, half_sphere
from .harmonics import HomogeneousHarmonicPoly, harmonic_basis
from .problem import ProblemSpec, ScalarField


@dataclass
class FreeBoundaryPoint:
    """A point of the free boundary on the thin face (n=1: a single x).

    Filled progressively: extract_gamma sets location and side labels;
    classify_point sets classification, thin gradients, and metadata;
    the blow-up pipeline fills the radial profile it extrapolates, mu_hat,
    mu_int, fits, residual, dimension.
    """

    x: float
    in_plus: bool = False
    in_minus: bool = False
    classification: str | None = None
    grad_u: float | None = None
    grad_v: float | None = None
    value_u: float | None = None
    value_v: float | None = None
    mu_hat: float | None = None
    mu_int: int | None = None
    p_mu: HomogeneousHarmonicPoly | None = None
    q_mu: HomogeneousHarmonicPoly | None = None
    fit_residual: float | None = None
    dimension: int | None = None
    profile: RadialProfile | None = None
    metadata: dict = dc_field(default_factory=dict)

    @property
    def location(self) -> np.ndarray:
        return np.array([self.x, 0.0])

    @property
    def side(self) -> str:
        if self.in_plus and self.in_minus:
            return "both"
        return "+" if self.in_plus else "-"


def extract_gamma(u: ScalarField, spec: ProblemSpec, zero_tol: float | None = None,
                  ) -> list[FreeBoundaryPoint]:
    """Locate the free boundary of the thin trace of u (n=1 only).

    Sign changes between adjacent thin nodes are placed by linear
    interpolation and belong to both sides. A maximal run of (numerically)
    zero nodes contributes its endpoints: an endpoint adjacent to a nonzero
    node is a boundary point of that node's sign set; runs touching the
    corners contribute nothing there (the free boundary is open in the face).

    By default a node counts as zero when |u| <= eps h^-4 max(1, sup|u|) on
    the face, with eps the double-precision unit roundoff. That is the
    rounding floor of the solve: the lattice bi-Laplacian has condition
    number O(h^-4), and a trace value that is 0 in exact arithmetic (u(0)
    of an odd problem) comes out at about 1e-12 at h = 1/32 and 1e-10 at
    h = 1/128, whatever the CG tolerance.
    """
    g = u.grid
    if g.n != 1:
        raise ValueError("free-boundary extraction is implemented for n=1 only")
    ids = g.face_ids
    x = g.nodes[ids, 0]
    t = u.values[ids]
    if zero_tol is None:
        zero_tol = np.finfo(float).eps / g.h ** 4 * max(1.0, float(np.abs(t).max()))
    sign = np.where(t > zero_tol, 1, np.where(t < -zero_tol, -1, 0))

    points: dict[float, FreeBoundaryPoint] = {}

    def add(xs: float, plus: bool, minus: bool) -> None:
        if abs(xs) >= 1.0 - 1e-12:
            return
        key = round(xs / (g.h * 1e-6))
        pt = points.get(key)
        if pt is None:
            pt = FreeBoundaryPoint(x=float(xs))
            points[key] = pt
        pt.in_plus |= plus
        pt.in_minus |= minus

    # strict sign changes between consecutive nonzero nodes
    for i in range(len(x) - 1):
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]:
            xs = x[i] + (x[i + 1] - x[i]) * (-t[i]) / (t[i + 1] - t[i])
            add(xs, True, True)

    # zero plateaus: maximal runs of sign == 0
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


def thin_gradient(w, x0: float, grid: HalfBallGrid, spec: ProblemSpec | None = None,
                  ) -> float:
    """Central-difference tangential derivative of the thin trace at x0."""
    p = _as_probe(w, grid, spec)
    g = p.grid
    step = min(g.h, 1.0 - abs(x0) - 1e-12)
    if step <= 0:
        raise ValueError(f"point x={x0} too close to the face edge")
    a = p.values(np.array([[x0 + step, 0.0]]))[0]
    b = p.values(np.array([[x0 - step, 0.0]]))[0]
    return float((a - b) / (2.0 * step))


def classify_point(point: FreeBoundaryPoint, u, v, spec: ProblemSpec,
                   tau: float | None = None, tau_prime: float | None = None,
                   grid: HalfBallGrid | None = None) -> str:
    """REGULAR when the trace vanishes and both thin gradients are nonzero.

    Numerical gates: |u(point)| <= tau (default 1e-6 + 10 h^2) and
    min(|d_x u|, |d_x v|) > tau' (default 10 h). Anything else is SINGULAR.
    A REGULAR verdict records the local smooth-graph conclusion (class
    C^{3,alpha}) as metadata: it is a classification tag, not a computed
    fact. The thresholds are calibration choices and are stored alongside.
    """
    pu = _as_probe(u, grid, spec)
    pv = _as_probe(v, grid, spec)
    g = pu.grid
    if tau is None:
        tau = 1e-6 + 10.0 * g.h ** 2
    if tau_prime is None:
        tau_prime = 10.0 * g.h
    pt = np.array([[point.x, 0.0]])
    point.value_u = float(pu.values(pt)[0])
    point.value_v = float(pv.values(pt)[0])
    point.grad_u = thin_gradient(pu, point.x, g)
    point.grad_v = thin_gradient(pv, point.x, g)
    point.metadata["tau"] = tau
    point.metadata["tau_prime"] = tau_prime
    regular = (abs(point.value_u) <= tau
               and abs(point.grad_u) > tau_prime
               and abs(point.grad_v) > tau_prime)
    point.classification = "REGULAR" if regular else "SINGULAR"
    if regular:
        point.metadata["graph_smoothness"] = "C3,alpha"
    return point.classification


# ---------------------------------------------------------------------------
# rescalings


def _eval_points(eval_grid: HalfBallGrid, center: np.ndarray, r: float) -> np.ndarray:
    return center[None, :] + r * eval_grid.nodes


def homogeneous_rescale(w, center, r: float, mu: float,
                        h_eval: float = 1.0 / 16, grid: HalfBallGrid | None = None,
                        spec: ProblemSpec | None = None) -> ScalarField:
    """w(center + r z) / r^mu sampled on a unit-half-ball evaluation lattice."""
    p = _as_probe(w, grid, spec)
    g = p.grid
    c = _as_thin_center(g.n, center)
    if r < 4.0 * g.h - _TOL:
        raise ValueError(f"rescaling radius r={r} under-resolved: need r >= 4h")
    if float(np.linalg.norm(c)) + r > 1.0 + _TOL:
        raise ValueError("rescaled ball leaves the unit ball")
    ev = build_grid(g.n, h_eval)
    vals = p.values(_eval_points(ev, c, r)) / r ** mu
    return ScalarField(ev, vals, role="rescaled")


def almgren_rescale(u, v, center, r: float, profile: RadialProfile,
                    h_eval: float = 1.0 / 16, grid: HalfBallGrid | None = None,
                    spec: ProblemSpec | None = None) -> tuple[ScalarField, ScalarField]:
    """(u, v)(center + r z) / sqrt(phi(r)) on the evaluation lattice.

    phi(r) is looked up in the supplied profile; by construction the pair
    then has unit surface norm: the half-sphere integral of u_r^2 + v_r^2
    is 1 up to interpolation and quadrature tolerance.
    """
    pu = _as_probe(u, grid, spec)
    pv = _as_probe(v, grid, spec)
    g = pu.grid
    c = _as_thin_center(g.n, center)
    hit = np.isclose(profile.radii, r, rtol=1e-9, atol=1e-12)
    if not hit.any():
        raise ValueError(f"radius {r} not present in the profile")
    phi = float(profile.phi[np.argmax(hit)])
    if not np.isfinite(phi) or phi <= 0.0:
        raise ValueError(f"degenerate phi(r) = {phi} at r = {r}")
    if r < 4.0 * g.h - _TOL:
        raise ValueError(f"rescaling radius r={r} under-resolved: need r >= 4h")
    ev = build_grid(g.n, h_eval)
    pts = _eval_points(ev, c, r)
    scale = np.sqrt(phi)
    ur = ScalarField(ev, pu.values(pts) / scale, role="rescaled")
    vr = ScalarField(ev, pv.values(pts) / scale, role="rescaled")
    return ur, vr


# ---------------------------------------------------------------------------
# blow-up fitting


@dataclass
class BlowupFit:
    """Result of fitting degree-mu homogeneous harmonic polynomials to the
    homogeneous rescalings of (u, v) on the unit half-sphere.

    residuals[k] is the relative surface-L2 misfit of the pair at radii[k]
    (0 = perfect fit, 1 = orthogonal). no_blowup flags residual > 0.5 at
    every radius: the pair does not look like a degree-mu blow-up at all.
    """

    mu: int
    radii: np.ndarray
    p_mu: HomogeneousHarmonicPoly
    q_mu: HomogeneousHarmonicPoly
    residuals: np.ndarray
    coeff_curve_u: np.ndarray
    coeff_curve_v: np.ndarray
    no_blowup: bool


def blowup_fit(u, v, center, radii, mu: int, m: int = 512,
               grid: HalfBallGrid | None = None, spec: ProblemSpec | None = None,
               ) -> BlowupFit:
    """Least-squares fit of the rescaled pair against the degree-mu basis.

    For each radius r the homogeneous rescaling w(center + r z)/r^mu is
    sampled on the unit half-sphere and projected onto the even harmonic
    basis of degree mu in the weighted L2 sense. The returned polynomials
    are the fits at the smallest radius; the residual curve should decrease
    toward 0 (linearly in r when the remainder is one degree higher).
    """
    if mu != int(mu) or mu < 1:
        raise ValueError(f"blow-up degree must be a positive integer, got {mu}")
    mu = int(mu)
    pu = _as_probe(u, grid, spec)
    pv = _as_probe(v, grid, spec)
    g = pu.grid
    c = _as_thin_center(g.n, center)
    radii = np.sort(np.asarray(radii, dtype=np.float64))
    basis = harmonic_basis(g.n, mu)
    direc, w = half_sphere(g.n, m)
    A = np.stack([b(direc) for b in basis], axis=1)
    sw = np.sqrt(w)
    Aw = A * sw[:, None]

    K = radii.size
    res = np.zeros(K)
    cu = np.zeros((K, len(basis)))
    cv = np.zeros((K, len(basis)))
    for k, r in enumerate(radii):
        pts = c[None, :] + r * direc
        au = pu.values(pts) / r ** mu
        av = pv.values(pts) / r ** mu
        solu, *_ = np.linalg.lstsq(Aw, au * sw, rcond=None)
        solv, *_ = np.linalg.lstsq(Aw, av * sw, rcond=None)
        cu[k], cv[k] = solu, solv
        mis = (w @ (au - A @ solu) ** 2) + (w @ (av - A @ solv) ** 2)
        norm = (w @ au ** 2) + (w @ av ** 2)
        res[k] = np.sqrt(mis / norm) if norm > 0 else float("nan")

    p = HomogeneousHarmonicPoly(g.n, mu, cu[0])
    q = HomogeneousHarmonicPoly(g.n, mu, cv[0])
    finite = res[np.isfinite(res)]
    nb = bool(finite.size > 0 and (finite > 0.5).all())
    return BlowupFit(mu=mu, radii=radii, p_mu=p, q_mu=q, residuals=res,
                     coeff_curve_u=cu, coeff_curve_v=cv, no_blowup=nb)


def nondegeneracy_check(u, v, center, radii, mu: float, m: int = 512,
                        grid: HalfBallGrid | None = None,
                        spec: ProblemSpec | None = None) -> float:
    """min over r of max(sup |u|, sup |v|) / r^mu on half-spheres.

    Positive and r-stable certifies nondegeneracy; 0 means the pair decays
    faster than r^mu (degenerate for the claimed frequency).
    """
    pu = _as_probe(u, grid, spec)
    pv = _as_probe(v, grid, spec)
    g = pu.grid
    c = _as_thin_center(g.n, center)
    radii = np.sort(np.asarray(radii, dtype=np.float64))
    direc, _ = half_sphere(g.n, m)
    best = np.inf
    for r in radii:
        pts = c[None, :] + r * direc
        su = float(np.abs(pu.values(pts)).max())
        sv = float(np.abs(pv.values(pts)).max())
        best = min(best, max(su, sv) / r ** mu)
    return float(best)


def singular_dimension(p_mu: HomogeneousHarmonicPoly, q_mu: HomogeneousHarmonicPoly,
                       rel_tol: float = 1e-10) -> int:
    """Dimension of the singular stratum carried by a fitted pair.

    For each polynomial, the thin directions zeta with
    zeta . grad_x poly(x, 0) = 0 for all x form the kernel of its thin-trace
    gradient coefficient matrix; d is the max of the two kernel dimensions.
    The rank uses a relative singular-value threshold, so rescaling either
    polynomial by a nonzero constant cannot change the answer.
    """
    if p_mu.degree != q_mu.degree:
        raise ValueError("fitted polynomials must have equal degree")

    def kdim(poly: HomogeneousHarmonicPoly) -> int | None:
        A = poly.thin_gradient_matrix()
        scale = float(np.abs(A).max())
        if scale == 0.0:
            return None  # zero polynomial: no information
        s = np.linalg.svd(A, compute_uv=False)
        rank = int((s > rel_tol * s[0]).sum())
        return A.shape[0] - rank

    du = kdim(p_mu)
    dv = kdim(q_mu)
    if du is None and dv is None:
        raise ValueError("both fitted polynomials are zero: blow-up fit failed upstream")
    n = p_mu.n
    du = n if du is None else du
    dv = n if dv is None else dv
    return max(du, dv)


def continuity_probe(points: list[FreeBoundaryPoint], m: int = 512) -> float:
    """Max over adjacent fitted singular points of the surface-L2 distance
    between their polynomial pairs (same degree required)."""
    pts = [p for p in points if p.p_mu is not None and p.q_mu is not None]
    if len(pts) < 2:
        raise ValueError("need at least two points with fitted polynomials")
    degs = {p.p_mu.degree for p in pts}
    if len(degs) != 1:
        raise ValueError(f"points carry different fitted degrees: {sorted(degs)}")
    pts = sorted(pts, key=lambda p: p.x)
    n = pts[0].p_mu.n
    direc, w = half_sphere(n, m)

    def dist(a, b) -> float:
        return float(np.sqrt(w @ (a(direc) - b(direc)) ** 2))

    worst = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        worst = max(worst, dist(a.p_mu, b.p_mu) + dist(a.q_mu, b.q_mu))
    return worst


# ---------------------------------------------------------------------------
# pipeline


def analyze_point(point: FreeBoundaryPoint, u, v, spec: ProblemSpec,
                  m: int = 512, grid: HalfBallGrid | None = None,
                  mu_candidates: tuple[int, ...] = (1, 2, 3)) -> FreeBoundaryPoint:
    """Classification plus frequency, blow-up fit, and stratum dimension.

    Runs the full per-point pipeline: thin-gradient classification, Almgren
    frequency extrapolation for mu_hat/mu_int, blow-up fits over candidate
    degrees (recording the best), and singular dimension for fitted pairs.
    """
    from .diagnostics import compute_profile, default_radii, estimate_mu

    pu = _as_probe(u, grid, spec)
    pv = _as_probe(v, grid, spec)
    g = pu.grid
    classify_point(point, pu, pv, spec)
    radii = default_radii(g, [point.x])
    prof = point.profile = compute_profile(pu, pv, [point.x], radii, spec, m=m)
    try:
        point.mu_hat, point.mu_int = estimate_mu(prof)
    except ValueError as exc:
        point.metadata["mu_error"] = str(exc)
        return point

    fits = {}
    for mu in mu_candidates:
        fits[mu] = blowup_fit(pu, pv, [point.x], radii, mu, m=m)
    best_mu = min(fits, key=lambda k: np.nanmin(fits[k].residuals))
    point.metadata["best_fit_degree"] = best_mu
    pick = point.mu_int if point.mu_int in fits else best_mu
    fit = fits[pick]
    point.p_mu, point.q_mu = fit.p_mu, fit.q_mu
    point.fit_residual = float(fit.residuals[0])
    point.metadata["fit_no_blowup"] = fit.no_blowup
    try:
        point.dimension = singular_dimension(fit.p_mu, fit.q_mu)
    except ValueError as exc:
        point.metadata["dimension_error"] = str(exc)
    return point
