"""Free-boundary extraction, classification, and blow-up fits.

The free boundary lives on the thin face: the topological boundary (within
the face) of the positivity and negativity sets of the trace u(., 0). Points
are found by scanning the phases of the thin trace, classified by the size
of the thin gradients of u and v, profiled by `profile_point` (the one
per-center profiling step), and analyzed by fitting homogeneous harmonic
polynomials to the homogeneous rescalings of the pair around the point.
The fits and the nondegeneracy check read the profile's half-sphere
samples, so the profile is the one read of the pair around a center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import (RadialProfile, _field, _surface_sups, compute_profile, estimate_mu,
                          minimal_almgren_constant, minimal_monneau_constant, monneau_curve,
                          profile_radii)
from .harmonics import HomogeneousHarmonicPoly, harmonic_basis
from .problem import ProblemSpec, ScalarField, face_phase

MU_CANDIDATES = (1, 2, 3)  # blow-up degrees that analyze_point fits


@dataclass
class FreeBoundaryPoint:
    """A point of the free boundary on the thin face (n=1: a single x), or
    another face center that `profile_point` profiles.

    Filled progressively: extract_gamma sets x and side labels;
    classify_point the classification and the values and thin gradients of
    u and v; profile_point the profile, its Almgren constant, mu_hat and
    mu_int, or profile_error / mu_error; analyze_point the fits,
    best_fit_degree, residual, dimension and Monneau constant.
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
    almgren_constant: float | None = None
    monneau_constant: float | None = None
    profile_error: str | None = None
    mu_error: str | None = None
    best_fit_degree: int | None = None

    @property
    def side(self) -> str:
        if self.in_plus and self.in_minus:
            return "both"
        return "+" if self.in_plus else "-"


def extract_gamma(u: ScalarField) -> list[FreeBoundaryPoint]:
    """Locate the free boundary of the thin trace of u (n=1 only).

    One scan over the face edges whose two nodes differ in `face_phase`. A
    sign change between two nonzero nodes is placed by linear interpolation
    and belongs to both sides; otherwise the zero node is a boundary point of
    the other node's sign set, so a zero run touching a corner contributes
    nothing there (the free boundary is open in the face).

    A node counts as zero when its `face_phase` is 0, that is when |u| is
    within the rounding floor eps h^-4 max(1, sup|u|) of the solve.
    """
    g = u.grid
    if g.n != 1:
        raise ValueError("free-boundary extraction is implemented for n=1 only")
    ids = g.face_ids
    x = g.nodes[ids, 0]
    t = u.values[ids]
    sign = face_phase(g, u.values)

    points: dict[float, FreeBoundaryPoint] = {}

    def add(xs: float, plus: bool, minus: bool) -> None:
        if abs(xs) >= 1.0 - 1e-12:
            return
        pt = points.setdefault(round(xs / (g.h * 1e-6)), FreeBoundaryPoint(x=float(xs)))
        pt.in_plus |= plus
        pt.in_minus |= minus

    for i in np.flatnonzero(sign[:-1] != sign[1:]):
        if sign[i] == 0:
            add(x[i], sign[i + 1] > 0, sign[i + 1] < 0)
        elif sign[i + 1] == 0:
            add(x[i + 1], sign[i] > 0, sign[i] < 0)
        else:
            xs = x[i] + (x[i + 1] - x[i]) * (-t[i]) / (t[i + 1] - t[i])
            add(xs, True, True)

    return sorted(points.values(), key=lambda p: p.x)


def classify_point(point: FreeBoundaryPoint, u, v) -> str:
    """REGULAR when the trace vanishes and both thin gradients are nonzero.

    Numerical gates: |u(point)| <= tau = 1e-6 + 10 h^2 and
    min(|d_x u|, |d_x v|) > tau' = 10 h. Anything else is SINGULAR. Each
    field is read once, at x and x +- step with step = min(h, distance to
    the face edge); the thin gradients are the central differences.
    The thresholds are calibration choices.
    """
    u, v = _field(u), _field(v)
    g = u.grid
    tau = 1e-6 + 10.0 * g.h ** 2
    tau_prime = 10.0 * g.h
    step = min(g.h, 1.0 - abs(point.x) - 1e-12)
    if step <= 0:
        raise ValueError(f"point x={point.x} too close to the face edge")
    x = np.array([[point.x, 0.0], [point.x + step, 0.0], [point.x - step, 0.0]])
    us, vs = u(x), v(x)
    point.value_u, point.value_v = float(us[0]), float(vs[0])
    point.grad_u = float((us[1] - us[2]) / (2.0 * step))
    point.grad_v = float((vs[1] - vs[2]) / (2.0 * step))
    regular = (abs(point.value_u) <= tau
               and abs(point.grad_u) > tau_prime
               and abs(point.grad_v) > tau_prime)
    point.classification = "REGULAR" if regular else "SINGULAR"
    return point.classification


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


def blowup_fit(profile: RadialProfile, mu: int) -> BlowupFit:
    """Least-squares fit of the rescaled pair against the degree-mu basis.

    For each radius r of the profile, the homogeneous rescaling
    w(center + r z)/r^mu is taken from the profile's half-sphere samples of
    that radius and projected onto the even harmonic basis of degree mu in
    the weighted L2 sense; the directions z are the samples' points relative
    to the center over r, and the basis is evaluated once per sample count.
    No field is read. The returned polynomials are the fits at the smallest
    radius; the residual curve should decrease toward 0 (linearly in r when
    the remainder is one degree higher).
    """
    if mu != int(mu) or mu < 1:
        raise ValueError(f"blow-up degree must be a positive integer, got {mu}")
    mu = int(mu)
    radii = profile.radii
    n = profile.center.size - 1
    basis = harmonic_basis(n, mu)
    by_count: dict[int, np.ndarray] = {}

    K = radii.size
    res = np.zeros(K)
    cu = np.zeros((K, len(basis)))
    cv = np.zeros((K, len(basis)))
    for k, (r, (rel, w, us, vs)) in enumerate(zip(radii, profile.surface)):
        if w.size not in by_count:
            by_count[w.size] = np.stack([b(rel / r) for b in basis], axis=1)
        A = by_count[w.size]
        sw = np.sqrt(w)
        Aw = A * sw[:, None]
        au = us / r ** mu
        av = vs / r ** mu
        solu, *_ = np.linalg.lstsq(Aw, au * sw, rcond=None)
        solv, *_ = np.linalg.lstsq(Aw, av * sw, rcond=None)
        cu[k], cv[k] = solu, solv
        mis = (w @ (au - A @ solu) ** 2) + (w @ (av - A @ solv) ** 2)
        norm = (w @ au ** 2) + (w @ av ** 2)
        res[k] = np.sqrt(mis / norm) if norm > 0 else float("nan")

    p = HomogeneousHarmonicPoly(n, mu, cu[0])
    q = HomogeneousHarmonicPoly(n, mu, cv[0])
    finite = res[np.isfinite(res)]
    nb = bool(finite.size > 0 and (finite > 0.5).all())
    return BlowupFit(mu=mu, radii=radii, p_mu=p, q_mu=q, residuals=res,
                     coeff_curve_u=cu, coeff_curve_v=cv, no_blowup=nb)


def nondegeneracy_check(profile: RadialProfile, mu: float) -> np.ndarray:
    """max(sup |u|, sup |v|) / r^mu at each radius of the profile, the sups
    taken over its half-sphere samples.

    Positive and r-stable certifies nondegeneracy; a minimum near 0 means
    the pair decays faster than r^mu (degenerate for the claimed frequency).
    """
    return _surface_sups(profile).max(axis=1) / profile.radii ** mu


def singular_dimension(p_mu: HomogeneousHarmonicPoly, q_mu: HomogeneousHarmonicPoly) -> int:
    """Dimension of the singular stratum carried by a fitted pair.

    For each polynomial, the thin directions zeta with
    zeta . grad_x poly(x, 0) = 0 for all x form the kernel of its thin-trace
    gradient coefficient matrix; d is the max of the two kernel dimensions.
    The rank uses the relative singular-value threshold 1e-10, so rescaling either
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
        rank = int((s > 1e-10 * s[0]).sum())
        return A.shape[0] - rank

    du = kdim(p_mu)
    dv = kdim(q_mu)
    if du is None and dv is None:
        raise ValueError("both fitted polynomials are zero: blow-up fit failed upstream")
    n = p_mu.n
    du = n if du is None else du
    dv = n if dv is None else dv
    return max(du, dv)


# ---------------------------------------------------------------------------
# pipeline


def profile_point(point: FreeBoundaryPoint, u, v, spec: ProblemSpec,
                  radii) -> FreeBoundaryPoint:
    """Profile the pair around point.x (the face origin at n = 2) on the
    `profile_radii` ladder, radii None meaning the default one: set the
    profile, its Almgren constant and `estimate_mu`'s mu_hat, mu_int, or
    record why not in profile_error (no admissible ball) or mu_error."""
    center = [point.x] + [0.0] * (u.grid.n - 1)
    try:
        radii = profile_radii(u.grid, center, radii)
    except ValueError as exc:
        point.profile_error = str(exc)
        return point
    prof = point.profile = compute_profile(u, v, center, radii, spec)
    point.almgren_constant = minimal_almgren_constant(prof.radii, prof.N)
    try:
        point.mu_hat, point.mu_int = estimate_mu(prof)
    except ValueError as exc:
        point.mu_error = str(exc)
    return point


def analyze_point(point: FreeBoundaryPoint, u: ScalarField, v: ScalarField,
                  spec: ProblemSpec) -> FreeBoundaryPoint:
    """Classification, frequency, blow-up fit, stratum dimension, and constants.

    Runs the full per-point pipeline: thin-gradient classification,
    `profile_point` on the default radii, blow-up fits over the degrees
    MU_CANDIDATES on the profile's half-sphere samples (the best in
    best_fit_degree), singular dimension for fitted pairs, and, when
    mu_int >= 1, the Monneau constant of the fit with mu = mu_int, taken
    from the same samples. The fields are read only by `classify_point`
    and the profile. A point that profile_point gives no frequency keeps
    its classification and stops there.
    """
    classify_point(point, u, v)
    profile_point(point, u, v, spec, None)
    if point.mu_hat is None:
        return point
    prof = point.profile

    fits = {mu: blowup_fit(prof, mu) for mu in MU_CANDIDATES}
    best_mu = point.best_fit_degree = min(fits, key=lambda k: np.nanmin(fits[k].residuals))
    pick = point.mu_int if point.mu_int in fits else best_mu
    fit = fits[pick]
    point.p_mu, point.q_mu = fit.p_mu, fit.q_mu
    point.fit_residual = float(fit.residuals[0])
    if point.mu_int is not None and point.mu_int >= 1:
        M = monneau_curve(prof, float(point.mu_int), fit.p_mu, fit.q_mu)
        point.monneau_constant = minimal_monneau_constant(prof.radii, M)
    try:
        point.dimension = singular_dimension(fit.p_mu, fit.q_mu)
    except ValueError:
        pass  # both fitted polynomials are zero: no dimension
    return point
