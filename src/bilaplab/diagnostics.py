"""Radial diagnostics: frequency functionals, identity checks, growth fits.

Everything here measures a pair of fields (u, v) around a center on the thin
face through quadrature over half-spheres, half-balls, and thin balls:

    H(r)   surface integral of u^2 + v^2
    D0(r)  solid integral of |grad u|^2 + |grad v|^2
    D(r)   D0 + solid integral of u v + thin integral of F(u) v
    B(r)   surface integral of |grad u|^2 + |grad v|^2
    N0     r D0 / H        (frequency of the pair)
    N      r D / H         (perturbed frequency)
    phi    H / r^n
    M_mu   (1 / r^(n+2mu)) surface integral of (u-p)^2 + (v-q)^2

Every instrument reads a field w in one way: w(pts), w.gradient(pts) or
w.with_gradient(pts) (both from one read), and w.grid, whose step h sizes
the quadrature. A field is a ScalarField (interpolated, gradients from
central-difference boxes) or an AnalyticField (closed forms, or gradients
by small-step central differences); both read through the even
extension. Laplacians come only from an AnalyticField. Analytic checks
want AnalyticFields; solver output ScalarFields; anything else is refused
with a TypeError.

Each field reads itself, one ScalarField read being one `interp_box` call.
`compute_profile` samples each sphere and ball with `sample_count(r, h)`
directions, reads u once and v once per radius on the surface, solid and
thin points together, and keeps copies of its half-sphere samples. Those
samples are the one read of the pair on half-spheres around a center:
`monneau_curve` and `growth_fit` here, and the blow-up fits and
nondegeneracy check of `freeboundary`, take their values from them and
read no field. A profile's radii come from one rule, `profile_radii`, and
a quantity's ladder in h (h, h/2, ...) is a `refinement` study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (_TOL, HalfBallGrid, _as_thin_center, _gauss_on, ball_center, half_sphere,
                   sample_count, sphere_quadrature)
from .problem import AnalyticField, ProblemSpec, ScalarField, thin_reaction

DEGENERATE_FACTOR = 1e-14  # H below this times sup(u^2+v^2) is flagged
FACE_GAUSS_POINTS = 64  # Gauss-Legendre points per half-chord in face_mean_value_term
SETTLED_CUT = 0.1  # settled: 3+ values, last two Richardson values within this x last step


# ---------------------------------------------------------------------------
# field reads


def _field(w):
    """w itself when it is a field an instrument can read; TypeError otherwise."""
    if not isinstance(w, (ScalarField, AnalyticField)):
        raise TypeError(f"a field must be a ScalarField or an AnalyticField, "
                        f"got {type(w).__name__}")
    return w


# ---------------------------------------------------------------------------
# radial profile


@dataclass
class RadialProfile:
    """Radial functionals of a field pair around a thin-face center.

    Arrays are indexed like `radii` (ascending). Rows where H is below
    DEGENERATE_FACTOR times the squared sup of the pair are flagged in
    `degenerate` and carry NaN in the H-normalized columns (N0, N).
    `surface[k]` holds the half-sphere samples of radius k that H was
    taken from: the points relative to the center, the quadrature weights,
    and the values of u and v there.
    """

    center: np.ndarray
    radii: np.ndarray
    H: np.ndarray
    D0: np.ndarray
    D: np.ndarray
    B: np.ndarray
    N0: np.ndarray
    N: np.ndarray
    phi: np.ndarray
    degenerate: np.ndarray
    surface: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def default_radii(grid: HalfBallGrid, center) -> np.ndarray:
    """Geometric radius ladder r_k = r_max 2^(-k/4) down to 4h, ascending.

    r_max is 0.9 times the distance from the center to the sphere.
    """
    c = _as_thin_center(grid.n, center)
    r_max = 0.9 * (1.0 - float(np.linalg.norm(c)))
    r_min = 4.0 * grid.h
    if r_max < r_min - _TOL:
        raise ValueError(f"no admissible radii: 0.9 dist = {r_max:.4g} < 4h = {r_min:.4g}")
    out = []
    r = r_max
    while r >= r_min - _TOL:
        out.append(r)
        r = r_max * 2.0 ** (-(len(out)) / 4.0)
    return np.array(out[::-1])


def profile_radii(grid: HalfBallGrid, center, radii) -> np.ndarray:
    """The radius ladder of a profile around center: the given radii, each
    checked by `ball_center`, or `default_radii` when radii is None.
    ValueError when center has no admissible ball."""
    if radii is None:
        return default_radii(grid, center)
    for r in radii:
        ball_center(grid, center, r)
    return np.asarray(radii, dtype=np.float64)


def compute_profile(u, v, center, radii, spec: ProblemSpec) -> RadialProfile:
    """Fill every radial functional but M_mu by quadrature. See module docstring.

    u and v are ScalarFields or AnalyticFields; `spec` supplies the reaction
    F. M_mu needs a blow-up fit and comes from `monneau_curve` on the
    profile's half-sphere samples, which the profile keeps.
    """
    u, v = _field(u), _field(v)
    g = u.grid
    c = _as_thin_center(g.n, center)
    radii = np.sort(np.asarray(radii, dtype=np.float64))
    if radii.size == 0:
        raise ValueError("no radii supplied")

    K = radii.size
    H = np.zeros(K)
    D0 = np.zeros(K)
    Dv = np.zeros(K)
    Bv = np.zeros(K)
    sup2 = 0.0
    surface = []
    for k, r in enumerate(radii):
        quad = sphere_quadrature(g, c, float(r))
        # one read of each field per radius: surface [:s], solid [s:b], thin [b:];
        # the kept surface samples are copies, so that no whole read stays alive
        s = quad.surface_weights.size
        b = s + quad.solid_weights.size
        pts = np.concatenate([quad.surface_points, quad.solid_points, quad.thin_points])
        (ua, gu), (va, gv) = u.with_gradient(pts), v.with_gradient(pts)
        us, vs = ua[:s].copy(), va[:s].copy()
        surface.append((quad.surface_points - c, quad.surface_weights, us, vs))
        sup2 = max(sup2, float((us ** 2 + vs ** 2).max()))
        H[k] = quad.surface_weights @ (us ** 2 + vs ** 2)
        grad2 = (gu ** 2).sum(axis=1) + (gv ** 2).sum(axis=1)
        Bv[k] = quad.surface_weights @ grad2[:s]
        D0[k] = quad.solid_weights @ grad2[s:b]
        cross = quad.solid_weights @ (ua[s:b] * va[s:b])
        thin = quad.thin_weights @ (thin_reaction(ua[b:], spec) * va[b:])
        Dv[k] = D0[k] + cross + thin

    degenerate = H < DEGENERATE_FACTOR * max(sup2, 1e-300)
    safeH = np.where(degenerate, np.nan, H)
    N0 = radii * D0 / safeH
    N = radii * Dv / safeH
    phi = H / radii ** g.n

    return RadialProfile(center=c, radii=radii, H=H, D0=D0, D=Dv, B=Bv,
                         N0=N0, N=N, phi=phi, degenerate=degenerate, surface=surface)


def monneau_curve(profile: RadialProfile, mu: float, p_mu, q_mu) -> np.ndarray:
    """M_mu of the profiled pair on the profile's radii, from its half-sphere samples.

    p_mu and q_mu are callables on points RELATIVE to the center, typically
    HomogeneousHarmonicPoly instances. The fields are not read again: the
    values are those `compute_profile` took H from. Rows the profile flags
    degenerate are NaN.
    """
    n = profile.center.size - 1
    M = np.array([(w @ ((us - np.asarray(p_mu(rel))) ** 2 + (vs - np.asarray(q_mu(rel))) ** 2))
                  / r ** (n + 2 * mu)
                  for r, (rel, w, us, vs) in zip(profile.radii, profile.surface)])
    return np.where(profile.degenerate, np.nan, M)


# ---------------------------------------------------------------------------
# identity checks


def rellich_residual(w, center, r: float) -> float:
    """|LHS - RHS| of the half-ball Rellich identity, coordinates centered.

        r int_surf (|grad w|^2 - 2 w_r^2)
          = (n-1) int_solid |grad w|^2
            - 2 int_solid (z . grad w) Lap w
            - 2 int_thin  (x . grad_x w) w_y

    The solid terms dot the full ambient position against the full ambient
    gradient; the thin term uses only the tangential coordinates and the
    vertical derivative (which vanishes for even fields, but the identity
    holds regardless). w must be an AnalyticField with a Laplacian.
    """
    if not isinstance(w, AnalyticField):
        raise TypeError("the Rellich residual needs an AnalyticField with a laplacian")
    g = w.grid
    c = _as_thin_center(g.n, center)
    quad = sphere_quadrature(g, c, float(r))

    gs = w.gradient(quad.surface_points)
    rel = quad.surface_points - c
    rad = rel / np.linalg.norm(rel, axis=1, keepdims=True)
    wr = (gs * rad).sum(axis=1)
    lhs = r * (quad.surface_weights @ ((gs ** 2).sum(axis=1) - 2.0 * wr ** 2))

    gb = w.gradient(quad.solid_points)
    relb = quad.solid_points - c
    lap = w.laplacian(quad.solid_points)
    rhs = (g.n - 1) * (quad.solid_weights @ (gb ** 2).sum(axis=1))
    rhs -= 2.0 * (quad.solid_weights @ ((relb * gb).sum(axis=1) * lap))

    gt = w.gradient(quad.thin_points)
    relt = quad.thin_points - c
    xdot = (relt[:, :-1] * gt[:, :-1]).sum(axis=1)
    rhs -= 2.0 * (quad.thin_weights @ (xdot * gt[:, -1]))
    return float(abs(lhs - rhs))


def _solid_and_surface(w, r: float):
    """The quadrature of B_r(0), int_solid |grad w|^2 and int_surf w^2."""
    g = _field(w).grid
    quad = sphere_quadrature(g, np.zeros(g.n), float(r))
    gb = w.gradient(quad.solid_points)
    return (quad, float(quad.solid_weights @ (gb ** 2).sum(axis=1)),
            float(quad.surface_weights @ w(quad.surface_points) ** 2))


def poincare_check(w, r: float) -> tuple[float, float]:
    """Both sides of (n/r^2) int w^2 <= (1/r) int_surf w^2 + int |grad w|^2."""
    quad, grad2, surf2 = _solid_and_surface(w, r)
    lhs = (w.grid.n / r ** 2) * float(quad.solid_weights @ w(quad.solid_points) ** 2)
    return lhs, surf2 / r + grad2


def trace_check(w, r: float) -> tuple[float, float]:
    """Thin-ball mass of w^2 and the trace-inequality bracket (no constant).

    Returns (int_thin w^2, r int_solid |grad w|^2 + int_surf w^2); a uniform
    constant C with lhs <= C * bracket across a corpus certifies the trace
    inequality numerically.
    """
    quad, grad2, surf2 = _solid_and_surface(w, r)
    return float(quad.thin_weights @ w(quad.thin_points) ** 2), r * grad2 + surf2


# ---------------------------------------------------------------------------
# frequency estimation and growth


def estimate_mu(profile: RadialProfile) -> tuple[float, int | None]:
    """Extrapolate the frequency N0 to r = 0 and gate it to an integer.

    Linear fit of N0 against r over the smallest half of the (non-degenerate)
    radii; the intercept is mu_hat. mu_int is the nearest integer when the
    distance to it is at most 0.15, else None.
    """
    ok = ~profile.degenerate & np.isfinite(profile.N0)
    r = profile.radii[ok]
    n0 = profile.N0[ok]
    if r.size < 8:
        raise ValueError(f"need at least 8 usable radii, have {r.size}")
    if r.max() < 2.0 * r.min() - _TOL:
        raise ValueError("radii must span at least one dyadic decade")
    half = max(2, r.size // 2)
    rs, ns = r[:half], n0[:half]
    slope, intercept = np.polyfit(rs, ns, 1)
    mu_hat = float(intercept)
    nearest = round(mu_hat)
    mu_int = int(nearest) if abs(mu_hat - nearest) <= 0.15 else None
    return mu_hat, mu_int


def _surface_sups(profile: RadialProfile) -> np.ndarray:
    """sup |u| and sup |v| over each half-sphere of the profile, shape (K, 2)."""
    return np.array([[np.abs(us).max(), np.abs(vs).max()] for _, _, us, vs in profile.surface])


def growth_fit(profile: RadialProfile, r_max: float) -> float:
    """Least-squares slope of log sup |u| against log r over the profile's
    half-spheres of radius at most r_max.

    Radii where the sup is exactly zero are dropped from the fit; NaN when
    fewer than two remain (degenerate).
    """
    sups = _surface_sups(profile)[:, 0]
    keep = (profile.radii <= r_max) & (sups > 0)
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(profile.radii[keep]), np.log(sups[keep]), 1)[0])


# ---------------------------------------------------------------------------
# mean-value (subharmonicity) check


def mean_value_defects(w: ScalarField, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-centre defect w(z) minus the sphere average of w at radius rho.

    Centres are the interior nodes whose whole ball B_rho(z) lies inside the
    unit ball; returns (centres, defects) with centres of shape (N, n+1).
    The average is over the full sphere around z inside the even extension
    (queries below the face are mirrored), vectorised over all centres, on
    the `half_sphere(n, sample_count(rho, h) // 2)` directions and their
    mirror images.

    A field subharmonic in the open half-ball has nonpositive defect only on
    balls that miss the face, up to interpolation error O(h^2). Balls that
    meet it see the even extension across the face: when w has a nonzero
    one-sided d_y w there, the extension has a kink and its distributional
    Laplacian carries the face measure 2 d_y w delta_face.
    For v = Lap u that measure is 2 F(u) delta_face; see
    `face_mean_value_term`.
    """
    g = w.grid
    ids = g.interior_ids
    pts = g.nodes[ids]
    ok = np.linalg.norm(pts, axis=1) + rho <= 1.0 + _TOL
    pts = pts[ok]
    vals = w.values[ids[ok]]
    if pts.shape[0] == 0:
        return pts, vals
    upper, w_half = half_sphere(g.n, sample_count(rho, g.h) // 2)
    lower = upper * np.append(np.ones(g.n), -1.0)
    direc = np.concatenate([upper, lower])
    wgt = np.concatenate([w_half, w_half]) / (2.0 * w_half.sum())
    samples = pts[:, None, :] + rho * direc[None, :, :]
    flat = samples.reshape(-1, g.n + 1)
    svals = w(flat).reshape(pts.shape[0], -1)
    return pts, vals - svals @ wgt


def face_mean_value_term(u, spec: ProblemSpec, centres, rho: float) -> np.ndarray:
    """Face part of the Riesz mean-value formula for v = Lap u (n = 1).

    The even extension of v has Laplacian 2 F(u) delta_face, because v is
    harmonic in the open half-disc and v_y = F(u) on the face. The Riesz
    formula on the disc B_rho(z) then reads

        mean_{dB_rho(z)} v - v(z)
            = (1/pi) int_{B_rho(z) cap face} log(rho / |zeta - z|) F(u(zeta)) dzeta,

    and this returns the right-hand side per centre (0 for balls that miss
    the face). The face chord is split at the foot of z, with
    FACE_GAUSS_POINTS Gauss points on each half; u is read along the face
    through its interpolant.
    """
    if u.grid.n != 1:
        raise ValueError("the face mean-value term is implemented for n=1 only")
    z = np.atleast_2d(np.asarray(centres, dtype=np.float64))
    y = z[:, 1:2]
    half = np.sqrt(np.maximum(rho ** 2 - y ** 2, 0.0))
    s, ws = _gauss_on(0.0, half, FACE_GAUSS_POINTS)
    kernel = ws * np.log(rho / np.sqrt(s ** 2 + y ** 2))
    out = np.zeros(z.shape[0])
    for side in (-1.0, 1.0):
        zeta = (z[:, :1] + side * s).ravel()
        pts = np.stack([zeta, np.zeros_like(zeta)], axis=-1)
        F = thin_reaction(u(pts), spec).reshape(s.shape)
        out += (kernel * F).sum(axis=1)
    return out / np.pi


# ---------------------------------------------------------------------------
# monotonicity-constant fitting


def _ascending_finite(radii, f) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (r, f) in ascending r, without the rows where f is not finite."""
    r = np.asarray(radii, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    order = np.argsort(r)
    keep = np.isfinite(f[order])
    return r[order][keep], f[order][keep]


def minimal_almgren_constant(radii, N) -> float:
    """Least C in [0, 50] making e^(Cr) (N(r)+1) nondecreasing with slack 1e-3.

    Nondecreasing with per-step slack means every adjacent pair (ascending r)
    satisfies value(r_next) >= value(r_prev) - 1e-3. Returns NaN when even
    C = 50 fails. Scanned on a uniform C grid of step 0.01.
    """
    r, f = _ascending_finite(radii, np.asarray(N, dtype=np.float64) + 1.0)
    if r.size < 2:
        return 0.0
    C = np.linspace(0.0, 50.0, 5001)
    vals = np.exp(C[:, None] * r[None, :]) * f[None, :]
    ok = (np.diff(vals, axis=1) >= -1e-3).all(axis=1)
    if not ok.any():
        return float("nan")
    return float(C[np.argmax(ok)])


def minimal_monneau_constant(radii, M) -> float:
    """Least C in [0, 50] making M(r) + C r nondecreasing with slack 1e-3.

    Closed form: each adjacent pair needs C >= (drop - 1e-3) / dr; the
    answer is the max over pairs, clamped at 0; NaN when it exceeds 50.
    """
    r, f = _ascending_finite(radii, M)
    if r.size < 2:
        return 0.0
    need = (-(np.diff(f)) - 1e-3) / np.diff(r)
    c = max(0.0, float(need.max()))
    return c if c <= 50.0 else float("nan")


# ---------------------------------------------------------------------------
# refinement in h


@dataclass(frozen=True)
class Refinement:
    """q at h, h/2, h/4, ...: `errors` (q less its known limit, else the steps
    q(h) - q(h/2)), `ratios[i]` = errors[i] / errors[i+1] and `orders` their
    log2, and `extrapolated` = 2 q(h/2) - q(h) of the last pair (order 1)."""

    errors: np.ndarray
    ratios: np.ndarray
    orders: np.ndarray
    extrapolated: float
    settled: bool

    def shrinks(self, growth: float, floor: float = 0.0) -> bool:
        """Every |errors[i+1]| <= growth |errors[i]| + floor."""
        e = np.abs(self.errors)
        return bool((e[1:] <= growth * e[:-1] + floor).all())


def refinement(values, limit=None) -> Refinement:
    """The `Refinement` of two or more values at h, h/2, ...; `limit`: their known limit or None."""
    q = np.asarray(values, dtype=np.float64)
    errors = q[:-1] - q[1:] if limit is None else q - limit
    rich = 2.0 * q[1:] - q[:-1]
    settled = q.size >= 3 and abs(rich[-1] - rich[-2]) <= SETTLED_CUT * abs(q[-1] - q[-2])
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 and x/0 read NaN and inf
        ratios = errors[:-1] / errors[1:]
        return Refinement(errors, ratios, np.log2(ratios), float(rich[-1]), bool(settled))
