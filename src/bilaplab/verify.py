"""Acceptance suite: twelve numbered checks over solver, diagnostics, and extension.

Each check returns a CheckResult with a human-readable target and the measured
value; `run_suite` prints one line per check, ending in its wall time, and
exits nonzero when any check fails. The time is inclusive: a memoized corpus
solve is charged to the first check that asks for it. Level "quick" runs
reduced resolutions (about 0.9 s per process on a 2-core x86_64 machine
with one BLAS thread); "full" adds the h = 1/64 refinement studies and the
oracle comparisons at h = 1/16 (about 1.7 s there).

Corpus solves are memoized per process so the suite and the test harness share
them. The three corpus configurations exercise p = 2 against p = 3 and
symmetric against asymmetric phase weights. Each per-halving rule (checks 4,
7, 8 and 10) reads one `diagnostics.refinement` study of its h-ladder.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .diagnostics import (
    compute_profile,
    growth_fit,
    face_mean_value_term,
    mean_value_defects,
    minimal_monneau_constant,
    monneau_curve,
    poincare_and_trace,
    refinement,
    rellich_residual,
)
from .extension import RATIO_TARGET, RATIO_TOLERANCE, SPREAD_LIMIT, FourierTrace, dtn_compare
from .freeboundary import (MERGE_RESOLUTION, analyze_point, blowup_fit, extract_gamma,
                           nondegeneracy_check)
from .grid import sphere_quadrature
from .oracle import brute_minimize
from .problem import AnalyticField, ProblemSpec, ScalarField, energy_array, gradient_array
from .solver import minimize, weak_residual


@dataclass
class CheckResult:
    name: str
    target: str
    measured: str
    passed: bool


CORPUS = {
    "sym-p2": dict(p=2.0, lambda_plus=1.0, lambda_minus=1.0, g="harmonic:deg=1"),
    "asym-p2": dict(p=2.0, lambda_plus=2.0, lambda_minus=0.5, g="harmonic:coeffs=1;0.2"),
    "sym-p3": dict(p=3.0, lambda_plus=1.0, lambda_minus=1.0, g="harmonic:deg=1"),
}


# 1/h of the corpus solves whose free-boundary points checks 4, 5, 9 and 12 read
ANALYZED_H = {"quick": (32,), "full": (32, 64)}


@lru_cache(maxsize=None)
def corpus_spec(tag: str, h_inv: int) -> ProblemSpec:
    return ProblemSpec(n=1, h=1.0 / h_inv, **CORPUS[tag])


@lru_cache(maxsize=None)
def corpus_solve(tag: str, h_inv: int):
    return minimize(corpus_spec(tag, h_inv))


@lru_cache(maxsize=None)
def corpus_oracle(tag: str, h_inv: int):
    return brute_minimize(corpus_spec(tag, h_inv))


@lru_cache(maxsize=None)
def corpus_points(tag: str, h_inv: int):
    """Free-boundary points of a corpus solve, each set by `analyze_point`."""
    res = corpus_solve(tag, h_inv)
    return tuple(analyze_point(pt, res) for pt in extract_gamma(res.u))


def analyzed_points(level: str):
    """(tag, h_inv, point) over the free-boundary points that checks 5, 9 and 12 read."""
    return ((tag, h_inv, pt) for tag in CORPUS for h_inv in ANALYZED_H[level]
            for pt in corpus_points(tag, h_inv))


def _fine_sizing():
    """Sizing record (n, h) for analytic-field quadrature, h = 1/80, where the
    least radius the checks use, 0.05, is 4h, and sym-p2's spec at that h,
    which supplies F. `sphere_quadrature` reads only n and h, so no lattice
    is built."""
    return SimpleNamespace(n=1, h=1.0 / 80), corpus_spec("sym-p2", 80)


# ---------------------------------------------------------------------------
# 1. oracle equivalence


def check_oracle_equivalence(level: str = "quick") -> CheckResult:
    h_list = (8,) if level == "quick" else (8, 16)
    worst_e, worst_f = 0.0, 0.0
    for tag in CORPUS:
        for h_inv in h_list:
            main = corpus_solve(tag, h_inv)
            ref = corpus_oracle(tag, h_inv)
            worst_e = max(worst_e, abs(main.energy - ref.energy) / abs(ref.energy))
            worst_f = max(worst_f, float(np.abs(main.u.values - ref.u.values).max()))
    ok = worst_e <= 1e-8 and worst_f <= 1e-6
    return CheckResult(
        "oracle equivalence",
        "energy rel <= 1e-8, field sup <= 1e-6",
        f"energy rel {worst_e:.2e}, field sup {worst_f:.2e} (h: {h_list})",
        ok)


# ---------------------------------------------------------------------------
# 2. gradient consistency


def check_gradient_consistency(level: str = "quick") -> CheckResult:
    spec = corpus_spec("asym-p2", 8)
    grid = spec.grid()
    free = np.zeros(grid.node_count, dtype=bool)
    free[grid.free_ids] = True
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        w = np.zeros(grid.node_count)
        w[free] = rng.normal(scale=0.5, size=int(free.sum()))
        g = gradient_array(w, spec)
        for i in rng.choice(np.flatnonzero(free), size=20, replace=False):
            d = 1e-6 * max(1.0, abs(w[i]))
            wp = w.copy(); wp[i] += d
            wm = w.copy(); wm[i] -= d
            fd = (energy_array(wp, spec) - energy_array(wm, spec)) / (2 * d)
            worst = max(worst, abs(g[i] - fd) / max(abs(fd), 1e-12))
    return CheckResult(
        "gradient consistency",
        "rel err <= 1e-6 (5 fields x 20 coords)",
        f"max rel err {worst:.2e}",
        worst <= 1e-6)


# ---------------------------------------------------------------------------
# 3. frequency of analytic harmonic pairs


def _z_power(pts: np.ndarray, k: int) -> np.ndarray:
    """z^k at the (N, 2) points, z = x + i y, by k multiplications."""
    z = pts[:, 0] + 1j * pts[:, 1]
    out = np.ones_like(z)
    for _ in range(k):
        out = out * z
    return out


def harmonic_power(coeffs: dict[int, float], grid) -> AnalyticField:
    """The sum of c Re z^k over the (k, c) of coeffs (n = 1) with its closed-form
    gradient: since z^k is holomorphic, d/dx - i d/dy of Re z^k is k z^(k - 1)."""
    def gradient(pts):
        d = sum(c * k * _z_power(pts, k - 1) for k, c in coeffs.items())
        return np.stack([d.real, -d.imag], axis=-1)

    return AnalyticField(lambda pts: sum(c * _z_power(pts, k).real for k, c in coeffs.items()),
                         grid, gradient)


def check_analytic_frequency(level: str = "quick") -> CheckResult:
    grid, spec = _fine_sizing()
    radii = np.geomspace(0.05, 0.9, 17)
    worst = 0.0
    for mu in (1, 2, 3):
        f = harmonic_power({mu: 1.0}, grid)
        prof = compute_profile(f, f, [0.0], radii, spec)
        worst = max(worst, float(np.abs(prof.N0 - mu).max()))
    return CheckResult(
        "frequency of harmonic pairs",
        "N0 = mu +- 1e-3 at every radius, mu in {1,2,3}",
        f"max |N0 - mu| = {worst:.2e}",
        worst <= 1e-3)


# ---------------------------------------------------------------------------
# 4. Almgren near-monotonicity on solves


def check_almgren_monotonicity(level: str = "quick") -> CheckResult:
    h_list = ANALYZED_H[level]
    worst_c, ok, notes = 0.0, True, []
    per_h: dict[str, dict[int, float]] = {tag: {} for tag in CORPUS}
    for tag, by_h in per_h.items():
        for h_inv in h_list:
            cs = [pt.almgren_constant for pt in corpus_points(tag, h_inv)]
            if not cs or any(np.isnan(c) for c in cs):
                ok = False
                notes.append(f"{tag}@1/{h_inv}: no admissible C")
                continue
            c = max(cs)
            by_h[h_inv] = c
            worst_c = max(worst_c, c)
            ok &= c <= 50.0
    for tag, by_h in per_h.items():
        if 32 in by_h and 64 in by_h:  # full, with C at both h
            c32, c64 = by_h[32], by_h[64]
            # 0.01 is one step of the constant scan, the measurement floor
            stable = abs(refinement([c32, c64]).errors[0]) <= 0.2 * max(c32, c64) + 0.01
            ok &= stable
            notes.append(f"{tag}: C(1/32)={c32:.2f} C(1/64)={c64:.2f}"
                         + ("" if stable else " UNSTABLE"))
    return CheckResult(
        "Almgren near-monotonicity",
        "fitted C in [0,50], slack 1e-3; stable 1/32->1/64 within 20%",
        f"max C = {worst_c:.2f}; " + ("; ".join(notes) if notes else f"h: {h_list}"),
        ok)


# ---------------------------------------------------------------------------
# 5. growth estimate


def check_growth_estimate(level: str = "quick") -> CheckResult:
    worst_margin, ok, n_pts = np.inf, True, 0
    for _, _, pt in analyzed_points(level):
        if pt.mu_hat is None:
            continue  # analyze_point found no frequency here
        n_pts += 1
        # sup |u| over the smallest octave of the point's radii
        top = 2.0 * pt.profile.radii[0] + 1e-12
        margin = growth_fit(pt.profile, top) - (pt.mu_hat - 0.1)
        worst_margin = min(worst_margin, margin)
        ok &= margin >= 0.0
    return CheckResult(
        "growth estimate",
        "log-log slope of sup|u| >= mu_hat - 0.1 at each FB point",
        f"min slope margin {worst_margin:+.3f} over {n_pts} points",
        ok and n_pts > 0)


# ---------------------------------------------------------------------------
# 6. mean-value inequality off the face, Riesz identity on it


def face_identity_residual(u, spec: ProblemSpec, z, defect, rho: float) -> np.ndarray:
    """Residual of the Riesz mean-value formula for v on balls meeting the face.

    z and defect are the centres and v's defects of `mean_value_defects` at
    rho. Per centre with z_y < rho: v(z) - mean_{dB_rho(z)} v + the face term
    of `face_mean_value_term` of u, with F read from `spec`. Zero up to
    discretization when v = Lap u and v_y = F(u) on the face.
    """
    meets = z[:, -1] < rho - 1e-12
    return defect[meets] + face_mean_value_term(u, spec, z[meets], rho)


def check_mean_value(level: str = "quick") -> CheckResult:
    h_inv = 16 if level == "quick" else 32
    h = 1.0 / h_inv
    slack = 1e-6 + 10.0 * h * h
    worst = {"u+": 0.0, "u-": 0.0, "v+": 0.0, "v-": 0.0, "face identity": 0.0}
    raw = {"v+": 0.0, "v-": 0.0}
    for tag in CORPUS:
        res = corpus_solve(tag, h_inv)
        # u+, u-, v+, v- and v itself, whose defects the face identity reads
        fields = [ScalarField(w.grid, np.maximum(sign * w.values, 0.0))
                  for w in (res.u, res.v) for sign in (1.0, -1.0)] + [res.v]
        for rho in (4 * h, 8 * h):
            z, defects = mean_value_defects(fields, rho)
            for name, defect in zip(("u+", "u-", "v+", "v-"), defects):
                if name in raw:
                    # the even extension of v carries 2 F(u) delta_face, so
                    # v+- are sub-mean-value only on balls that miss the face
                    raw[name] = max(raw[name], defect.max(initial=0.0))
                    defect = defect[z[:, -1] >= rho - 1e-12]
                worst[name] = max(worst[name], defect.max(initial=0.0))
            ident = face_identity_residual(res.u, res.spec, z, defects[-1], rho)
            worst["face identity"] = max(worst["face identity"],
                                         np.abs(ident).max(initial=0.0))
    ok = all(v <= slack for v in worst.values())
    measured = (" ".join(f"{k}:{v:.1e}" for k, v in worst.items())
                + " (v+-, all balls: " + " ".join(f"{k}:{v:.1e}" for k, v in raw.items())
                + ")")
    return CheckResult(
        "mean-value inequality",
        f"<= {slack:.1e}: u+-, v+- off the face, face identity of v on it; "
        f"rho in {{4h,8h}}, h=1/{h_inv}",
        measured,
        ok)


# ---------------------------------------------------------------------------
# 7. trace of v at extracted free-boundary points


def odd_in_x(spec: ProblemSpec) -> bool:
    """True when the problem is odd under x1 -> -x1.

    That holds when lambda_plus == lambda_minus and g(-x, y) = -g(x, y) at
    the pinned nodes (a set closed under the reflection). The minimizer is
    unique, the energy being strictly convex, so it is then odd as well and
    u and v = Lap u vanish on the plane x1 = 0.
    """
    if spec.lambda_plus != spec.lambda_minus:
        return False
    grid = spec.grid()
    pts = grid.nodes[grid.pinned_ids]
    mirrored = pts.copy()
    mirrored[:, 0] *= -1.0
    g = np.asarray(spec.g(pts), dtype=np.float64)
    gm = np.asarray(spec.g(mirrored), dtype=np.float64)
    return bool(np.allclose(gm, -g, rtol=0.0, atol=1e-12 * max(1.0, np.abs(g).max())))


def check_v_vanishes(level: str = "quick") -> CheckResult:
    h_list = (16, 32) if level == "quick" else (16, 32, 64)
    ok, notes, n_forced = True, [], 0
    for tag in CORPUS:
        odd = odd_in_x(corpus_spec(tag, h_list[0]))
        forced, other = [], []
        for h_inv in h_list:
            pts = corpus_points(tag, h_inv)
            # symmetry forces v = 0 only on the axis x1 = 0 of an odd problem,
            # to the resolution at which extract_gamma merges points
            on_axis = [odd and abs(pt.x) <= MERGE_RESOLUTION / h_inv for pt in pts]
            forced.append([abs(pt.value_v) for pt, f in zip(pts, on_axis) if f])
            other.append([pt.value_v for pt, f in zip(pts, on_axis) if not f])
        if all(forced):
            n_forced += 1
            # C stable across h: each refinement may not grow the constant by
            # more than 25% beyond an absolute floor for exactly-vanishing cases
            cs = [max(f) * h_inv for f, h_inv in zip(forced, h_list)]
            stable = refinement(cs, limit=0.0).shrinks(1.25, 1e-8)
            ok &= stable
            notes.append(f"{tag}: forced C_h = " + "/".join(f"{c:.2f}" for c in cs)
                         + ("" if stable else " GROWS"))
        elif any(forced):
            ok = False
            notes.append(f"{tag}: forced point missing at some h")
        if not any(other):
            continue
        if len({len(o) for o in other}) != 1:
            ok = False
            notes.append(f"{tag}: point count changes across h")
            continue
        for vals in zip(*other):
            stable = refinement(vals).shrinks(1.25, 1e-8)  # a limit exists: the steps shrink
            ok &= stable
            notes.append(f"{tag}: v(x*) = " + "/".join(f"{v:.4f}" for v in vals)
                         + ("" if stable else " DRIFTS"))
    if n_forced == 0:
        ok = False
        notes.append("no symmetry-forced point")
    limit = "asserts nothing at quick" if len(h_list) < 3 else "same rule on its steps"
    return CheckResult(
        "v vanishes on the free boundary",
        f"|v(x*)| <= C h, C stable, at symmetry-forced x*; else v(x*) converges ({limit})",
        "h: " + ", ".join(f"1/{k}" for k in h_list) + "; " + "; ".join(notes),
        ok)


# ---------------------------------------------------------------------------
# 8. weak residual refinement


def check_weak_residual_refinement(level: str = "quick") -> CheckResult:
    ok, notes = True, []
    for tag in CORPUS:
        study = refinement([weak_residual(corpus_solve(tag, h_inv), seed=0)
                            for h_inv in (8, 16, 32)], limit=0.0)
        ok &= study.shrinks(0.5)  # each halving at least halves the residual: order >= 1
        notes.append(f"{tag}: orders " + "/".join(f"{o:.2f}" for o in study.orders))
    return CheckResult(
        "weak residual refinement",
        "per-halving order >= 1.0 across h in {1/8,1/16,1/32}",
        "; ".join(notes),
        ok)


# ---------------------------------------------------------------------------
# 9. Monneau near-monotonicity and nondegeneracy


@lru_cache(maxsize=None)
def _synthetic_fit():
    """The profile of the synthetic pair u = v = Re z^2 + 1e-3 Re z^3 (sized
    by `_fine_sizing`, gradient in closed form) on one decade of 13 radii,
    the pair's degree-2 blow-up fit on it, and the slope of log residual
    against log r. Checks 9 and 12 read this one profile and fit."""
    grid, spec = _fine_sizing()
    f = harmonic_power({2: 1.0, 3: 1e-3}, grid)
    radii = np.geomspace(0.05, 0.5, 13)  # one decade of radii
    prof = compute_profile(f, f, [0.0], radii, spec)
    fit = blowup_fit(prof, mu=2)
    slope = float(np.polyfit(np.log(radii), np.log(fit.residuals), 1)[0])
    return prof, fit, slope


def check_monneau_nondegeneracy(level: str = "quick") -> CheckResult:
    seeded = [(tag, h_inv, pt) for tag, h_inv, pt in analyzed_points(level)
              if pt.classification == "SINGULAR" and pt.mu_int is not None and pt.mu_int >= 2]
    notes, ok = [], True
    if seeded:
        for tag, h_inv, pt in seeded:
            c = pt.monneau_constant
            nd = nondegeneracy_check(pt.profile, pt.mu_int).min()
            good = np.isfinite(c) and c <= 50.0 and nd > 0.0
            ok &= good
            notes.append(f"{tag}@1/{h_inv} x*={pt.x:+.3f}: C={c:.2f} c_min={nd:.2e}")
    else:
        # no singular candidate arises in the corpus; exercise the synthetic pair
        prof, fit, slope = _synthetic_fit()
        M = monneau_curve(prof, 2.0, fit.p_mu, fit.q_mu)
        c = minimal_monneau_constant(prof.radii, M)
        cvals = nondegeneracy_check(prof, 2)
        ok = (np.isfinite(c) and c <= 50.0 and cvals.min() > 0.0
              and cvals.max() / cvals.min() <= 2.0 and abs(slope - 1.0) <= 0.1)
        notes.append(f"synthetic: C={c:.2f} c_min={cvals.min():.4f} "
                     f"spread={cvals.max()/cvals.min():.4f} residual slope={slope:.4f}")
    return CheckResult(
        "Monneau monotonicity + nondegeneracy",
        "C in [0,50] slack 1e-3; c_min > 0 stable over a decade; residual ~ r",
        "; ".join(notes),
        ok)


# ---------------------------------------------------------------------------
# 10. integral identity checks


def identity_corpus() -> dict[str, tuple]:
    """Five C^2 fields with two off-center |x - a|^3 kinks, each as its value,
    gradient and Laplacian in closed form. The kink cross terms keep the
    quadrature error measurable (the identity superconverges on smooth
    fields), so the halving clause of the check is a real statement about
    the rules rather than noise."""
    one = (np.ones_like, np.zeros_like, np.zeros_like)
    cosy = (np.cos, lambda y: -np.sin(y), lambda y: -np.cos(y))
    coshy = (np.cosh, np.sinh, np.cosh)
    ysq = (lambda y: 1 + y ** 2, lambda y: 2 * y, lambda y: 2 * np.ones_like(y))

    def cusp_pair(a, ga, b, gb):
        (g1, g1p, g1pp), (g2, g2p, g2pp) = ga, gb

        def kinks(p):
            """x - c, |x - c| and |x - c|^3 for c = a and c = b."""
            out = []
            for c in (a, b):
                s = p[..., 0] - c
                t = np.abs(s)
                out.append((s, t, t * t * t))
            return out

        def val(p):
            (_, _, ca), (_, _, cb) = kinks(p)
            return ca * g1(p[..., 1]) + cb * g2(p[..., 1])

        def grad(p):
            (sa, ta, ca), (sb, tb, cb) = kinks(p)
            out = np.empty_like(p)
            out[..., 0] = 3 * sa * ta * g1(p[..., 1]) + 3 * sb * tb * g2(p[..., 1])
            out[..., 1] = ca * g1p(p[..., 1]) + cb * g2p(p[..., 1])
            return out

        def lap(p):
            (_, ta, ca), (_, tb, cb) = kinks(p)
            return (6 * ta * g1(p[..., 1]) + ca * g1pp(p[..., 1])
                    + 6 * tb * g2(p[..., 1]) + cb * g2pp(p[..., 1]))

        return val, grad, lap

    return {
        "two-kink constant": cusp_pair(0.2, one, -0.4, one),
        "kink-cos + kink": cusp_pair(-0.37, cosy, 0.11, one),
        "kink-cosh + kink": cusp_pair(0.13, coshy, -0.31, one),
        "kink-parabolic + kink": cusp_pair(-0.29, ysq, 0.17, one),
        "kink-cos + kink-cosh": cusp_pair(0.39, cosy, -0.21, coshy),
    }


def check_integral_identities(level: str = "quick") -> CheckResult:
    grid, _ = _fine_sizing()
    # B_0.9(0) for h = 1/80 and (twice the samples) 1/160, and B_0.5(0) for 1/80;
    # each sized from a plain (n, h) record, so no lattice is built
    coarse = sphere_quadrature(grid, [0.0], 0.9)
    fine = sphere_quadrature(SimpleNamespace(n=1, h=1.0 / 160), [0.0], 0.9)
    small = sphere_quadrature(grid, [0.0], 0.5)
    ok, pt_ok, worst_res, worst_ratio = True, True, 0.0, np.inf
    for val, grad, lap in identity_corpus().values():
        fld = AnalyticField(val, grid, grad, lap)
        r512 = rellich_residual(fld, coarse)
        study = refinement([r512, rellich_residual(fld, fine)], limit=0.0)
        worst_res = max(worst_res, r512)
        worst_ratio = min(worst_ratio, study.ratios[0])
        ok &= r512 <= 1e-3 and study.shrinks(0.5, 1e-13)
        for quad in (small, coarse):
            (pl, pr), (tl, tr) = poincare_and_trace(fld, quad)
            pt_ok &= (pl <= pr) and (tl <= tr)
    ok &= pt_ok
    return CheckResult(
        "integral identities",
        f"Rellich <= 1e-3 at m={coarse.surface_weights.size}, halves at "
        f"m={fine.surface_weights.size}; Poincare/trace hold",
        f"max res {worst_res:.2e}, min halving ratio {worst_ratio:.1f}, "
        f"Poincare/trace {'ok' if pt_ok else 'VIOLATED'}",
        ok)


# ---------------------------------------------------------------------------
# 11. extension identity


def check_extension_dtn(level: str = "quick") -> CheckResult:
    report = dtn_compare(FourierTrace(np.array([0.0, 1.0, 1.0, 1.0])), Y=12.0)
    return CheckResult(
        "extension DtN identity",
        f"ratio {RATIO_TARGET:.2f} +- {RATIO_TOLERANCE:.0%} for k in {{1,2,3}} at Y=12, "
        f"spread <= {SPREAD_LIMIT:.0%}",
        f"ratios {', '.join(f'{r:.4f}' for r in report.ratios.values())}, "
        f"spread {report.spread:.4f}",
        report.ok)


# ---------------------------------------------------------------------------
# 12. blow-up fitting


def check_blowup_fitting(level: str = "quick") -> CheckResult:
    _, fit, slope = _synthetic_fit()
    coeff = float(fit.p_mu(np.array([[1.0, 0.0]]))[0])
    synth_ok = abs(coeff - 1.0) <= 1e-3 and abs(slope - 1.0) <= 0.1

    agree, outside, solver_ok = 0, 0, True
    for _, _, pt in analyzed_points(level):
        if pt.mu_int is not None and pt.mu_int >= 1:
            solver_ok &= (pt.best_fit_degree == pt.mu_int)
            agree += 1
        else:
            outside += 1  # frequency gate outside the positive-integer domain
    ok = synth_ok and solver_ok and agree > 0
    return CheckResult(
        "blow-up fitting",
        "synthetic coeff +- 1e-3, residual ~ r; gate agrees with best degree",
        f"coeff err {abs(coeff - 1.0):.1e}, slope {slope:.3f}; "
        f"{agree} gated points agree, {outside} outside integer domain",
        ok)


# ---------------------------------------------------------------------------
# suite driver


ALL_CHECKS = [
    check_oracle_equivalence,
    check_gradient_consistency,
    check_analytic_frequency,
    check_almgren_monotonicity,
    check_growth_estimate,
    check_mean_value,
    check_v_vanishes,
    check_weak_residual_refinement,
    check_monneau_nondegeneracy,
    check_integral_identities,
    check_extension_dtn,
    check_blowup_fitting,
]


def run_suite(level: str = "quick", stream=None) -> int:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}, expected 'quick' or 'full'")
    stream = stream or sys.stdout
    results, seconds = [], []
    for fn in ALL_CHECKS:
        start = time.perf_counter()
        try:
            results.append(fn(level))
        except Exception as exc:
            name = fn.__name__.removeprefix("check_").replace("_", " ")
            results.append(CheckResult(name, "-", f"error: {exc}", False))
        seconds.append(time.perf_counter() - start)
    name_w = max(len(r.name) for r in results)
    target_w = max(len(r.target) for r in results)
    print(f"acceptance suite, level={level}", file=stream)
    for i, (r, sec) in enumerate(zip(results, seconds), start=1):
        status = "pass" if r.passed else "FAIL"
        print(f"{i:2d}. {r.name:<{name_w}s}  {r.target:<{target_w}s}  "
              f"{r.measured}  [{status}]  {sec:.2f} s", file=stream)
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed"
          + (f"; failing: {', '.join(failed)}" if failed else ""), file=stream)
    return 0 if not failed else 1
