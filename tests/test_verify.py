"""Negative controls for acceptance checks 4, 6, 7 and 8 (the clauses can
fail), the refinement study on the corpus energy ladders, the closed-form
gradient of checks 3, 9 and 12, the point sets checks 6 and 10 build, and
the lattices the quick suite builds."""

import dataclasses
import io
import types

import numpy as np
import pytest

import bilaplab.diagnostics
import bilaplab.grid
from bilaplab import verify
from bilaplab.diagnostics import mean_value_defects, refinement
from bilaplab.grid import HalfBallGrid, InterpPlan


@pytest.mark.parametrize("h_inv", [16, 32])
def test_face_identity_fails_with_swapped_phase_weights(h_inv):
    """Check 6 reads F(u) from the spec; the wrong weights break the identity."""
    h = 1.0 / h_inv
    slack = 1e-6 + 10.0 * h * h
    res = verify.corpus_solve("asym-p2", h_inv)
    spec = verify.corpus_spec("asym-p2", h_inv)
    swapped = dataclasses.replace(spec, lambda_plus=spec.lambda_minus,
                                  lambda_minus=spec.lambda_plus)
    v_defects = {rho: mean_value_defects([res.v], rho) for rho in (4 * h, 8 * h)}

    def worst(s):
        return max(np.abs(verify.face_identity_residual(res.u, s, z, d[0], rho)).max()
                   for rho, (z, d) in v_defects.items())

    assert worst(spec) <= slack
    assert worst(swapped) > slack


def test_symmetry_predicate_reads_the_spec():
    assert verify.odd_in_x(verify.corpus_spec("sym-p2", 16))
    assert verify.odd_in_x(verify.corpus_spec("sym-p3", 16))
    assert not verify.odd_in_x(verify.corpus_spec("asym-p2", 16))
    spec = verify.corpus_spec("sym-p2", 16)
    # each half of the predicate on its own
    assert not verify.odd_in_x(dataclasses.replace(spec, lambda_plus=2.0))
    assert not verify.odd_in_x(dataclasses.replace(spec, g="harmonic:coeffs=1;0.2"))


def test_check_v_vanishes_fails_without_forced_point(monkeypatch):
    monkeypatch.setattr(verify, "CORPUS", {"asym-p2": verify.CORPUS["asym-p2"]})
    result = verify.check_v_vanishes("quick")
    assert not result.passed
    assert "no symmetry-forced point" in result.measured


def test_corpus_energy_ladders_read_settled_only_where_the_order_has_settled():
    """asym-p2's order-1 Richardson energies at h = 1/128 and 1/256 agree to
    1e-5 and its ladder 1/16 ... 1/256 reads settled; sym-p3's ladder
    1/16 ... 1/64, whose orders are 1.55 and 1.51, does not."""
    asym = [verify.corpus_solve("asym-p2", k).energy for k in (16, 32, 64, 128, 256)]
    assert abs(refinement(asym).extrapolated - refinement(asym[:-1]).extrapolated) <= 1e-5
    assert refinement(asym).settled
    assert not refinement([verify.corpus_solve("sym-p3", k).energy for k in (16, 32, 64)]).settled


def _fabricated_points(monkeypatch, ladder):
    """`verify.corpus_points(tag, h_inv)` serves the points described by
    ladder[tag][h_inv], each a dict of attributes, instead of solving. The
    memoized corpus functions are replaced, not refilled, so no cache sees
    a fabricated point."""
    monkeypatch.setattr(verify, "corpus_points", lambda tag, h_inv: tuple(
        types.SimpleNamespace(**attrs) for attrs in ladder[tag][h_inv]))


@pytest.mark.parametrize("c64, passes", [(1.1, True), (1.5, False)], ids=["stable", "moves"])
def test_check_almgren_monotonicity_fails_when_the_constant_moves(monkeypatch, c64, passes):
    """C = 1.0 at 1/32 and c64 at 1/64: within 20% (plus 0.01) is stable."""
    _fabricated_points(monkeypatch, {tag: {32: [{"almgren_constant": 1.0}],
                                           64: [{"almgren_constant": c64}]}
                                     for tag in verify.CORPUS})
    result = verify.check_almgren_monotonicity("full")
    assert result.passed == passes
    assert result.measured.count("UNSTABLE") == (0 if passes else 3)


@pytest.mark.parametrize("forced_c, v_asym, passes, note", [
    ((0.01, 0.0125, 0.0125), (0.1196, 0.1245, 0.1278), True, None),
    ((0.01, 0.02, 0.04), (0.1196, 0.1245, 0.1278), False,
     "sym-p2: forced C_h = 0.01/0.02/0.04 GROWS"),
    ((0.01, 0.0125, 0.0125), (0.10, 0.12, 0.16), False,
     "asym-p2: v(x*) = 0.1000/0.1200/0.1600 DRIFTS"),
], ids=["holds", "forced C grows", "v drifts"])
def test_check_v_vanishes_fails_when_the_ladder_breaks_its_rule(monkeypatch, forced_c, v_asym,
                                                               passes, note):
    """Check 7 at full, on fabricated points: |v| = C_h h on the axis of the
    odd configs and v_asym at the regular asym-p2 crossing."""
    h_list = (16, 32, 64)
    ladder = {tag: {k: [{"x": 0.0, "value_v": c / k}] for k, c in zip(h_list, forced_c)}
              for tag in ("sym-p2", "sym-p3")}
    ladder["asym-p2"] = {k: [{"x": 0.3, "value_v": v}] for k, v in zip(h_list, v_asym)}
    _fabricated_points(monkeypatch, ladder)
    result = verify.check_v_vanishes("full")
    assert result.passed == passes
    assert passes or note in result.measured


def test_check_weak_residual_refinement_fails_on_a_residual_that_does_not_shrink(monkeypatch):
    monkeypatch.setattr(verify, "weak_residual", lambda res, seed=0: 1e-3)
    result = verify.check_weak_residual_refinement("quick")
    assert not result.passed
    assert result.measured.count("orders 0.00/0.00") == 3


@pytest.mark.parametrize("coeffs", [{1: 1.0}, {2: 1.0}, {3: 1.0}, {2: 1.0, 3: 1e-3}],
                         ids=["1", "2", "3", "synthetic"])
def test_harmonic_power_gradient_is_the_central_difference(coeffs):
    """The closed-form gradient of check 3's Re z^mu, and of the synthetic
    Re z^2 + 1e-3 Re z^3 of checks 9 and 12, agrees with the
    central-difference gradient of the same values to 1e-8 at the
    quadrature points of the largest and smallest radius of check 3, and at
    their mirror images below the face."""
    from bilaplab.grid import sphere_quadrature
    from bilaplab.problem import AnalyticField

    grid, _ = verify._fine_sizing()
    f = verify.harmonic_power(coeffs, grid)
    differenced = AnalyticField(f, grid)
    for r in (0.05, 0.9):
        quad = sphere_quadrature(grid, [0.0], r)
        pts = np.concatenate([quad.surface_points, quad.solid_points, quad.thin_points])
        below = pts * [1.0, -1.0]
        pts = np.concatenate([pts, below[below[:, 1] < 0]])
        assert (pts[:, 1] < 0).any()
        assert np.abs(f.gradient(pts) - differenced.gradient(pts)).max() <= 1e-8


@pytest.mark.parametrize("level", ["quick", "full"])
def test_check_integral_identities_builds_three_quadratures(monkeypatch, level):
    """Check 10 builds B_0.9(0) for h = 1/80 and 1/160 and B_0.5(0) for
    h = 1/80 once per call, and every field of its corpus reads them. The
    h = 1/160 rule is sized without building that lattice."""
    built = []
    quadrature = bilaplab.grid.sphere_quadrature
    for module in (verify, bilaplab.diagnostics):
        monkeypatch.setattr(module, "sphere_quadrature",
                            lambda *a: built.append(a) or quadrature(*a), raising=False)
    lattices = []
    init = HalfBallGrid.__init__

    def counting(self, n, h):
        lattices.append(h)
        init(self, n, h)

    monkeypatch.setattr(HalfBallGrid, "__init__", counting)
    bilaplab.grid.build_grid.cache_clear()
    assert verify.check_integral_identities(level).passed
    assert len(built) == 3
    assert all(round(1.0 / h) != 160 for h in lattices)


def test_quick_suite_builds_only_the_lattices_of_its_solves(monkeypatch):
    """From empty memos, `verify --level quick` builds the lattices of its
    corpus solves, 1/h in {8, 16, 32}, and no other: the analytic fields
    and rules of checks 3, 9, 10 and 12 are sized from plain (n, h) records."""
    lattices = []
    init = HalfBallGrid.__init__

    def counting(self, n, h):
        lattices.append(round(1.0 / h))
        init(self, n, h)

    for fn in (verify.corpus_spec, verify.corpus_solve, verify.corpus_oracle,
               verify.corpus_points, verify._synthetic_fit, bilaplab.grid.build_grid):
        fn.cache_clear()
    monkeypatch.setattr(HalfBallGrid, "__init__", counting)
    assert verify.run_suite("quick", stream=io.StringIO()) == 0
    assert set(lattices) == {8, 16, 32}


@pytest.mark.parametrize("level", ["quick", "full"])
def test_check_mean_value_builds_at_most_twelve_interpolation_plans(monkeypatch, level):
    """Per corpus config and radius, check 6 builds one plan of its sample
    points, which u+-, v+- and v read, and one of the face chords, which u
    reads: 3 x 2 x 2 plans."""
    verify.check_mean_value(level)  # the memoized corpus solves
    built = []
    interp_plan = HalfBallGrid.interp_plan

    def counting(self, points):
        built.append(not isinstance(points, InterpPlan))
        return interp_plan(self, points)

    monkeypatch.setattr(HalfBallGrid, "interp_plan", counting)
    assert verify.check_mean_value(level).passed
    assert 0 < sum(built) <= 12
