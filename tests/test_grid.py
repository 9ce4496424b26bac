"""Grid construction, classification, interpolation, and quadrature."""

import tracemalloc

import numpy as np
import pytest

from bilaplab.grid import (
    _INTERP_CHUNK,
    _TOL,
    CORNER,
    INTERIOR,
    OUTER,
    THIN,
    HalfBallGrid,
    OutOfDomainError,
    _leggauss,
    _row_dot,
    _shift,
    build_grid,
    cells_per_unit,
    half_sphere,
    sample_count,
    sphere_quadrature,
)
from bilaplab.config import ConfigError, parse_config
from bilaplab.problem import AnalyticField, ProblemSpec, ScalarField, SpecError


def test_nine_node_grid_enumeration():
    """At h = 1/2 the upper half ball holds exactly nine lattice nodes.

    Hand enumeration: the face row carries five nodes at x in
    {-1, -1/2, 0, 1/2, 1}, the row y = 1/2 carries three (|x| <= 1/2),
    and the pole (0, 1) closes the list.
    """
    g = build_grid(1, 0.5)
    assert g.node_count == 9
    expected = {
        (-1.0, 0.0), (-0.5, 0.0), (0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
        (-0.5, 0.5), (0.0, 0.5), (0.5, 0.5),
        (0.0, 1.0),
    }
    assert {tuple(z) for z in g.nodes} == expected
    assert len(g.face_ids) == 5


def test_nine_node_grid_classes():
    g = build_grid(1, 0.5)
    assert len(g.interior_ids) == 1
    assert (g.node_class == OUTER).sum() == 3
    assert len(g.thin_ids) == 1
    assert (g.node_class == CORNER).sum() == 4
    # the lone thin node is the origin and the lone interior node sits above it
    assert tuple(g.nodes[g.thin_ids[0]]) == (0.0, 0.0)
    assert tuple(g.nodes[g.interior_ids[0]]) == (0.0, 0.5)


def test_twentynine_node_grid_counts():
    """Hand count at h = 1/4: rows hold 9 + 7 + 7 + 5 + 1 = 29 nodes."""
    g = build_grid(1, 0.25)
    assert g.node_count == 29
    assert len(g.interior_ids) == 11
    assert (g.node_class == OUTER).sum() == 9
    assert len(g.thin_ids) == 5
    assert (g.node_class == CORNER).sum() == 4


@pytest.mark.parametrize("n,h", [(1, 1 / 8), (2, 1 / 4)])
def test_neighbours_reflect_across_the_face_and_refuse_missing_nodes(n, h):
    """One step along an axis from a free node lands h away, except that a
    thin node's -1 step along y is its +1 neighbour, the even reflection. A
    neighbour off the box or outside the ball raises."""
    g = build_grid(n, h)
    free, thin = g.free_ids, g.thin_ids
    for ax in range(n + 1):
        e = np.eye(n + 1)[ax] * h
        assert np.array_equal(g.nodes[g.neighbours(free, ax, 1)], g.nodes[free] + e)
        below = g.nodes[free] - e
        below[:, -1] = np.abs(below[:, -1])
        assert np.array_equal(g.nodes[g.neighbours(free, ax, -1)], below)
    assert np.array_equal(g.neighbours(thin, n, -1), g.neighbours(thin, n, 1))
    # a step +1 in x1 leaves the box from the corner x1 = 1, and the ball from
    # the node x1 = 1 - h, y = h (other thin coordinates 0)
    corner = g.face_ids[[-1]]
    rim = g.box_ids[(2 * g.M - 1,) + (g.M,) * (n - 1) + (1,)]
    assert rim >= 0
    for ids in (corner, np.array([rim])):
        with pytest.raises(ValueError, match="not a node"):
            g.neighbours(ids, 0, 1)


def test_node_count_matches_independent_enumeration():
    """Brute double loop over the lattice agrees with the builder for n = 1."""
    for h in (0.5, 0.25, 0.125):
        m = round(1.0 / h)
        count = 0
        for i in range(-m, m + 1):
            for j in range(0, m + 1):
                if i * i + j * j <= m * m:
                    count += 1
        assert build_grid(1, h).node_count == count


def test_shared_grid_arrays_are_read_only():
    g = build_grid(1, 0.25)
    with pytest.raises(ValueError, match="read-only"):
        g.nodes[0, 0] = 0.5
    assert all(not a.flags.writeable for a in vars(g).values() if isinstance(a, np.ndarray))


@pytest.mark.parametrize("n", [1, 2])
def test_face_ids_list_the_thin_nodes_in_thin_ids_order(n):
    """`extract_gamma` scans the face in `face_ids` order, ascending in x at
    n = 1, and the solver reads thin values in that order as `thin_ids`."""
    for h_inv in (2, 3, 4, 8, 13, 16) + ((32, 64) if n == 1 else ()):
        g = build_grid(n, 1.0 / h_inv)
        if n == 1:
            assert np.all(np.diff(g.nodes[g.face_ids, 0]) > 0)
        assert np.array_equal(g.face_ids[g.node_class[g.face_ids] == THIN], g.thin_ids)


def test_invalid_spacing_rejected():
    with pytest.raises(ValueError, match="does not divide"):
        build_grid(1, 0.3)


@pytest.mark.parametrize("h,cells", [
    (0.015625000001, 64), (1.0 / 64, 64), (0.015625001, None), (0.3, None), (0.0, None),
    (-0.5, None), (float("nan"), None), (float("inf"), None), (5e-324, None),
])
def test_one_spacing_rule_for_the_grid_the_spec_and_the_config(h, cells):
    """`cells_per_unit` is the one rule of h: the grid, the spec and the
    config accept the same steps and refuse the rest by it."""
    if cells is not None:
        assert cells_per_unit(h) == cells
        assert ProblemSpec(h=h).h == h
        assert parse_config(f"h = {h!r}").spec.h == h
        return
    for refuse in (cells_per_unit, lambda h: build_grid(1, h)):
        with pytest.raises(ValueError, match="^grid step h does not divide 1 exactly"):
            refuse(h)
    with pytest.raises(SpecError, match="^field 'h': grid step h does not divide 1"):
        ProblemSpec(h=h)
    if np.isfinite(h):
        with pytest.raises(ConfigError, match="^key 'h': grid step h does not divide 1"):
            parse_config(f"h = {h!r}")


def test_invalid_dimension_rejected():
    with pytest.raises(ValueError, match="must be 1 or 2"):
        build_grid(3, 0.25)


def test_interp_reproduces_linear_fields():
    g = build_grid(1, 0.125)
    vals = 2.0 * g.nodes[:, 0] - 0.5 * g.nodes[:, 1] + 1.0
    f = ScalarField(g, vals)
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 2 * np.pi, size=40)
    # Radii kept below 0.8 so every stencil cell has all corners inside
    # the ball; rim-cut cells use extrapolated ghosts and are only
    # second-order accurate.
    rad = rng.uniform(0.0, 0.8, size=40)
    pts = np.column_stack([rad * np.cos(t), np.abs(rad * np.sin(t))])
    expected = 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 1.0
    assert np.allclose(f(pts), expected, atol=1e-12)
    near_rim = np.array([[0.93, 0.05], [0.0, 0.94], [-0.66, 0.66]])
    expected_rim = 2.0 * near_rim[:, 0] - 0.5 * near_rim[:, 1] + 1.0
    assert np.allclose(f(near_rim), expected_rim, atol=1e-2)


def test_interp_even_extension():
    """A field answers a query below the face with the bits of its mirror
    image."""
    g = build_grid(1, 0.125)
    f = ScalarField(g, g.nodes[:, 0] ** 2 + g.nodes[:, 1])
    up = f([[0.3, 0.4]])
    down = f([[0.3, -0.4]])
    assert up[0] == down[0]


def test_out_of_domain_query_rejected():
    g = build_grid(1, 0.125)
    f = ScalarField(g, np.zeros(g.node_count))
    with pytest.raises(OutOfDomainError):
        f([[1.2, 0.0]])


@pytest.mark.parametrize("n", [1, 2])
def test_domain_boundary_is_the_rounded_radius_at_one_plus_tol(n):
    # points within a few ulp of |z| = 1 + _TOL: each is accepted exactly when
    # sqrt((z ** 2).sum()) <= 1 + _TOL, the rule the domain check must keep
    g = build_grid(n, 0.25)
    box = np.zeros(g.box_shape)  # defined on every cell, so only the domain check rejects
    rng = np.random.default_rng(7)
    z = rng.standard_normal((40, n + 1))
    z[:, -1] = np.abs(z[:, -1])
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    edge = 1.0 + _TOL
    radii = [edge]
    for _ in range(4):
        radii = [np.nextafter(radii[0], 0.0), *radii, np.nextafter(radii[-1], 2.0)]
    verdicts = set()
    for r in radii:
        for pt in z * r:
            inside = bool(np.sqrt((pt ** 2).sum()) <= edge)
            verdicts.add(inside)
            try:
                g.interp_box(box, pt[None, :])
                accepted = True
            except OutOfDomainError:
                accepted = False
            assert accepted == inside, (pt, r)
    assert verdicts == {True, False}


def _reference_interp(g, box, pts):
    """Multilinear interpolation indexing the box per axis, one field per call."""
    dim = g.n + 1
    f = np.empty_like(pts)
    f[:, :g.n] = pts[:, :g.n] / g.h + g.M
    f[:, -1] = np.maximum(pts[:, -1], 0.0) / g.h
    base = np.empty(pts.shape, dtype=np.int64)
    frac = np.empty_like(pts)
    for ax in range(dim):
        b = np.clip(np.floor(f[:, ax]).astype(np.int64), 0, g.box_shape[ax] - 2)
        base[:, ax] = b
        frac[:, ax] = f[:, ax] - b
    out = np.zeros(pts.shape[0])
    for corner in range(1 << dim):
        w = np.ones(pts.shape[0])
        ix = []
        for ax in range(dim):
            bit = (corner >> ax) & 1
            w = w * (frac[:, ax] if bit else (1.0 - frac[:, ax]))
            ix.append(base[:, ax] + bit)
        out += w * box[tuple(ix)]
    return out


def _ball_points(n, count, rng, rmax=0.95):
    z = rng.standard_normal((count, n + 1))
    z[:, -1] = np.abs(z[:, -1])
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (rmax * rng.uniform(0.0, 1.0, count) ** (1.0 / (n + 1)))[:, None]


@pytest.mark.parametrize("n,h", [(1, 1 / 16), (2, 1 / 8)])
def test_stacked_interp_equals_per_field_calls(n, h):
    """A stack of boxes reads every field exactly as its own call does: on
    the face, at mirrored points, and across a chunk of the gather."""
    g = build_grid(n, h)
    rng = np.random.default_rng(n)
    boxes = [ScalarField(g, rng.standard_normal(g.node_count)).ghost_box() for _ in range(3)]
    stack = np.stack(boxes)
    face = _ball_points(n, 40, rng)
    face[:, -1] = 0.0
    mirrored = _ball_points(n, 40, rng)
    mirrored[::2, -1] *= -1.0
    many = _ball_points(n, _INTERP_CHUNK + 37, rng)
    for pts in (face, mirrored, many):
        got = g.interp_box(stack, pts)
        assert got.shape == (3, pts.shape[0])
        up = pts.copy()
        up[:, -1] = np.abs(up[:, -1])
        for k, box in enumerate(boxes):
            single = g.interp_box(box, pts)
            assert (got[k] == single).all()
            assert (single == _reference_interp(g, box, up)).all()
    one = g.interp_box(stack, face[0])
    assert one.shape == (3, 1)
    assert (one == g.interp_box(stack, face[:1])).all()
    with pytest.raises(OutOfDomainError):
        g.interp_box(stack, np.full((1, n + 1), 0.9))


@pytest.mark.parametrize("n,h", [(1, 1 / 16), (2, 1 / 8)])
def test_one_plan_reads_every_field_as_its_points_do(n, h):
    """A plan shared by two fields, a stack of boxes and both field kinds
    gives the bits of each field's own read at the points, 1-D points
    included; the plan is refused where the points are."""
    g = build_grid(n, h)
    rng = np.random.default_rng(3 + n)
    u, v = (ScalarField(g, rng.standard_normal(g.node_count)) for _ in range(2))
    pts = _ball_points(n, _INTERP_CHUNK + 37, rng)
    pts[::3, -1] *= -1.0
    plan = g.interp_plan(pts)
    assert np.asarray(plan) is plan.points and plan.points.shape == pts.shape
    stack = np.stack([u.ghost_box(), v.ghost_box()])
    for w in (u, v):
        assert np.array_equal(g.interp_box(w.ghost_box(), plan), g.interp_box(w.ghost_box(), pts))
        assert np.array_equal(w(plan), w(pts))
        for got, want in zip(w.with_gradient(plan), w.with_gradient(pts)):
            assert np.array_equal(got, want)
    assert np.array_equal(g.interp_box(stack, plan), g.interp_box(stack, pts))
    closed = AnalyticField(lambda z: z[:, 0] * z[:, -1] + z[:, -1] ** 2, g)
    for got, want in zip(closed.with_gradient(plan), closed.with_gradient(pts)):
        assert np.array_equal(got, want)
    one = g.interp_plan(pts[1])
    assert np.array_equal(g.interp_box(stack, one), g.interp_box(stack, pts[1]))
    assert g.interp_box(stack, one).shape == (2, 1) and u(one).shape == (1,)
    assert np.array_equal(u.with_gradient(one)[1], u.with_gradient(pts[1:2])[1])
    assert g.interp_plan(plan) is plan
    with pytest.raises(ValueError, match="another lattice"):
        build_grid(n, h / 2).interp_plan(plan)
    # outside the closed ball: refused when the plan is made
    with pytest.raises(OutOfDomainError, match="closed unit ball"):
        g.interp_plan(np.full((1, n + 1), 0.9))
    # a corner the box does not cover: refused when the plan is applied
    edge = g.interp_plan(np.append(np.zeros(n), 1.0 - 0.5 * h)[None, :])
    assert np.isfinite(g.interp_box(u.ghost_box(), edge)).all()
    with pytest.raises(OutOfDomainError, match="grid coverage"):
        g.interp_box(g.to_box(u.values), edge)


def _reference_fill(g, box):
    """`fill_extension` pass by pass on whole boxes: each NaN cell with a
    known neighbour takes the mean over the directions (axis, +-1) of
    2 v1 - v2, or v1 where v2 is NaN."""
    V = np.where(g.inside, box, np.nan)
    for _ in range(3):
        nanmask = np.isnan(V)
        if not nanmask.any():
            break
        total = np.zeros_like(V)
        count = np.zeros(V.shape, dtype=np.int64)
        for ax in range(V.ndim):
            for d in (1, -1):
                v1 = _shift(V, ax, d)
                v2 = _shift(V, ax, 2 * d)
                est = 2.0 * v1 - v2
                est = np.where(np.isnan(est), v1, est)
                ok = ~np.isnan(est)
                total[ok] += est[ok]
                count += ok
        fill = nanmask & (count > 0)
        V = np.where(fill, np.divide(total, np.maximum(count, 1)), V)
    return V


@pytest.mark.parametrize("n,h_inv", [(1, 8), (1, 13), (1, 32), (2, 8), (2, 12)])
def test_fill_plan_is_the_pass_by_pass_fill(n, h_inv, monkeypatch):
    """The planned fill gives the reference fill's bits on the value box and
    on each gradient box of a field, on a box with NaN inside the ball and
    on one of -0.0, signs of zero included; a second fill on a mask builds
    no new plan."""
    g = HalfBallGrid(n, 1.0 / h_inv)
    rng = np.random.default_rng(h_inv)
    values = rng.standard_normal(g.node_count)
    values[::5] = -0.0
    value_box = g.fill_extension(g.to_box(values))
    boxes = [g.to_box(values)]
    for ax in range(n + 1):
        d = (_shift(value_box, ax, -1) - _shift(value_box, ax, 1)) / (2.0 * g.h)
        if ax == n:
            d[..., 0] = 0.0
        boxes.append(d)
    holes = g.to_box(values)
    holes[rng.random(g.box_shape) < 0.2] = np.nan
    boxes += [holes, g.to_box(np.full(g.node_count, -0.0))]
    for box in boxes:
        want = _reference_fill(g, box)
        assert np.array_equal(g.fill_extension(box), want, equal_nan=True)
        assert np.array_equal(np.signbit(g.fill_extension(box)), np.signbit(want))
    assert len(g._fill_plans) == n + 3
    builds = []
    plan = HalfBallGrid._fill_plan
    monkeypatch.setattr(HalfBallGrid, "_fill_plan",
                        lambda *a: builds.append(1) or plan(*a))
    again = ScalarField(g, rng.standard_normal(g.node_count))
    again.with_gradient(g.nodes[:3])
    assert np.array_equal(again.ghost_box(), _reference_fill(g, g.to_box(again.values)),
                          equal_nan=True)
    assert builds == [] and len(g._fill_plans) == n + 3


def test_half_sphere_weights_sum_to_the_measure():
    for n, measure in ((1, np.pi), (2, 2 * np.pi)):
        direc, w = half_sphere(n, 64)
        assert np.allclose(np.linalg.norm(direc, axis=1), 1.0, atol=1e-15)
        assert (direc[:, -1] > 0).all()
        assert w.sum() == pytest.approx(measure, rel=1e-12)


def test_quadrature_measures_match_closed_forms():
    """Weights integrate 1 to the half circle length, half disc area, and
    thin segment length."""
    g = build_grid(1, 1 / 16)
    q = sphere_quadrature(g, np.array([0.0, 0.0]), 0.8)
    assert q.surface_weights.sum() == pytest.approx(np.pi * 0.8, rel=1e-12)
    assert q.solid_weights.sum() == pytest.approx(np.pi * 0.64 / 2, rel=1e-12)
    assert q.thin_weights.sum() == pytest.approx(1.6, rel=1e-12)


def test_quadrature_exactness_on_smooth_integrand():
    """The surface rule integrates x^2 over the half circle exactly:
    the integral is pi r^3 / 2."""
    g = build_grid(1, 1 / 16)
    r = 0.7
    q = sphere_quadrature(g, np.array([0.0, 0.0]), r)
    val = (q.surface_weights * q.surface_points[:, 0] ** 2).sum()
    assert val == pytest.approx(np.pi * r ** 3 / 2, rel=1e-12)


def test_quadrature_guards():
    g = build_grid(1, 1 / 8)
    with pytest.raises(ValueError, match="under-resolved"):
        sphere_quadrature(g, np.array([0.0, 0.0]), 0.25)
    with pytest.raises(ValueError, match="not contained"):
        sphere_quadrature(g, np.array([0.5, 0.0]), 0.75)


@pytest.mark.parametrize("r,h", [(0.05, 1 / 80), (0.9, 1 / 80), (0.9, 1 / 160), (1.0, 1 / 16),
                                 (1.0, 1 / 128), (0.3, 1 / 256), (0.25, 1 / 8)])
def test_sample_count_is_the_least_power_of_two_with_one_sample_per_step(r, h):
    m = sample_count(r, h)
    assert m >= 64 and m & (m - 1) == 0
    assert 2 * np.pi * r / m <= h
    assert m == 64 or 2 * np.pi * r / (m // 2) > h


def test_sample_count_gives_the_two_rellich_sample_sets():
    # the integral-identity check compares these two counts at r = 0.9
    assert sample_count(0.9, 1 / 80) == 512
    assert sample_count(0.9, 1 / 160) == 1024
    assert sphere_quadrature(build_grid(1, 1 / 80), np.zeros(1), 0.9).surface_points.shape == (512, 2)


@pytest.mark.parametrize("m", list(range(1, 65)) + [128, 256, 512, 1024])
def test_gauss_legendre_rule_is_numpys_bit_for_bit(m):
    nodes, weights = _leggauss(m)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(m)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_gauss_legendre_rule_builds_no_square_matrix():
    """The 1024-point rule, which the integral-identity check asks for, peaks
    under 1 MB; NumPy's 1024 x 1024 companion matrix alone is 8 MB."""
    tracemalloc.start()
    try:
        _leggauss.__wrapped__(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_three_dimensional_grid_smoke():
    g = build_grid(2, 0.25)
    assert g.n == 2
    assert g.node_count > 0
    assert g.nodes.shape[1] == 3
    assert (g.nodes[g.face_ids][:, 2] == 0.0).all()
    rad = np.linalg.norm(g.nodes, axis=1)
    assert rad.max() <= 1.0 + 1e-12


def test_spec_grid_is_cached():
    spec = ProblemSpec(n=1, h=0.25, p=2.0, lambda_plus=1.0, lambda_minus=1.0,
                       g="zero")
    assert spec.grid() is spec.grid()


@pytest.mark.parametrize("d", [2, 3])
def test_row_dot_gives_the_bits_of_the_axis_sum(d):
    """Column by column, the squares and the products of each row sum to the
    bits of the reduction over the coordinate axis, the sign of a zero sum
    included: rows of -0.0 products, zeros, infinities and NaN among them."""
    rng = np.random.default_rng(d)
    a = rng.normal(size=(4000, d)) * 10.0 ** rng.integers(-30, 30, size=(4000, d))
    b = rng.normal(size=(4000, d))
    a[::7] = -0.0
    a[1::11, 0] = 0.0
    b[2::13] = 0.0
    a[3::17, -1] = np.inf
    b[4::19, 0] = np.nan
    with np.errstate(invalid="ignore"):  # inf * 0.0 is NaN on both sides
        pairs = ((_row_dot(a, a), (a ** 2).sum(axis=1)),
                 (_row_dot(a, b), (a * b).sum(axis=1)))
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()
