"""Uniform Cartesian grid over the closed upper half-ball.

The computational domain is the upper half-ball together with its thin face,

    {z = (x, y) : |z| <= 1, y >= 0},   x in R^n, y in R,

in ambient dimension n + 1 (n = 1: upper half-disk).  Nodes are the lattice
points (i*h, j*h) with j >= 0 inside the closed ball, classified as

    INTERIOR  y > 0, more than h from the curved boundary
    OUTER     y > 0, within h of the curved boundary (carries Dirichlet data)
    THIN      y = 0, |x| < 1 - h
    CORNER    y = 0, |x| >= 1 - h (carries Dirichlet data)

Classification is integer-exact: a lattice point (i, j) is inside iff
i.i + j^2 <= M^2 with M = 1/h, and the h-band tests compare against (M-1)^2.

Even extension across y = 0 is realized by reflecting query points to
y >= 0 (`_mirrored`, which `interp_plan` and every AnalyticField read go
through); mirrored values are never stored twice. A gradient read at the
mirror image becomes the extension's gradient by `_even_gradient`.

A read splits into the work fixed by the lattice or the point set and the
work of each field. `interp_plan` does a point set's part once (mirroring,
the domain check, corner indices and weights) and `interp_box` applies a
plan to any box of the grid, so fields read at the same points share one
plan. `fill_extension` applies a ghost-fill plan that the grid builds once
per NaN mask of the boxes it fills; the boxes of every field on a grid have
n + 2 masks (values and one per gradient axis).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import eigvalsh_tridiagonal

INTERIOR, OUTER, THIN, CORNER = 0, 1, 2, 3

_TOL = 1e-9
# points per pass of the gather in `interp_box`, so that the (F, chunk)
# temporaries of a pass stay cache-sized
_INTERP_CHUNK = 4096


class OutOfDomainError(ValueError):
    """Raised when an evaluation point lies outside the grid coverage."""


def cells_per_unit(h: float) -> int:
    """1/h, the number of lattice cells per unit length; ValueError unless it
    is an integer M >= 1 with M h = 1 to 1e-9."""
    M = round(1.0 / h) if h > 0 and math.isfinite(1.0 / h) else 0
    if M < 1 or abs(M * h - 1.0) > _TOL:
        raise ValueError(f"grid step h does not divide 1 exactly, got {h}")
    return M


@functools.lru_cache(maxsize=64)
def _leggauss(m: int):
    """The m-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit
    those of `np.polynomial.legendre.leggauss(m)`, in O(m^2) time and O(m)
    memory.

    NumPy takes the eigenvalues of the dense m x m scaled companion matrix
    (`legcompanion`), which is tridiagonal with a zero diagonal, with
    `eigvalsh`. LAPACK's dsyevd reduces a matrix to tridiagonal form with
    dsytrd, whose reflectors are the identity on a tridiagonal matrix, and
    then calls dsterf; here dsterf gets the same diagonal and off-diagonal
    directly (Golub and Welsch, Math. Comp. 1969). NumPy's one Newton step,
    weight formula and symmetrization follow as it writes them.
    """
    c = np.array([0] * m + [1])
    scl = 1. / np.sqrt(2 * np.arange(m) + 1)
    x = eigvalsh_tridiagonal(np.zeros(m), np.arange(1, m) * scl[:m - 1] * scl[1:m],
                             lapack_driver="sterf")
    dy = legendre.legval(x, c)
    df = legendre.legval(x, legendre.legder(c))
    x -= dy / df
    fm = legendre.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def _gauss_on(a: float, b: float, m: int):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    t, w = _leggauss(m)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), half * w


def _mirrored(points) -> tuple[np.ndarray, np.ndarray]:
    """The points as an (N, d) float array, and a copy with y replaced by |y|;
    a plan's own two arrays for an `InterpPlan`."""
    if isinstance(points, InterpPlan):
        return points.points, points.mirrored
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    q = pts.copy()
    q[:, -1] = np.abs(q[:, -1])
    return pts, q


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, d) arrays, summed column by column.

    The bits of (a * b).sum(axis=1) for d <= 3, a sum that starts from 0.0
    (so a row of -0.0 products sums to 0.0), without the (N, d) temporary and
    the strided reduction.
    """
    out = a[:, 0] * b[:, 0]
    out += 0.0
    for ax in range(1, a.shape[1]):
        out += a[:, ax] * b[:, ax]
    return out


def _even_gradient(points: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """`grad`, read at the mirror images of the (N, d) points, made the gradient
    of the even extension in place: d/dy changes sign below the face."""
    grad[points[:, -1] < 0, -1] *= -1.0
    return grad


def _shift(a: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Shift `a` by k along `axis`, filling vacated entries with NaN."""
    out = np.full_like(a, np.nan)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if k > 0:
        dst[axis] = slice(k, None)
        src[axis] = slice(None, -k)
    else:
        dst[axis] = slice(None, k)
        src[axis] = slice(-k, None)
    out[tuple(dst)] = a[tuple(src)]
    return out


@dataclass(frozen=True, eq=False)
class InterpPlan:
    """A point set's share of a multilinear read on one lattice (`interp_plan`).

    `points` are the query points as an (N, d) array and `mirrored` the same
    with y replaced by |y|. Row k of `corners` (2^d, N) holds the flat box
    index of corner k of each mirrored point's cell (bit `ax` of k: the
    upper end along axis `ax`) and row k of `weights` its multilinear
    weight. `lattice` is the (n, M) of the grid it was made on.
    `np.asarray(plan)` is `points`, so a reader of point sets takes a plan
    as its points.
    """

    lattice: tuple[int, int]
    points: np.ndarray
    mirrored: np.ndarray
    corners: np.ndarray
    weights: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)


class HalfBallGrid:
    """Discretized closed upper half-ball with node classification.

    Parameters
    ----------
    n : int
        Thin-space dimension, 1 or 2.
    h : float
        Grid spacing that passes `cells_per_unit`. Solving requires
        h <= 1/2; h = 1 is accepted for enumeration-only use.
    """

    def __init__(self, n: int, h: float):
        if n not in (1, 2):
            raise ValueError(f"thin dimension n must be 1 or 2, got {n}")
        self.M = M = cells_per_unit(h)
        self.n, self.h = n, float(h)

        axes = [np.arange(-M, M + 1)] * n + [np.arange(0, M + 1)]
        lat = np.meshgrid(*axes, indexing="ij")
        r2 = sum(a * a for a in lat)
        y = lat[-1]
        x2 = r2 - y * y
        inside = r2 <= M * M

        band2 = (M - 1) * (M - 1)
        cls = np.where(
            y == 0,
            np.where(x2 >= band2, CORNER, THIN),
            np.where(r2 > band2, OUTER, INTERIOR),
        ).astype(np.uint8)

        self.box_shape = inside.shape
        # flat-index stride of each lattice axis, for `interp_box`
        self._strides = [int(np.prod(self.box_shape[ax + 1:])) for ax in range(n + 1)]
        self.inside = inside
        self.box_ids = np.full(inside.shape, -1, dtype=np.int64)
        N = int(inside.sum())
        self.box_ids[inside] = np.arange(N)
        self.node_count = N

        idx = np.argwhere(inside)  # row-major, deterministic
        self.lattice = idx
        coords = idx.astype(np.float64)
        coords[:, :n] -= M
        self.nodes = coords * h
        self.node_class = cls[inside]

        self.interior_ids = np.flatnonzero(self.node_class == INTERIOR)
        self.thin_ids = np.flatnonzero(self.node_class == THIN)
        # Free unknowns: interior + thin. Pinned: outer + corner (Dirichlet).
        self.free_ids = np.flatnonzero((self.node_class == INTERIOR) | (self.node_class == THIN))
        self.pinned_ids = np.flatnonzero((self.node_class == OUTER) | (self.node_class == CORNER))
        # All nodes on the thin face y = 0 (thin + corner), used for the
        # penalty line quadrature and trace extraction; ascending in x at
        # n = 1, as node ids are row-major with x the first axis.
        self.face_ids = np.flatnonzero(self.nodes[:, -1] == 0.0)
        # `build_grid` hands one grid to every caller with the same (n, h), so
        # a write into one of its arrays would reach them all
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        # `fill_extension`'s plans, keyed by the bytes of the NaN mask they fill
        self._fill_plans: dict[bytes, list[tuple[np.ndarray, ...]]] = {}

    def neighbours(self, ids: np.ndarray, axis: int, step: int) -> np.ndarray:
        """Ids of the nodes `step` cells from the nodes `ids` along `axis`. A
        vertical step below the face lands on its mirror image, the node of
        the even extension. ValueError where a neighbour is not a node."""
        lat = self.lattice[ids]
        lat[:, axis] += step
        if axis == self.n:
            np.abs(lat[:, axis], out=lat[:, axis])  # even reflection across the face
        off_box = ((lat < 0) | (lat >= self.box_shape)).any()
        nb = np.full(len(lat), -1) if off_box else self.box_ids[tuple(lat.T)]
        if (nb < 0).any():
            raise ValueError(f"a lattice neighbour {step} cells along axis {axis} is not a node")
        return nb

    # -- interpolation -----------------------------------------------------

    def to_box(self, values: np.ndarray) -> np.ndarray:
        """Scatter per-node values into the dense lattice box (NaN outside)."""
        box = np.full(self.box_shape, np.nan)
        box[self.inside] = values
        return box

    def fill_extension(self, box: np.ndarray) -> np.ndarray:
        """Fill off-domain lattice entries by axis-linear extrapolation.

        Cells cut by the curved boundary then have complete corner sets, so
        multilinear interpolation is defined on all of the closed half-ball.
        Extrapolated entries are second-order accurate for smooth fields.

        Entries outside the ball and NaN entries are filled in up to three
        passes. A pass fills each NaN cell with a non-NaN neighbour at
        distance 1 along some axis: the mean, over the directions (axis, +-1)
        in that order, of 2 v1 - v2 where the neighbours v1 at distance 1 and
        v2 at distance 2 are both known, and of v1 where only v1 is. Which
        cells a pass fills and from which neighbours depends only on the NaN
        mask, so the grid plans it once per mask (`_fill_plan`) and each call
        applies the plan to its values.
        """
        V = np.where(self.inside, box, np.nan)
        nan = np.isnan(V)
        key = nan.tobytes()
        plan = self._fill_plans.get(key)
        if plan is None:
            plan = self._fill_plans[key] = self._fill_plan(nan)
        # the cell after the box holds the 0.0 that a direction without
        # an estimate reads
        flat = np.append(V.ravel(), 0.0)
        for targets, v1, v2, scale, count in plan:
            total = 0.0
            for i1, i2, c in zip(v1, v2, scale):
                total = total + (c * flat[i1] - flat[i2])
            flat[targets] = total / count
        return flat[:-1].reshape(V.shape)

    def _fill_plan(self, nan: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """The passes of `fill_extension` on boxes with this NaN mask.

        Each pass is (targets, v1, v2, scale, count): the flat indices it
        fills; per direction (axis, +-1), rows of the flat indices of the
        neighbours at distance 1 and 2 and a row of scales, so that the
        direction's estimate is scale * box[v1] - box[v2]: 2 v1 - v2, or v1
        with v2 read at the zero cell after the box, or 0.0 with both read
        there; and the number of directions with an estimate. Adding 0.0
        leaves the sum's bits as they are.
        """
        probe = np.where(nan, np.nan, 0.0)
        zero = probe.size
        # per direction (axis, d), v1 of flat cell t is t - step and v2 is t - 2 step
        step = np.array([d * self._strides[ax]
                         for ax in range(probe.ndim) for d in (1, -1)])[:, None]
        passes = []
        for _ in range(3):
            near, far = [], []
            for ax in range(probe.ndim):
                for d in (1, -1):
                    near.append(~np.isnan(_shift(probe, ax, d)).ravel())
                    far.append(~np.isnan(_shift(probe, ax, 2 * d)).ravel())
            near, far = np.array(near), np.array(far)
            count = near.sum(axis=0)
            targets = np.flatnonzero(np.isnan(probe).ravel() & (count > 0))
            if targets.size == 0:
                break
            near, far = near[:, targets], near[:, targets] & far[:, targets]
            v1 = np.where(near, targets - step, zero)
            v2 = np.where(far, targets - 2 * step, zero)
            passes.append((targets, v1, v2, np.where(far, 2.0, 1.0),
                           count[targets].astype(np.float64)))
            np.put(probe, targets, 0.0)
        return passes

    def interp_plan(self, points) -> InterpPlan:
        """The point set's share of `interp_box`, done once: the points are
        mirrored to y >= 0 (`_mirrored`) and checked against the closed unit
        ball (OutOfDomainError outside), and each gets the flat indices and
        multilinear weights of its cell's corners. A plan made on this
        lattice is returned as it is; one made on another is a ValueError.
        """
        if isinstance(points, InterpPlan):
            if points.lattice != (self.n, self.M):
                raise ValueError("interpolation plan made on another lattice")
            return points
        given, pts = _mirrored(points)
        if pts.shape[-1] != self.n + 1:
            raise ValueError(f"points must have {self.n + 1} coordinates")
        if (np.sqrt(_row_dot(pts, pts)) > 1.0 + _TOL).any():
            raise OutOfDomainError("evaluation point outside the closed unit ball")

        dim = self.n + 1
        f = np.empty_like(pts)
        f[:, : self.n] = pts[:, : self.n] / self.h + self.M
        f[:, -1] = pts[:, -1] / self.h
        cell = np.zeros(pts.shape[0], dtype=np.int64)  # flat index of the base corner
        factors = []  # per axis, the weights of the lower and the upper corner
        for ax in range(dim):
            hi = self.box_shape[ax] - 2
            b = np.clip(np.floor(f[:, ax]).astype(np.int64), 0, max(hi, 0))
            cell += self._strides[ax] * b
            frac = f[:, ax] - b
            factors.append((1.0 - frac, frac))
        corners = np.empty((1 << dim, pts.shape[0]), dtype=np.int64)
        weights = np.empty((1 << dim, pts.shape[0]))
        for corner in range(1 << dim):
            bits = [(corner >> ax) & 1 for ax in range(dim)]
            corners[corner] = cell + np.dot(bits, self._strides)
            w = factors[0][bits[0]]
            for ax in range(1, dim):
                w = w * factors[ax][bits[ax]]
            weights[corner] = w
        return InterpPlan((self.n, self.M), given, pts, corners, weights)

    def interp_box(self, box: np.ndarray, points) -> np.ndarray:
        """Multilinear interpolation of a dense box field at arbitrary points.

        `points` are points or their `interp_plan`. `box` must be
        ghost-filled (see `fill_extension`) if any query point lies in a
        boundary-cut cell. The even extension is evaluated: points are
        mirrored to y >= 0 first. OutOfDomainError where a point is outside
        the closed unit ball or reads a NaN corner.

        `box` may also be a stack of boxes, shape (F, *box_shape); the result
        is then (F, N). Every field is read through the plan's corner
        indices and weights, corner by corner in a fixed order, so each
        field of a stack gets exactly the values of its own call, and a plan
        exactly the values of its points.
        """
        plan = self.interp_plan(points)
        stacked = box.ndim == self.n + 2
        flat = box.reshape(box.shape[0] if stacked else 1, -1)
        N = plan.weights.shape[1]
        out = np.zeros((flat.shape[0], N))
        for lo in range(0, N, _INTERP_CHUNK):
            s = slice(lo, lo + _INTERP_CHUNK)
            for index, w in zip(plan.corners, plan.weights):
                vals = np.take(flat, index[s], axis=1)
                vals *= w[s]
                out[:, s] += vals
        if np.isnan(out).any():
            raise OutOfDomainError("evaluation point outside grid coverage")
        return out if stacked else out[0]


@functools.lru_cache(maxsize=2)
def build_grid(n: int, h: float) -> HalfBallGrid:
    """The classified half-ball grid of (n, h). See `HalfBallGrid`.

    The grids of the two most recently asked lattices are kept, and a call
    with one of their (n, h) returns that same object, so problems on one
    lattice share its operators (`problem.operators`), its fill plans and the
    solver's Laplace factor, also across one detour to another lattice. This
    is the one place that decides which lattices stay alive: what is derived
    from a grid lives as long as the grid. A third lattice drops the least
    recent grid when it is built, and once no caller holds that grid it is
    freed with everything derived from it. Its arrays are read-only.
    """
    return HalfBallGrid(n, h)


@dataclass
class SphereQuadrature:
    """Sample points and weights over (dB_r)+, B_r+, and B_r'.

    Weights are positive and sum to the exact measures (n=1: pi*r surface,
    pi*r^2/2 solid, 2r thin). All points lie strictly inside the closed
    half-ball when |center| + r <= 1.
    """

    center: np.ndarray
    r: float
    surface_points: np.ndarray
    surface_weights: np.ndarray
    solid_points: np.ndarray
    solid_weights: np.ndarray
    thin_points: np.ndarray
    thin_weights: np.ndarray


def half_sphere(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and surface weights on the unit upper half-sphere.

    n = 1: m equi-angular midpoints. n = 2: max(8, m // 4) Gauss nodes in the
    polar cosine times m equi-angular azimuths. The weights sum to the
    half-sphere measure (pi for n = 1, 2 pi for n = 2).
    """
    if n == 1:
        theta = (np.arange(m) + 0.5) * (np.pi / m)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1), np.full(m, np.pi / m)
    mt = max(8, m // 4)
    t, wt = _gauss_on(0.0, 1.0, mt)  # t = cos(polar angle from +y)
    phi = (np.arange(m) + 0.5) * (2.0 * np.pi / m)
    sinp = np.sqrt(1.0 - t ** 2)
    direc = np.stack([
        (sinp[:, None] * np.cos(phi)[None, :]).ravel(),
        (sinp[:, None] * np.sin(phi)[None, :]).ravel(),
        np.broadcast_to(t[:, None], (mt, m)).ravel(),
    ], axis=-1)
    return direc, (wt[:, None] * (2.0 * np.pi / m) * np.ones(m)).ravel()


def sample_count(r: float, h: float) -> int:
    """Directions sampled on a sphere of radius r for a lattice of step h: the
    least power of two at least max(64, 2 pi r / h), one sample per lattice
    step along the circle of radius r. Powers of two keep the `_leggauss`
    cache small."""
    m = 64
    while m < 2.0 * np.pi * r / h:
        m *= 2
    return m


def ball_center(grid: HalfBallGrid, center, r: float) -> np.ndarray:
    """Normalized center of a sampled ball B_r(center); ValueError unless
    r >= 4h and the ball lies in the unit ball. Reads only `grid.n` and
    `grid.h`."""
    c = _as_thin_center(grid.n, center)
    if r < 4.0 * grid.h - _TOL:
        raise ValueError(f"radius r={r} under-resolved: need r >= 4h = {4 * grid.h}")
    if np.sqrt((c ** 2).sum()) + r > 1.0 + _TOL:
        raise ValueError("ball B_r(center) not contained in the unit ball")
    return c


# solid points per pass of `weak_residual` and `rellich_residual`: one pass over all
# 131072 of r = 0.9, h = 1/160 held ~14 MB, which glibc gave back to the OS only at times
SOLID_BLOCK = 8192


def sphere_quadrature(grid: HalfBallGrid, center, r: float) -> SphereQuadrature:
    """Quadrature over the half-sphere, half-ball, and thin ball of radius r.

    Surface samples are the `half_sphere` directions scaled by r, with
    m = `sample_count(r, h)`; solid samples use a Gauss radial rule against
    the polar volume factor along the same directions, so weight totals are
    exact; thin samples are Gauss points on the thin ball.

    Preconditions (see `ball_center`): B_r(center)+ inside B_1+, r >= 4h.
    Only `grid.n` and `grid.h` are read: a plain (n, h) record gives a
    lattice's rule without building the lattice.
    """
    c = ball_center(grid, center, r)
    m = sample_count(r, grid.h)
    n = grid.n
    direc, wdir = half_sphere(n, m)
    surf_pts = c + r * direc
    surf_w = np.full(m, np.pi * r / m) if n == 1 else (r ** 2) * wdir

    mr = max(4, m // 8)
    rho, wr = _gauss_on(0.0, r, mr)
    solid_pts = (c + rho[:, None, None] * direc[None, :, :]).reshape(-1, n + 1)
    solid_w = ((wr * rho ** n)[:, None] * wdir[None, :]).reshape(-1)

    if n == 1:
        xt, thin_w = _gauss_on(c[0] - r, c[0] + r, m)
        thin_pts = np.stack([xt, np.zeros(m)], axis=-1)
    else:
        ang = (np.arange(m) + 0.5) * (2.0 * np.pi / m)
        tx1 = c[0] + rho[:, None] * np.cos(ang)[None, :]
        tx2 = c[1] + rho[:, None] * np.sin(ang)[None, :]
        thin_pts = np.stack(
            [tx1.reshape(-1), tx2.reshape(-1), np.zeros(mr * m)], axis=-1
        )
        thin_w = ((wr * rho)[:, None] * (2.0 * np.pi / m) * np.ones(m)).reshape(-1)

    return SphereQuadrature(
        center=c,
        r=float(r),
        surface_points=surf_pts,
        surface_weights=surf_w,
        solid_points=solid_pts,
        solid_weights=solid_w,
        thin_points=thin_pts,
        thin_weights=thin_w,
    )


def _as_thin_center(n: int, center) -> np.ndarray:
    """Normalize a center spec (scalar x for n=1, or full point) to (n+1,)."""
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if c.size == n:
        c = np.concatenate([c, [0.0]])
    if c.size != n + 1:
        raise ValueError(f"center must have {n} or {n + 1} coordinates")
    if abs(c[-1]) > 1e-12:
        raise ValueError("center must lie on the thin face y = 0")
    c = c.copy()
    c[-1] = 0.0
    return c
