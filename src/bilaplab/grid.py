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
y >= 0 (`_mirrored`, which `interp_box` and every AnalyticField read go
through); mirrored values are never stored twice. A gradient read at the
mirror image becomes the extension's gradient by `_even_gradient`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

INTERIOR, OUTER, THIN, CORNER = 0, 1, 2, 3

_TOL = 1e-9
# points per pass of the gather in `interp_box`, so that the (F, chunk)
# temporaries of a pass stay cache-sized
_INTERP_CHUNK = 4096


class OutOfDomainError(ValueError):
    """Raised when an evaluation point lies outside the grid coverage."""


@functools.lru_cache(maxsize=64)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


def _gauss_on(a: float, b: float, m: int):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    t, w = _leggauss(m)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), half * w


def _mirrored(points) -> tuple[np.ndarray, np.ndarray]:
    """The points as an (N, d) float array, and a copy with y replaced by |y|."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    q = pts.copy()
    q[:, -1] = np.abs(q[:, -1])
    return pts, q


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


class HalfBallGrid:
    """Discretized closed upper half-ball with node classification.

    Parameters
    ----------
    n : int
        Thin-space dimension, 1 or 2.
    h : float
        Grid spacing; 1/h must be a positive integer. Solving requires
        h <= 1/2; h = 1 is accepted for enumeration-only use.
    """

    def __init__(self, n: int, h: float):
        if n not in (1, 2):
            raise ValueError(f"thin dimension n must be 1 or 2, got {n}")
        M = int(round(1.0 / h))
        if M < 1 or abs(M * h - 1.0) > 1e-9:
            raise ValueError(f"spacing h={h} does not divide 1 into an integer number of cells")
        self.n = n
        self.h = float(h)
        self.M = M

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
        self.outer_ids = np.flatnonzero(self.node_class == OUTER)
        self.thin_ids = np.flatnonzero(self.node_class == THIN)
        self.corner_ids = np.flatnonzero(self.node_class == CORNER)
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
        """
        V = np.where(self.inside, box, np.nan)
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
            have = count > 0
            fill = nanmask & have
            V = np.where(fill, np.divide(total, np.maximum(count, 1)), V)
        return V

    def interp_box(self, box: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of a dense box field at arbitrary points.

        `box` must be ghost-filled (see `fill_extension`) if any query point
        lies in a boundary-cut cell. The even extension is evaluated: points
        are mirrored to y >= 0 first (`_mirrored`).

        `box` may also be a stack of boxes, shape (F, *box_shape); the result
        is then (F, N). Cell indices and corner weights are computed once per
        point set and every field is read through one flat index, with the
        corner order and weight products of the single-box call, so each
        field gets exactly the values of its own call.
        """
        scalar_in = np.ndim(points) == 1
        pts = _mirrored(points)[1]
        if pts.shape[-1] != self.n + 1:
            raise ValueError(f"points must have {self.n + 1} coordinates")
        # squared radius column by column: the same bits as (pts ** 2).sum(-1)
        # for d <= 3, without the (N, d) temporary and strided reduction
        sq = pts[:, 0] * pts[:, 0]
        for ax in range(1, self.n + 1):
            sq += pts[:, ax] * pts[:, ax]
        if (np.sqrt(sq) > 1.0 + _TOL).any():
            raise OutOfDomainError("evaluation point outside the closed unit ball")

        stacked = box.ndim == self.n + 2
        flat = box.reshape(box.shape[0] if stacked else 1, -1)
        dim = self.n + 1
        f = np.empty_like(pts)
        f[:, : self.n] = pts[:, : self.n] / self.h + self.M
        f[:, -1] = pts[:, -1] / self.h
        strides = self._strides
        cell = np.zeros(pts.shape[0], dtype=np.int64)  # flat index of the base corner
        frac = np.empty((dim, pts.shape[0]))
        for ax in range(dim):
            hi = self.box_shape[ax] - 2
            b = np.clip(np.floor(f[:, ax]).astype(np.int64), 0, max(hi, 0))
            cell += strides[ax] * b
            frac[ax] = f[:, ax] - b

        out = np.zeros((flat.shape[0], pts.shape[0]))
        for lo in range(0, pts.shape[0], _INTERP_CHUNK):
            s = slice(lo, lo + _INTERP_CHUNK)
            factors = [(1.0 - frac[ax, s], frac[ax, s]) for ax in range(dim)]
            for corner in range(1 << dim):
                bits = [(corner >> ax) & 1 for ax in range(dim)]
                w = factors[0][bits[0]]
                for ax in range(1, dim):
                    w = w * factors[ax][bits[ax]]
                vals = np.take(flat, cell[s] + np.dot(bits, strides), axis=1)
                vals *= w
                out[:, s] += vals
        if np.isnan(out).any():
            raise OutOfDomainError("evaluation point outside grid coverage")
        if scalar_in:
            out = out[:, 0]
        return out if stacked else out[0]


@functools.lru_cache(maxsize=1)
def build_grid(n: int, h: float) -> HalfBallGrid:
    """The classified half-ball grid of (n, h). See `HalfBallGrid`.

    The last grid built is kept, and a call with the same (n, h) returns that
    same object, so consecutive problems on one lattice share its operators
    (`problem.operators`) and the solver's Laplace factor. Its arrays are
    read-only.
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
    r >= 4h and the ball lies in the unit ball."""
    c = _as_thin_center(grid.n, center)
    if r < 4.0 * grid.h - _TOL:
        raise ValueError(f"radius r={r} under-resolved: need r >= 4h = {4 * grid.h}")
    if np.sqrt((c ** 2).sum()) + r > 1.0 + _TOL:
        raise ValueError("ball B_r(center) not contained in the unit ball")
    return c


def sphere_quadrature(grid: HalfBallGrid, center, r: float) -> SphereQuadrature:
    """Quadrature over the half-sphere, half-ball, and thin ball of radius r.

    Surface samples are the `half_sphere` directions scaled by r, with
    m = `sample_count(r, h)`; solid samples use a Gauss radial rule against
    the polar volume factor along the same directions, so weight totals are
    exact; thin samples are Gauss points on the thin ball.

    Preconditions (see `ball_center`): B_r(center)+ inside B_1+, r >= 4h.
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
