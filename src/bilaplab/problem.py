"""Problem data and the discrete energy for the two-phase thin-obstacle model.

The continuous functional over the upper half-ball is

    J[w] = int_{B1+} (Lap w)^2
         + (2/p) int_{B1'} lambda_minus (w^-)^p + lambda_plus (w^+)^p,

minimized over fields matching the Dirichlet datum g on the spherical part
of the boundary, with the natural (even reflection) condition on the flat
face. This module discretizes J on the lattice half-ball: the Laplacian is
the standard (2n+3)-point star with the ghost row below the face eliminated
by even reflection, the volume term uses cell weights (half cells on the
face), and the face penalty uses trapezoid weights for n = 1 and full cell
weights for n = 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .grid import THIN, HalfBallGrid, _even_gradient, _mirrored, _shift, build_grid
from .harmonics import HomogeneousHarmonicPoly, basis_size


# ---------------------------------------------------------------------------
# boundary data


def _finite(raw: str) -> float:
    """A boundary datum parameter as a float; ValueError unless it is finite."""
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"boundary datum parameters must be finite, got {raw!r}")
    return val


class BoundaryDatum:
    """Dirichlet datum on the spherical boundary, from a small family registry.

    Families (all extend evenly across y = 0 by construction):
      zero                          g = 0
      harmonic:deg=K[,coef=c]       c * (degree-K even harmonic polynomial,
                                    first basis element; n=1 gives Re((x+iy)^K))
      harmonic:coeffs=c1;c2;...     sum_k c_k * (first basis element of degree k),
                                    k = 1, 2, ...
      trig:freq=a[,amp=c][,kind=cos|sin]   c*cos(a x1)*cosh(a y) or the sin variant
      tabulated:values=v0;v1;...;vK  n=1 only: linear interpolation in the polar
                                    angle over [0, pi], sample i at i*pi/K
    """

    def __init__(self, description: str, n: int = 1):
        self.description = description.strip()
        self.n = n
        head, _, tail = self.description.partition(":")
        self.family = head.strip()
        params = {}
        if tail:
            for item in tail.split(","):
                key, _, val = item.partition("=")
                if not _:
                    raise ValueError(f"malformed boundary datum parameter {item!r}")
                params[key.strip()] = val.strip()
        self._build(params)

    def _required(self, params, key: str) -> str:
        """params.pop(key); ValueError naming the parameter when it is missing."""
        if key not in params:
            raise ValueError(f"boundary datum family {self.family!r} needs the parameter {key!r}")
        return params.pop(key)

    def _build(self, params):
        fam = self.family
        if fam == "zero":
            if params:
                raise ValueError("family 'zero' takes no parameters")
            self._fn = lambda pts: np.zeros(pts.shape[0])
        elif fam == "harmonic":
            if "coeffs" in params:
                coeffs = [_finite(v) for v in params.pop("coeffs").split(";")]
                if params:
                    raise ValueError(f"unknown harmonic parameters {sorted(params)}")
                polys = []
                for k, c in enumerate(coeffs, start=1):
                    vec = np.zeros(basis_size(self.n, k))
                    vec[0] = c
                    polys.append(HomogeneousHarmonicPoly(self.n, k, vec))
                self._fn = lambda pts: sum(p(pts) for p in polys)
            else:
                deg = int(self._required(params, "deg"))
                coef = _finite(params.pop("coef", "1"))
                if params:
                    raise ValueError(f"unknown harmonic parameters {sorted(params)}")
                vec = np.zeros(basis_size(self.n, deg))
                vec[0] = coef
                poly = HomogeneousHarmonicPoly(self.n, deg, vec)
                self._fn = poly
        elif fam == "trig":
            freq = _finite(self._required(params, "freq"))
            amp = _finite(params.pop("amp", "1"))
            kind = params.pop("kind", "cos")
            if params:
                raise ValueError(f"unknown trig parameters {sorted(params)}")
            if kind == "cos":
                self._fn = lambda pts: amp * np.cos(freq * pts[:, 0]) * np.cosh(freq * pts[:, -1])
            elif kind == "sin":
                self._fn = lambda pts: amp * np.sin(freq * pts[:, 0]) * np.cosh(freq * pts[:, -1])
            else:
                raise ValueError(f"trig kind must be cos or sin, got {kind!r}")
        elif fam == "tabulated":
            if self.n != 1:
                raise ValueError("tabulated boundary data is only supported for n = 1")
            vals = np.array([_finite(v) for v in self._required(params, "values").split(";")])
            if params:
                raise ValueError(f"unknown tabulated parameters {sorted(params)}")
            if vals.size < 2:
                raise ValueError("tabulated datum needs at least two samples")
            thetas = np.linspace(0.0, math.pi, vals.size)

            def fn(pts):
                ang = np.arctan2(np.abs(pts[:, -1]), pts[:, 0])
                return np.interp(ang, thetas, vals)

            self._fn = fn
        else:
            raise ValueError(f"unknown boundary datum family {fam!r}")

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return self._fn(pts)

    def __repr__(self):
        return f"BoundaryDatum({self.description!r}, n={self.n})"


# ---------------------------------------------------------------------------
# problem record


@dataclass
class ProblemSpec:
    """Everything that pins down one discrete minimization problem.

    p is the penalty exponent (p > 1), lambda_plus / lambda_minus the phase
    weights (both > 0), g the Dirichlet datum on the spherical boundary as a
    `BoundaryDatum` family string (held as its BoundaryDatum after init),
    h the lattice spacing (1/h a positive integer). tol_grad = None selects
    the default stopping rule  sup|grad J| <= 1e-8 * (1 + |J|).
    """

    n: int = 1
    p: float = 2.0
    lambda_plus: float = 1.0
    lambda_minus: float = 1.0
    g: str = "zero"
    h: float = 1.0 / 16
    tol_grad: float | None = None
    max_iter: int = 200
    _grid: HalfBallGrid | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"thin dimension n must be 1 or 2, got {self.n}")
        if not self.p > 1:
            raise ValueError(f"penalty exponent must satisfy p > 1, got {self.p}")
        if self.lambda_plus < 0 or self.lambda_minus < 0:
            # the two-phase model has positive weights; 0 is accepted and
            # turns that phase's penalty off
            raise ValueError("phase weights lambda_plus, lambda_minus must be nonnegative")
        # a BoundaryDatum stands for its family string, so that
        # dataclasses.replace of a spec builds the datum anew for its n
        g = self.g.description if isinstance(self.g, BoundaryDatum) else self.g
        if not isinstance(g, str):
            raise TypeError(f"boundary datum g must be a family string, got {type(g).__name__}")
        self.g = BoundaryDatum(g, n=self.n)

    def grid(self) -> HalfBallGrid:
        if self._grid is None:
            self._grid = build_grid(self.n, self.h)
        return self._grid


# ---------------------------------------------------------------------------
# fields


@dataclass
class ScalarField:
    """Node values on a half-ball grid, read through the even extension.

    A read at (x, y) answers at (x, |y|), so the vertical derivative
    vanishes on the face by symmetry rather than by approximation. Values
    and gradients are multilinear interpolants of the ghost-filled value
    box and of its central-difference gradient boxes. The value box is
    built on the first read; the first gradient read stacks it with the
    n + 1 gradient boxes, and `with_gradient` reads that stack in one
    `interp_box` call. Both are kept.
    """

    grid: HalfBallGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.node_count,):
            raise ValueError("field values must be one float per grid node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        self._box = None
        self._stack = None

    def ghost_box(self) -> np.ndarray:
        """Dense box of values with NaN outside, extrapolated one cell out."""
        if self._box is None:
            box = self.grid.to_box(self.values)
            self._box = self.grid.fill_extension(box)
        return self._box

    def __call__(self, points):
        return self.grid.interp_box(self.ghost_box(), points)

    def with_gradient(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Values and gradient at the points, the gradient of shape (N, n+1)
        with d/dy of the even extension below the face. The stack holds
        `ghost_box` and one ghost-filled box per axis of its central
        differences; the vertical one is 0 on the face, where the even
        extension is flat."""
        g = self.grid
        if self._stack is None:
            box = self.ghost_box()
            boxes = [box]
            for ax in range(g.n + 1):
                d = (_shift(box, ax, -1) - _shift(box, ax, 1)) / (2.0 * g.h)
                if ax == g.n:
                    d[..., 0] = 0.0
                boxes.append(g.fill_extension(d))
            self._stack = np.stack(boxes)
            self._box = self._stack[0]
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        vals = g.interp_box(self._stack, pts)
        return vals[0], _even_gradient(pts, vals[1:].T)

    def gradient(self, points) -> np.ndarray:
        """The gradient half of `with_gradient`."""
        return self.with_gradient(points)[1]


class AnalyticField:
    """A field given by functions on points, read through the even extension.

    `value` maps (N, d) points with y >= 0 to N values; `gradient` (to an
    (N, d) array) and `laplacian` are optional closed forms that replace
    finite differences wherever given, which removes the finite-difference
    floor from identity checks. Without `gradient` the gradient is the
    central difference of step 1e-5 on the even extension. `grid` only
    sizes the quadrature of the instruments that read the field
    (`sample_count(r, grid.h)`); the field is never interpolated on it.
    """

    def __init__(self, value, grid: HalfBallGrid, gradient=None, laplacian=None):
        self.grid = grid
        self._value = value
        self._gradient = gradient
        self._laplacian = laplacian

    def __call__(self, points) -> np.ndarray:
        return np.asarray(self._value(_mirrored(points)[1]), dtype=np.float64)

    def gradient(self, points) -> np.ndarray:
        pts, q = _mirrored(points)
        if self._gradient is not None:
            return _even_gradient(pts, np.asarray(self._gradient(q), dtype=np.float64))
        d = 1e-5
        out = np.empty_like(pts)
        for ax in range(pts.shape[1]):
            e = np.zeros(pts.shape[1])
            e[ax] = d
            out[:, ax] = (self(pts + e) - self(pts - e)) / (2.0 * d)
        return out

    def with_gradient(self, points) -> tuple[np.ndarray, np.ndarray]:
        return self(points), self.gradient(points)

    def laplacian(self, points) -> np.ndarray:
        """The closed-form Laplacian; TypeError when none was given."""
        if self._laplacian is None:
            raise TypeError("a Laplacian needs an AnalyticField with a laplacian")
        return np.asarray(self._laplacian(_mirrored(points)[1]), dtype=np.float64)


# ---------------------------------------------------------------------------
# reaction terms on the thin face


def thin_reaction(t, spec: ProblemSpec):
    """F(t) = lambda_minus (t^-)^(p-1) - lambda_plus (t^+)^(p-1).

    The sign convention makes F(t) and t opposite in sign, so the natural
    boundary condition pushes the trace toward zero from both phases.
    """
    t = np.asarray(t, dtype=np.float64)
    pos = np.maximum(t, 0.0)
    neg = np.maximum(-t, 0.0)
    e = spec.p - 1.0
    return spec.lambda_minus * neg ** e - spec.lambda_plus * pos ** e


# ---------------------------------------------------------------------------
# discrete operators, cached per grid


def operators(grid: HalfBallGrid) -> SimpleNamespace:
    """Assemble (once per grid) the pieces of the discrete energy.

    L      core Laplacian, rows = free nodes in free_ids order, columns = all
           nodes; the ghost row below the face is eliminated by even
           reflection, which doubles the upward coupling at face nodes.
    omega  volume weights per free node: h^(n+1), halved on the face.
    face_w face quadrature weights indexed like face_ids (trapezoid for n=1).
    K      L^T diag(omega) L, the quadratic-part matrix on all nodes.
    Kff    K restricted to the free nodes, rows and columns in free_ids order.
    thin_slots  positions in Kff.data of the thin rows' diagonal entries, in
           thin_ids order: where `hessian` adds the face curvature.
    free_ids, thin_ids  the grid's, from which those two are derived.
    """
    ops = getattr(grid, "_ops", None)
    if ops is not None:
        return ops
    dim = grid.n + 1
    h = grid.h
    free = grid.free_ids
    E = free.size
    lat = grid.lattice[free]
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    base = np.arange(E)
    add(base, grid.box_ids[tuple(lat.T)], np.full(E, -2.0 * dim))
    for ax in range(dim):
        for d in (1, -1):
            nb = lat.copy()
            nb[:, ax] += d
            if ax == dim - 1:
                nb[nb[:, ax] < 0, ax] = 1  # even reflection across the face
            cid = grid.box_ids[tuple(nb.T)]
            if np.any(cid < 0):
                raise AssertionError("free-node stencil neighbor missing")
            add(base, cid, np.ones(E))
    L = sp.coo_matrix(
        (np.concatenate(vals) / h ** 2, (np.concatenate(rows), np.concatenate(cols))),
        shape=(E, grid.node_count),
    ).tocsr()

    omega = np.full(E, h ** dim)
    omega[grid.node_class[free] == THIN] *= 0.5

    if grid.n == 1:
        face_w = np.full(grid.face_ids.size, h)
        face_w[[0, -1]] = h / 2.0
    else:
        face_w = np.full(grid.face_ids.size, h ** 2)
    face_w_by_node = np.zeros(grid.node_count)
    face_w_by_node[grid.face_ids] = face_w

    K = (L.multiply(omega[:, None])).T @ L
    K = K.tocsr()

    ops = _Operators(L=L, omega=omega, face_w=face_w, face_w_by_node=face_w_by_node, K=K,
                     free_ids=free, thin_ids=grid.thin_ids)
    grid._ops = ops
    return ops


class _Operators(SimpleNamespace):
    """The record `operators` returns.

    Kff and thin_slots are derived from K when first read, which `hessian`
    does; a Newton solve calls it after it has factored L_ff. Built before
    that factor, they raised the peak RSS of a run of n = 1, h = 1/64
    solves by 1.5 to 2.4 MB (glibc on x86_64).
    """

    @functools.cached_property
    def Kff(self):
        return self.K[self.free_ids][:, self.free_ids].tocsr()

    @functools.cached_property
    def thin_slots(self):
        # every row of Kff stores its positive diagonal
        Kff = self.Kff
        rows = np.repeat(np.arange(Kff.shape[0]), np.diff(Kff.indptr))
        return np.flatnonzero(rows == Kff.indices)[np.searchsorted(self.free_ids, self.thin_ids)]


def discrete_laplacian(w: ScalarField) -> ScalarField:
    """Lattice Laplacian of a field, as a field.

    The reflected star stencil of `operators(grid).L` at free nodes and 0 in
    the pinned band, where the Dirichlet datum sits and the continuum v
    vanishes on the sphere. This is the one definition of v = Lap u: the
    Newton minimizer and the brute-force oracle both return it.
    """
    grid = w.grid
    out = np.zeros(grid.node_count)
    out[grid.free_ids] = operators(grid).L @ w.values
    return ScalarField(grid, out)


def face_phase(grid: HalfBallGrid, w: np.ndarray) -> np.ndarray:
    """Phase -1, 0 or +1 of w at each face node, in `face_ids` order.

    Phase 0 is |w| <= eps h^-4 max(1, sup|w| on the face), eps the unit
    roundoff: the rounding floor of a solve, as the lattice bi-Laplacian has
    condition number O(h^-4). A trace value that is 0 in exact arithmetic
    comes out near 1e-12 at h = 1/32 and 1e-10 at h = 1/128.
    """
    t = w[grid.face_ids]
    floor = np.finfo(float).eps / grid.h ** 4 * max(1.0, float(np.abs(t).max()))
    return np.where(t > floor, 1, np.where(t < -floor, -1, 0))


# ---------------------------------------------------------------------------
# energy, gradient, Hessian


def energy_array(grid: HalfBallGrid, w: np.ndarray, spec: ProblemSpec) -> float:
    """Discrete J[w]: volume-weighted squared Laplacian plus face penalty."""
    ops = operators(grid)
    Lw = ops.L @ w
    quad = float(ops.omega @ (Lw * Lw))
    tr = w[grid.face_ids]
    pos = np.maximum(tr, 0.0)
    neg = np.maximum(-tr, 0.0)
    pen = (2.0 / spec.p) * float(
        ops.face_w @ (spec.lambda_minus * neg ** spec.p + spec.lambda_plus * pos ** spec.p)
    )
    return quad + pen


def gradient_array(grid: HalfBallGrid, w: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Gradient of the discrete energy; zero at pinned (Dirichlet) nodes.

    d/dw_i of the face penalty is -2 face_w_i F(w_i) by the sign convention
    of thin_reaction, so the stationarity system couples the bi-Laplacian
    rows with the reaction on the face.
    """
    ops = operators(grid)
    g = 2.0 * (ops.K @ w)
    thin = grid.thin_ids
    g[thin] -= 2.0 * ops.face_w_by_node[thin] * thin_reaction(w[thin], spec)
    g[grid.pinned_ids] = 0.0
    return g


def face_hessian_diagonal(grid: HalfBallGrid, w: np.ndarray, spec: ProblemSpec,
                          grad_sup: float) -> np.ndarray:
    """2 face_w |F'(w)| at the thin nodes: the face part of `hessian`.

    |F'(t)| = (p-1) lambda |t|^(p-2), lambda that of t's phase. At p = 2
    the kink at t = 0 takes 0, the minimal-norm element of the generalized
    derivative interval. For 1 < p < 2, F' blows up at the sign change, so
    |t| becomes max(|t|, delta), delta = max(1e-3 grad_sup, 1e-14) with
    grad_sup = sup|grad J(w)|, and t = 0 takes the larger weight: the Newton
    model's curvature, not F'. For p >= 2 grad_sup is not read.
    """
    t = w[grid.thin_ids]
    if spec.p < 2.0:
        mag = np.maximum(np.abs(t), max(1e-3 * grad_sup, 1e-14))
        at_zero = max(spec.lambda_plus, spec.lambda_minus)
    else:
        mag, at_zero = np.abs(t), 0.0
    lam = np.where(t > 0, spec.lambda_plus, np.where(t < 0, spec.lambda_minus, at_zero))
    curvature = (spec.p - 1.0) * (lam * mag ** (spec.p - 2.0))
    return 2.0 * operators(grid).face_w_by_node[grid.thin_ids] * curvature


def hessian(grid: HalfBallGrid, w: np.ndarray, spec: ProblemSpec,
            grad_sup: float) -> sp.csr_matrix:
    """The generalized Hessian of the discrete energy at w, on the free block.

    2 Kff plus `face_hessian_diagonal` on the thin rows' diagonal
    (`operators(grid).thin_slots`), rows and columns in free_ids order:
    symmetric positive semidefinite. Newton solves with it, and the oracle
    sizes its step by its norm.
    """
    ops = operators(grid)
    H = 2.0 * ops.Kff
    H.data[ops.thin_slots] += face_hessian_diagonal(grid, w, spec, grad_sup)
    return H


def dirichlet_values(spec: ProblemSpec) -> np.ndarray:
    """Datum values at the pinned (Dirichlet-band) nodes.

    Boundary datum families define functions on the closed half-ball whose
    restriction to the circle is the datum (harmonic polynomials and
    trigonometric data are plane formulas; tabulated data reads the node's
    polar angle, which is its radial projection). Evaluating them at the
    node positions keeps analytic pairs exact when the datum extends the
    solution, and is O(h)-consistent in general, like any realization of
    circle data on an interior node band.
    """
    grid = spec.grid()
    return np.asarray(spec.g(grid.nodes[grid.pinned_ids]), dtype=np.float64)
