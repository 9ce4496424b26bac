"""Correctness checks that the benchmark applies to the program's outputs.

Every check recomputes what it needs from the model's definition: the
Dirichlet datum formulas, the lattice and its node classes, the
five-point Laplacian with even reflection across the face, and the
discrete energy. None compares against a stored copy of an earlier output,
and none calls into `bilaplab`.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program violates a property the method must have."""


# ---------------------------------------------------------------------------
# Dirichlet data, from the family formulas


def datum(description: str, pts: np.ndarray) -> np.ndarray:
    """Evaluate a boundary-datum family string at points (x_1..x_n, y).

    Covers the families the workloads use: `harmonic:deg=1`,
    `harmonic:coeffs=c1;c2` (c1 x_1 + c2 (x_1^2 - y^2)),
    `trig:freq=a[,amp=c][,kind=cos|sin]` and `tabulated:values=...`
    (n = 1, linear in the polar angle over [0, pi]).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    x1, y = pts[:, 0], pts[:, -1]
    family, _, tail = description.partition(":")
    params = dict(item.split("=", 1) for item in tail.split(",")) if tail else {}
    if family == "harmonic" and "coeffs" in params:
        coeffs = [float(c) for c in params["coeffs"].split(";")]
        if len(coeffs) > 2:
            raise ValueError("only degrees 1 and 2 are implemented here")
        degree2 = x1 * x1 - y * y
        return coeffs[0] * x1 + (coeffs[1] * degree2 if len(coeffs) > 1 else 0.0)
    if family == "harmonic" and params == {"deg": "1"}:
        return x1.copy()
    if family == "trig":
        a = float(params["freq"])
        amp = float(params.get("amp", "1"))
        wave = np.sin if params.get("kind", "cos") == "sin" else np.cos
        return amp * wave(a * x1) * np.cosh(a * y)
    if family == "tabulated":
        vals = [float(v) for v in params["values"].split(";")]
        return np.interp(np.arctan2(np.abs(y), x1), np.linspace(0.0, math.pi, len(vals)), vals)
    raise ValueError(f"no benchmark formula for datum {description!r}")


def datum_is_odd(description: str) -> bool:
    """Whether g(-x, y) = -g(x, y), tested on sample points."""
    rng = np.random.default_rng(12345)
    pts = rng.uniform(-1.0, 1.0, size=(64, 2))
    pts[:, 1] = np.abs(pts[:, 1])
    flipped = pts.copy()
    flipped[:, 0] *= -1.0
    return bool(np.allclose(datum(description, flipped), -datum(description, pts),
                            rtol=0.0, atol=1e-14))


# ---------------------------------------------------------------------------
# the lattice, rebuilt from node coordinates


class Lattice:
    """Node classes and stencil neighbours of the n = 1 half-disc lattice.

    Built from node coordinates (x, y) alone. With M = 1/h, a node (i, j)
    (j >= 0) is free when j > 0 and i^2 + j^2 <= (M-1)^2, or when j = 0 and
    i^2 < (M-1)^2; every other node carries the datum.
    """

    def __init__(self, nodes: np.ndarray, h: float):
        nodes = np.asarray(nodes, dtype=np.float64)
        self.h = h
        self.M = M = int(round(1.0 / h))
        scaled = nodes / h
        idx = np.rint(scaled).astype(np.int64)
        if np.abs(scaled - idx).max() > 1e-6:
            raise CheckFailed("node coordinates are not lattice points")
        self.i, self.j = i, j = idx[:, 0], idx[:, 1]
        self.face = j == 0
        self.free = np.where(self.face, i * i < (M - 1) ** 2, i * i + j * j <= (M - 1) ** 2)
        self.pos = np.full((2 * M + 1, M + 1), -1, dtype=np.int64)
        self.pos[i + M, j] = np.arange(len(nodes))

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        """Five-point Laplacian at the free nodes, reflected across y = 0."""
        free = np.flatnonzero(self.free)
        i, j = self.i[free] + self.M, self.j[free]
        out = -4.0 * u[free]
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ids = self.pos[i + di, np.abs(j + dj)]
            if np.any(ids < 0):
                raise CheckFailed("a stencil neighbour of a free node is missing")
            out = out + u[ids]
        return out / self.h ** 2


def lattice_energy(lat: Lattice, u: np.ndarray, p: float, lam_plus: float,
                   lam_minus: float) -> float:
    """Discrete J: cell-weighted (Lap u)^2 plus the face penalty.

    Volume weights h^2, halved on the face, and the trapezoid rule h
    (h/2 at x = +-1) on the face.
    """
    h = lat.h
    Lu = lat.laplacian(u)
    omega = np.where(lat.face[lat.free], 0.5, 1.0) * h * h
    face = np.flatnonzero(lat.face)
    fw = np.where(np.abs(lat.i[face]) == lat.M, h / 2.0, h)
    t = u[face]
    pen = lam_minus * np.maximum(-t, 0.0) ** p + lam_plus * np.maximum(t, 0.0) ** p
    return float(omega @ (Lu * Lu)) + (2.0 / p) * float(fw @ pen)


# ---------------------------------------------------------------------------
# solves

# the step of the minimality check
MINIMALITY_STEP = 1e-6


def check_datum(lat: Lattice, nodes: np.ndarray, u: np.ndarray, g: str) -> None:
    """u equals the datum at every node that carries it."""
    pinned = ~lat.free
    want = datum(g, nodes[pinned])
    err = float(np.abs(u[pinned] - want).max())
    if err > 1e-12 * (1.0 + float(np.abs(want).max())):
        raise CheckFailed(f"u differs from the datum at pinned nodes by {err:.3e}")


def smooth_direction(lat: Lattice, nodes: np.ndarray, rng) -> np.ndarray:
    """(1 - |z|^2)^2 times a random quadratic in (x, y^2), zero at pinned nodes."""
    c = rng.standard_normal(4)
    x, y2 = nodes[:, 0], nodes[:, 1] ** 2
    poly = c[0] + c[1] * x + c[2] * y2 + c[3] * x * x
    cut = 1.0 - (nodes ** 2).sum(axis=1)
    return np.where(lat.free, cut * cut * poly, 0.0)


def check_minimizer(lat: Lattice, nodes: np.ndarray, u: np.ndarray, p: float,
                    lam_plus: float, lam_minus: float, reported_energy: float,
                    rng) -> float:
    """J(u +- eps phi) >= J(u), eps = MINIMALITY_STEP, along seeded free-node directions.

    J is convex, so for the exact minimizer J(u + t phi) - J(u) >= t grad J . phi,
    and the solver's stopping rule sup|grad J| <= 1e-8 (1 + |J|) bounds the
    right-hand side by eps * tol * |phi|_1. The slack allows exactly that
    plus rounding. Three directions are smooth, one is nodal noise.
    Returns J(u) as the benchmark computes it.
    """
    J = lattice_energy(lat, u, p, lam_plus, lam_minus)
    if abs(J - reported_energy) > 1e-10 * (1.0 + abs(J)):
        raise CheckFailed(f"reported energy {reported_energy!r} differs from J(u) = {J!r}")
    tol = 1e-8 * (1.0 + abs(J))
    eps = MINIMALITY_STEP
    noise = np.where(lat.free, rng.standard_normal(u.size), 0.0)
    directions = [smooth_direction(lat, nodes, rng) for _ in range(3)] + [noise]
    for k, phi in enumerate(directions):
        phi = phi / np.abs(phi).max()
        slack = eps * tol * float(np.abs(phi).sum()) + 1e-12 * (1.0 + abs(J))
        for sign in (1.0, -1.0):
            drop = J - lattice_energy(lat, u + sign * eps * phi, p, lam_plus, lam_minus)
            if drop > slack:
                raise CheckFailed(f"moving u by {sign * eps:+.0e} along direction {k} "
                                  f"lowers J by {drop:.3e} (slack {slack:.3e})")
    return J


def check_energy_order(records: list[tuple[tuple, float, float, float]]) -> None:
    """Componentwise larger weights give no lower minimum energy.

    `records` holds (key, lambda_plus, lambda_minus, J); only records with
    the same key (exponent, datum, lattice) are compared. Since J[w] grows
    with both weights for every w, so does its minimum; the slack is the
    solver's energy tolerance.
    """
    for i, (key, lp, lm, J) in enumerate(records):
        for key2, lp2, lm2, J2 in records[i + 1:]:
            if key != key2:
                continue
            for (a, b) in (((lp, lm, J), (lp2, lm2, J2)), ((lp2, lm2, J2), (lp, lm, J))):
                if a[0] <= b[0] and a[1] <= b[1] and a[2] > b[2] + 1e-8 * (1.0 + abs(b[2])):
                    raise CheckFailed(f"{key}: weights {a[:2]} give J = {a[2]!r} above "
                                      f"J = {b[2]!r} of the larger weights {b[:2]}")


# ---------------------------------------------------------------------------
# run artifacts


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of an artifact CSV (its first line is a comment)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def read_fields(run_dir: Path) -> dict[str, np.ndarray]:
    header, rows = read_table(run_dir / "fields.csv")
    data = np.array(rows, dtype=np.float64)
    return {name: data[:, k] for k, name in enumerate(header)}


def check_fields(run_dir: Path, h: float) -> None:
    """At the free nodes, v in fields.csv is the 5-point Laplacian of u."""
    f = read_fields(run_dir)
    nodes = np.stack([f["x"], f["y"]], axis=1)
    lat = Lattice(nodes, h)
    lap = lat.laplacian(f["u"])
    err = np.abs(f["v"][lat.free] - lap)
    tol = 1e-12 * (1.0 + float(np.abs(f["u"]).max())) / h ** 2
    if err.max() > tol:
        k = int(np.argmax(err))
        x, y = nodes[np.flatnonzero(lat.free)[k]]
        raise CheckFailed(f"v differs from the Laplacian of u by {err.max():.3e} "
                          f"at ({x!r}, {y!r})")


def face_trace(run_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    f = read_fields(run_dir)
    on_face = f["y"] == 0.0
    order = np.argsort(f["x"][on_face], kind="stable")
    return f["x"][on_face][order], f["u"][on_face][order]


def gamma_points(run_dir: Path) -> np.ndarray:
    header, rows = read_table(run_dir / "gamma.csv")
    col = header.index("x")
    return np.array([float(r[col]) for r in rows])


def check_gamma(run_dir: Path) -> None:
    """gamma.csv marks exactly the face cells where the trace changes sign.

    A cell [x_k, x_k+1] qualifies when the signs of its two trace values
    differ, a sign being 0 for |t| <= 1e-12 max(1, max|t|). Each point must
    lie in a qualifying closed cell, and each qualifying cell must hold a
    point, except a cell whose only zero is a corner x = +-1 (the free
    boundary is open in the face).
    """
    x, t = face_trace(run_dir)
    pts = gamma_points(run_dir)
    cut = 1e-12 * max(1.0, float(np.abs(t).max()))
    sign = np.where(t > cut, 1, np.where(t < -cut, -1, 0))
    cells = [k for k in range(x.size - 1) if sign[k] != sign[k + 1]]
    slack = 1e-12

    def holds(k, pt):
        return x[k] - slack <= pt <= x[k + 1] + slack

    for pt in pts:
        if not any(holds(k, pt) for k in cells):
            raise CheckFailed(f"free-boundary point x = {pt!r} lies in no sign-change cell")
    for k in cells:
        needs_point = all(sign[j] != 0 or abs(x[j]) < 1.0 - 1e-12 for j in (k, k + 1))
        if needs_point and not any(holds(k, pt) for pt in pts):
            raise CheckFailed(f"sign-change cell [{x[k]!r}, {x[k + 1]!r}] holds no point")


def check_symmetric_gamma(run_dir: Path) -> None:
    """An odd problem has a free-boundary point at x = 0 and a symmetric set."""
    pts = gamma_points(run_dir)
    if not np.any(np.abs(pts) <= 1e-12):
        raise CheckFailed(f"odd problem without a point at x = 0: {pts.tolist()}")
    if not np.allclose(np.sort(pts), np.sort(-pts), rtol=0.0, atol=1e-12):
        raise CheckFailed(f"free-boundary points are not symmetric: {pts.tolist()}")


def check_identical(dir_a: Path, dir_b: Path) -> None:
    """Two run directories hold the same files with the same bytes."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        raise CheckFailed(f"rerun wrote files {names_b}, first run {names_a}")
    for name in names_a:
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            raise CheckFailed(f"rerun changed the bytes of {name}")
