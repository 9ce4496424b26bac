"""Homogeneous harmonic polynomials, even in the vertical coordinate.

Polynomials live on R^n x R with coordinates (x, y) and are represented by
exact rational coefficients on monomials x^a * y^b. The degree-mu basis is
generated by the recurrence

    P = sum_{k even} y^k q_k(x),    q_{k+2} = -Lap_x(q_k) / ((k+1)(k+2)),

seeded with q_0 ranging over the degree-mu monomials in x (q_1 = 0 kills all
odd powers of y, so evenness is structural). Harmonicity is verified exactly
at construction. For n = 1 this yields the single element Re((x+iy)^mu).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Terms = dict  # exponent tuple (a_1..a_n, b) -> Fraction


def _derivative(terms: Terms, ax: int) -> Terms:
    """Exact d/dz_ax of a term dictionary, term by term in its order. Distinct
    monomials have distinct derivatives, so no two terms merge."""
    return {expo[:ax] + (expo[ax] - 1,) + expo[ax + 1:]: c * expo[ax]
            for expo, c in terms.items() if expo[ax]}


def _laplacian(terms: Terms, axes: int) -> Terms:
    """Exact Laplacian in the first `axes` coordinates (n + 1: all; n: thin),
    collected term by term in the order of `terms`."""
    out: Terms = {}
    for expo, c in terms.items():
        for ax in range(axes):
            for key, v in _derivative(_derivative({expo: c}, ax), ax).items():
                out[key] = out.get(key, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def _monomials(n: int, degree: int):
    """Degree-`degree` monomial exponents in the thin variables, sorted."""
    if n == 1:
        return [(degree,)]
    return [(degree - j, j) for j in range(degree + 1)]


@functools.lru_cache(maxsize=128)
def _basis_terms(n: int, mu: int):
    """Exact term dictionaries for the even-in-y harmonic basis of degree mu."""
    if n not in (1, 2):
        raise ValueError(f"thin dimension n must be 1 or 2, got {n}")
    if mu < 0:
        raise ValueError("degree must be a nonnegative integer")
    basis = []
    for seed in _monomials(n, mu):
        q = {seed + (0,): Fraction(1)}
        terms: Terms = dict(q)
        k = 0
        while q and k + 2 <= mu:
            lap = _laplacian(q, n)
            q = {}
            for expo, c in lap.items():
                key = expo[:-1] + (expo[-1] + 2,)
                q[key] = -c / ((k + 1) * (k + 2))
            # q_k carries y^k explicitly in its stored exponents
            for key, c in q.items():
                terms[key] = terms.get(key, Fraction(0)) + c
            k += 2
        if _laplacian(terms, n + 1):
            raise AssertionError("harmonic recurrence produced a non-harmonic polynomial")
        if any(expo[-1] % 2 for expo in terms):
            raise AssertionError("harmonic recurrence produced an odd power of y")
        basis.append(terms)
    return tuple(basis)


def basis_size(n: int, mu: int) -> int:
    return len(_basis_terms(n, mu))


def _eval_terms(terms: Terms, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[0])
    for expo, c in terms.items():
        mono = np.ones(pts.shape[0])
        for ax, e in enumerate(expo):
            if e:
                mono = mono * pts[:, ax] ** e
        out += float(c) * mono
    return out


@dataclass
class HomogeneousHarmonicPoly:
    """A harmonic polynomial, homogeneous of degree mu and even in y.

    `coeffs[i]` multiplies the i-th element of the fixed degree-mu basis
    (n = 1: the span of Re((x+iy)^mu); n = 2: seeds x1^(mu-j) x2^j).
    """

    n: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if self.coeffs.size != basis_size(self.n, self.degree):
            raise ValueError("coefficient count does not match basis size")

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.zeros(pts.shape[0])
        for c, terms in zip(self.coeffs, _basis_terms(self.n, self.degree)):
            if c != 0.0:
                out += c * _eval_terms(terms, pts)
        return out

    def terms(self) -> Terms:
        """Combined (float-coefficient) term dictionary of the polynomial."""
        out: dict = {}
        for c, terms in zip(self.coeffs, _basis_terms(self.n, self.degree)):
            for expo, q in terms.items():
                out[expo] = out.get(expo, 0.0) + c * float(q)
        return out

    def thin_gradient_matrix(self) -> np.ndarray:
        """Rows i: monomial coefficients of d/dx_i of the thin trace P(x, 0).

        The kernel of this matrix (as a map zeta -> zeta . grad_x P(., 0))
        is the space of thin directions annihilating the trace gradient.
        """
        trace = {expo: c for expo, c in self.terms().items() if expo[-1] == 0}
        rows = [_derivative(trace, ax) for ax in range(self.n)]
        col = {m: j for j, m in enumerate(sorted({m for row in rows for m in row}))}
        A = np.zeros((self.n, max(len(col), 1)))
        for ax, row in enumerate(rows):
            for m, c in row.items():
                A[ax, col[m]] = c
        return A


def harmonic_basis(n: int, mu: int):
    """The fixed basis as a list of HomogeneousHarmonicPoly with unit coeffs."""
    size = basis_size(n, mu)
    out = []
    for i in range(size):
        c = np.zeros(size)
        c[i] = 1.0
        out.append(HomogeneousHarmonicPoly(n, mu, c))
    return out
