"""Finite-difference laboratory for a two-phase thin-obstacle bi-Laplacian model.

The package solves, on the upper unit half-ball, the minimization of

    J[w] = int (Lap w)^2 + (2/p) int_face lambda_minus (w^-)^p + lambda_plus (w^+)^p

over fields with prescribed values on the spherical boundary and an even
reflection condition across the flat face, and provides the measurement
instruments used to study the minimizer: frequency functions and their
monotone combinations, growth-rate estimators, blow-up fitting against
homogeneous harmonic polynomials, free-boundary extraction, and a spectral
cross-check identifying the face reaction with a fractional operator.

The top level re-exports only the names the README and the demos use; every
other name is imported from its own module (`bilaplab.diagnostics`,
`bilaplab.freeboundary`, `bilaplab.extension`, `bilaplab.oracle`, ...).
"""

from .grid import build_grid
from .problem import AnalyticField, ProblemSpec, ScalarField
from .solver import harmonic_extension, minimize

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec", "ScalarField", "minimize", "harmonic_extension",
    "build_grid", "AnalyticField",
]
