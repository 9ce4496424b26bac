"""Finite-difference laboratory for a two-phase thin-obstacle bi-Laplacian model.

The package solves, on the upper unit half-ball, the minimization of

    J[w] = int (Lap w)^2 + (2/p) int_face lambda_minus (w^-)^p + lambda_plus (w^+)^p

over fields with prescribed values on the spherical boundary and an even
reflection condition across the flat face, and provides the measurement
instruments used to study the minimizer: frequency functions and their
monotone combinations, growth-rate estimators, blow-up fitting against
homogeneous harmonic polynomials, free-boundary extraction, and a spectral
cross-check identifying the face reaction with a fractional operator.
"""

from .grid import (
    CLASS_NAMES,
    CORNER,
    INTERIOR,
    OUTER,
    THIN,
    HalfBallGrid,
    OutOfDomainError,
    SphereQuadrature,
    build_grid,
    interp,
    sphere_quadrature,
)
from .harmonics import HomogeneousHarmonicPoly, basis_size, harmonic_basis
from .problem import (
    BoundaryDatum,
    ProblemSpec,
    ScalarField,
    discrete_laplacian,
    energy,
    energy_gradient,
    energy_hessian_apply,
    thin_reaction,
    thin_reaction_derivative,
    zero_field,
)
from .solver import (
    ConvergenceError,
    ELReport,
    LineSearchError,
    LinearSolveError,
    SolveResult,
    SolverError,
    el_crosscheck,
    harmonic_extension,
    minimize,
    weak_residual,
)
from .oracle import brute_minimize, reference_integral
from .diagnostics import (
    AnalyticField,
    FieldProbe,
    RadialProfile,
    compute_profile,
    default_radii,
    estimate_mu,
    growth_fit,
    mean_value_violation,
    minimal_almgren_constant,
    minimal_monneau_constant,
    poincare_check,
    rellich_residual,
    sphere_sup,
    trace_check,
)
from .freeboundary import (
    BlowupFit,
    FreeBoundaryPoint,
    almgren_rescale,
    analyze_point,
    blowup_fit,
    classify_point,
    continuity_probe,
    extract_gamma,
    homogeneous_rescale,
    nondegeneracy_check,
    singular_dimension,
    thin_gradient,
)
from .extension import (
    DtnReport,
    FourierTrace,
    StripField,
    dtn_compare,
    spectral_frac32,
    strip_biharmonic_residual,
    strip_extension,
)

__version__ = "0.1.0"

__all__ = [
    "CLASS_NAMES", "CORNER", "INTERIOR", "OUTER", "THIN",
    "HalfBallGrid", "OutOfDomainError", "SphereQuadrature", "build_grid",
    "interp", "sphere_quadrature",
    "HomogeneousHarmonicPoly", "basis_size", "harmonic_basis",
    "BoundaryDatum", "ProblemSpec", "ScalarField", "discrete_laplacian",
    "energy", "energy_gradient", "energy_hessian_apply", "thin_reaction",
    "thin_reaction_derivative", "zero_field",
    "ConvergenceError", "ELReport", "LineSearchError", "LinearSolveError",
    "SolveResult", "SolverError", "el_crosscheck", "harmonic_extension",
    "minimize", "weak_residual",
    "brute_minimize", "reference_integral",
    "AnalyticField", "FieldProbe", "RadialProfile", "compute_profile",
    "default_radii", "estimate_mu", "growth_fit", "mean_value_violation",
    "minimal_almgren_constant", "minimal_monneau_constant", "poincare_check",
    "rellich_residual", "sphere_sup", "trace_check",
    "BlowupFit", "FreeBoundaryPoint", "almgren_rescale",
    "analyze_point", "blowup_fit", "classify_point", "continuity_probe",
    "extract_gamma", "homogeneous_rescale", "nondegeneracy_check",
    "singular_dimension", "thin_gradient",
    "DtnReport", "FourierTrace", "StripField", "dtn_compare",
    "spectral_frac32", "strip_biharmonic_residual", "strip_extension",
]
