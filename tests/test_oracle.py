"""The brute-force cross-check minimizer."""

import numpy as np
import pytest

from bilaplab import ProblemSpec, solver, verify
from bilaplab.oracle import GRAD_TOL, brute_minimize
from bilaplab.problem import discrete_laplacian


def _spec(h):
    return ProblemSpec(n=1, p=2.0, lambda_plus=1.0, lambda_minus=1.0,
                       g="harmonic:deg=1", h=h)


def test_brute_minimizer_rejects_fine_grids():
    with pytest.raises(ValueError, match="h >= 1/16"):
        brute_minimize(_spec(1.0 / 32.0))


def test_brute_minimizer_converges_on_coarse_grid():
    result = brute_minimize(_spec(0.125))
    assert result.grad_sup <= GRAD_TOL == 1e-10
    assert np.isfinite(result.energy)
    assert result.trace == [] and result.cg_iterations == 0


def test_brute_minimizer_needs_no_laplace_factor(monkeypatch):
    def refuse(grid):
        raise AssertionError("the oracle factored the Newton preconditioner")

    monkeypatch.setattr(solver, "_laplace_factor", refuse)
    result = brute_minimize(_spec(0.125))  # the sym-p2 corpus config
    assert np.isfinite(result.energy)


def test_brute_minimizer_returns_the_one_lattice_laplacian():
    result = brute_minimize(_spec(0.125))
    assert np.array_equal(result.v.values, discrete_laplacian(result.u).values)


def test_brute_minimizer_converges_on_stiffest_corpus_config():
    """asym-p2 at h = 1/16 took about 2.1M unaccelerated steps."""
    result = brute_minimize(verify.corpus_spec("asym-p2", 16))
    assert result.grad_sup <= 1e-10
    assert result.iterations <= 20_000
