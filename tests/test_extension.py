"""Periodic-strip biharmonic extension and the Dirichlet-to-Neumann ratio."""

import numpy as np
import pytest

from bilaplab.extension import (
    FourierTrace,
    dtn_compare,
    strip_biharmonic_residual,
    strip_extension,
)


def test_fourier_trace_validation():
    with pytest.raises(ValueError, match="nonempty"):
        FourierTrace([])
    with pytest.raises(ValueError, match="finite"):
        FourierTrace([1.0, np.nan])
    with pytest.raises(ValueError, match="1-d"):
        FourierTrace([[1.0, 2.0]])


def test_fourier_trace_evaluation():
    # the extension's face row is the cosine series of the trace
    trace = FourierTrace([0.5, 1.0, 0.0, 2.0])
    assert list(trace.active_modes()) == [1, 3]
    strip = strip_extension(trace, Y=12.0)
    x = strip.x
    expected = 0.5 + np.cos(x) + 2.0 * np.cos(3 * x)
    assert np.allclose(strip.values[:, 0], expected, rtol=0.0, atol=1e-14)


def test_mode_profiles_match_clamped_decay():
    # The continuum vertical profile with f(0) = a, f'(0) = 0 and decay
    # is a (1 + k y) e^(-k y); the banded solve is second order in dy.
    strip = strip_extension(FourierTrace([0.0, 1.0, 0.5]), Y=12.0)
    y = strip.y
    for k, coef in ((1, 1.0), (2, 0.5)):
        exact = coef * (1.0 + k * y) * np.exp(-k * y)
        assert np.abs(strip.mode_profiles[k] - exact).max() < 1e-3


def test_strip_solution_is_discretely_biharmonic():
    strip = strip_extension(FourierTrace([0.0, 1.0, 0.5]), Y=12.0)
    assert strip_biharmonic_residual(strip) < 1e-12


def test_extension_is_linear_in_the_trace():
    s1 = strip_extension(FourierTrace([0.0, 1.0, 0.0]), Y=12.0)
    s2 = strip_extension(FourierTrace([0.0, 0.0, 1.0]), Y=12.0)
    combo = strip_extension(FourierTrace([0.0, 2.0, -3.0]), Y=12.0)
    assert np.abs(combo.values - (2.0 * s1.values - 3.0 * s2.values)).max() < 1e-12


def test_constant_mode_passes_through():
    strip = strip_extension(FourierTrace([2.0]), Y=12.0)
    assert strip.values.min() == strip.values.max() == 2.0


def test_dtn_ratio_matches_fractional_multiplier():
    report = dtn_compare(FourierTrace([0.0, 1.0, 1.0, 1.0]), Y=12.0)
    for k in (1, 2, 3):
        assert report.ratios[k] == pytest.approx(2.0, abs=0.1)
    assert report.spread < 0.02
    assert report.calibrated_inverse_constant == pytest.approx(2.0, abs=0.05)


def test_extension_guards():
    with pytest.raises(ValueError, match="Y >= 8"):
        strip_extension(FourierTrace([0.0, 1.0]), Y=6.0)
    high = np.zeros(65)
    high[64] = 1.0
    with pytest.raises(ValueError, match="under-resolved"):
        strip_extension(FourierTrace(high), Y=12.0)
    with pytest.raises(ValueError, match="no active modes"):
        dtn_compare(FourierTrace([1.0]), Y=12.0)
