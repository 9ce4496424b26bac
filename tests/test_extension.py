"""Periodic-strip biharmonic extension and the Dirichlet-to-Neumann ratio."""

import numpy as np
import pytest

from bilaplab.cli import main
from bilaplab.extension import (
    DtnReport,
    FourierTrace,
    _mode_heights,
    _mode_profile,
    dtn_compare,
    strip_biharmonic_residual,
    strip_extension,
)

# traces whose DtN ratios are compared with the two-dimensional route
DTN_TRACES = [
    [0.0, 1.0, 1.0, 1.0],
    [0.5, 1.0, 0.0, 2.0],
    [0.0, 2.0, -3.0],
    [0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0],
    list(np.random.default_rng(5).standard_normal(33)),
]


def _strip_dtn_reference(trace, Y):
    """The DtN ratios by way of two-dimensional fields: per active mode k, on
    the strip's x samples and the mode's heights, u[i, j] = f_k(y_j) cos(k x_i)
    plus the constant mode, then the five-point Laplacian (periodic in x,
    with the x difference divided by dx^2, and the even reflection ghost on
    the face row), the one-sided d/dy on the face and the projection onto
    cos(k x)."""
    x = strip_extension(trace, Y=Y).x
    dx = x[1] - x[0]
    ratios = {}
    for k in trace.active_modes():
        y = _mode_heights(int(k), Y)
        d = y[1] - y[0]
        f = _mode_profile(int(k), float(trace.coeffs[k]), y)
        vals = trace.coeffs[0] + np.cos(k * x)[:, None] * f[None, :]
        lap = (np.roll(vals, 1, axis=0) + np.roll(vals, -1, axis=0) - 2 * vals) / dx ** 2
        lap[:, 1:-1] += (vals[:, 2:] + vals[:, :-2] - 2 * vals[:, 1:-1]) / d ** 2
        lap[:, 0] += (2 * vals[:, 1] - 2 * vals[:, 0]) / d ** 2
        dlap = (-3.0 * lap[:, 0] + 4.0 * lap[:, 1] - lap[:, 2]) / (2.0 * d)
        ratios[int(k)] = (2.0 / x.size * float(dlap @ np.cos(k * x))
                          / (float(k) ** 3 * float(trace.coeffs[k])))
    return ratios


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
    assert sorted(strip.mode_profiles) == [0, 1, 3]
    for k, (_, f) in strip.mode_profiles.items():
        assert f[0] == trace.coeffs[k]
    x = strip.x
    face = sum(np.cos(k * x) * f[0] for k, (_, f) in strip.mode_profiles.items())
    expected = 0.5 + np.cos(x) + 2.0 * np.cos(3 * x)
    assert np.allclose(face, expected, rtol=0.0, atol=1e-14)


def test_mode_profiles_match_clamped_decay():
    # The continuum vertical profile with f(0) = a, f'(0) = 0 and decay
    # is a (1 + k y) e^(-k y); the banded solve is second order in dy.
    strip = strip_extension(FourierTrace([0.0, 1.0, 0.5]), Y=12.0)
    for k, coef in ((1, 1.0), (2, 0.5)):
        y, f = strip.mode_profiles[k]
        exact = coef * (1.0 + k * y) * np.exp(-k * y)
        assert np.abs(f - exact).max() < 1e-3


def test_strip_solution_is_discretely_biharmonic():
    strip = strip_extension(FourierTrace([0.0, 1.0, 0.5]), Y=12.0)
    assert strip_biharmonic_residual(strip) < 1e-12


def test_extension_is_linear_in_the_trace():
    s1 = strip_extension(FourierTrace([0.0, 1.0, 0.0]), Y=12.0)
    s2 = strip_extension(FourierTrace([0.0, 0.0, 1.0]), Y=12.0)
    combo = strip_extension(FourierTrace([0.0, 2.0, -3.0]), Y=12.0)
    assert sorted(combo.mode_profiles) == [1, 2]
    f1, f2 = combo.mode_profiles[1][1], combo.mode_profiles[2][1]
    assert np.abs(f1 - 2.0 * s1.mode_profiles[1][1]).max() < 1e-12
    assert np.abs(f2 + 3.0 * s2.mode_profiles[2][1]).max() < 1e-12


def test_constant_mode_passes_through():
    strip = strip_extension(FourierTrace([2.0]), Y=12.0)
    assert list(strip.mode_profiles) == [0]
    y, f = strip.mode_profiles[0]
    assert np.array_equal(y, _mode_heights(1, 12.0)) and f.shape == y.shape
    assert f.min() == f.max() == 2.0


def test_dtn_ratio_matches_fractional_multiplier():
    report = dtn_compare(FourierTrace([0.0, 1.0, 1.0, 1.0]), Y=12.0)
    for k in (1, 2, 3):
        assert report.ratios[k] == pytest.approx(2.0, abs=0.1)
    assert report.spread < 0.02
    assert report.calibrated_inverse_constant == pytest.approx(2.0, abs=0.05)
    assert report.ok


@pytest.mark.parametrize("coeffs", DTN_TRACES)
def test_dtn_ratios_equal_the_two_dimensional_route(coeffs):
    """Measuring each mode on its own profile gives the ratios of the
    Laplacian of the assembled strip field, projected back onto cos(k x)."""
    trace = FourierTrace(coeffs)
    report = dtn_compare(trace, Y=12.0)
    reference = _strip_dtn_reference(trace, Y=12.0)
    assert list(report.ratios) == list(reference)
    for k, ratio in reference.items():
        assert report.ratios[k] == pytest.approx(ratio, rel=1e-10, abs=0.0)


def test_each_mode_is_measured_on_its_own_heights(capsys):
    """Each mode is solved once, by `strip_extension`, on its own heights:
    modes k <= 3 share the step of the x samples, and a higher mode's step
    shrinks like 3/k, so that modes 1, 2, 3, 5 and 8 at Y = 16 pass the
    acceptance rule and `extension-check` exits 0. `dtn_compare` measures
    exactly the profiles of that solve."""
    trace = FourierTrace([0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    strip = strip_extension(trace, Y=16.0)
    for k in (1, 2, 3):
        y, f = strip.mode_profiles[k]
        assert np.array_equal(y, _mode_heights(1, 16.0))
        assert np.array_equal(_mode_profile(k, 1.0, y), f)
    for k in (5, 8):  # the fewest equal steps of at most dx 3/k
        y, f = strip.mode_profiles[k]
        step = strip.x[1] * 3.0 / k
        assert np.array_equal(y, _mode_heights(k, 16.0))
        assert np.array_equal(_mode_profile(k, 1.0, y), f)
        assert y[-1] == 16.0 and y[1] <= step < 16.0 / (y.size - 2)
    report = dtn_compare(trace, Y=16.0)
    assert report.ok and report.spread < 0.003
    for k, (y, f) in strip.mode_profiles.items():  # the ratio of each profile
        d = y[1] - y[0]
        f2 = np.array([2 * f[1] - 2 * f[0], f[2] + f[0] - 2 * f[1], f[3] + f[1] - 2 * f[2]])
        lap = f2 / d ** 2 - (2.0 - 2.0 * np.cos(k * strip.x[1])) / strip.x[1] ** 2 * f[:3]
        dlap = (-3.0 * lap[0] + 4.0 * lap[1] - lap[2]) / (2.0 * d)
        assert report.ratios[k] == float(dlap) / float(k) ** 3
    assert main(["extension-check", "--modes", "1,2,3,5,8", "--height", "16"]) == 0
    assert "spread 0.002919 (target <= 0.02): pass" in capsys.readouterr().out


def test_acceptance_rule_reads_each_mode_and_the_spread():
    low = DtnReport(ratios={1: 2.0, 2: 1.91}, calibrated_inverse_constant=1.955)
    assert low.mode_ok(1) and low.mode_ok(2)  # 1.91 is 4.5% below 2
    assert not low.spread_ok and not low.ok   # but the modes differ by 4.5%
    off = DtnReport(ratios={1: 2.11, 2: 2.11}, calibrated_inverse_constant=2.11)
    assert off.spread_ok and not off.mode_ok(1) and not off.ok


def test_extension_guards():
    with pytest.raises(ValueError, match="Y >= 8"):
        strip_extension(FourierTrace([0.0, 1.0]), Y=6.0)
    high = np.zeros(65)
    high[64] = 1.0
    with pytest.raises(ValueError, match="under-resolved"):
        strip_extension(FourierTrace(high), Y=12.0)
    with pytest.raises(ValueError, match="no active modes"):
        dtn_compare(FourierTrace([1.0]), Y=12.0)
    for Y in (float("nan"), float("inf"), np.nextafter(64.0, 65.0)):
        with pytest.raises(ValueError, match="finite and <= 64"):
            strip_extension(FourierTrace([0.0, 1.0]), Y=Y)
