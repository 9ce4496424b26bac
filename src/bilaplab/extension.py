"""Periodic-strip cross-check of the face reaction as a fractional operator.

A biharmonic extension of a cosine trace on the strip [0, 2pi) x [0, Y] with
clamped vertical derivative at the bottom and decay at the top turns the
half-power Laplacian of the trace into a boundary measurement: for each
Fourier mode, d/dy of the Laplacian of the extension at y = 0 is
proportional to |k|^3 times the mode coefficient. The proportionality
constant is mode-independent; we measure it per mode and calibrate it
empirically (closed form: the decaying biharmonic mode is
(1 + |k| y) a_k e^{-|k| y}, whose Laplacian is -2 k^2 a_k e^{-|k| y}, giving
d/dy Lap at 0 equal to 2 |k|^3 a_k, hence ratio 2). `strip_extension` is
the one solve: each mode on its own heights, kept with its profile, which
`dtn_compare` and `strip_biharmonic_residual` measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

STRIP_SAMPLES = 256  # x samples of the strip on [0, 2pi)
_DX = 2.0 * np.pi / STRIP_SAMPLES  # their spacing
MAX_HEIGHT = 64.0  # (1 + kY) e^(-kY) is below double rounding there for every k >= 1

# the acceptance rule of the identity: every ratio within 5% of 2, and a
# spread across modes of at most 2%
RATIO_TARGET = 2.0
RATIO_TOLERANCE = 0.05  # relative to RATIO_TARGET
SPREAD_LIMIT = 0.02


@dataclass
class FourierTrace:
    """Real cosine-series trace: coeffs[k] multiplies cos(k x), k = 0..K."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("coefficients must be finite")

    def active_modes(self) -> np.ndarray:
        k = np.arange(self.coeffs.size)
        return k[(self.coeffs != 0.0) & (k > 0)]


@dataclass
class StripField:
    """Biharmonic extension on the periodic strip [0, 2pi) x [0, Y].

    mode_profiles[k] is (y_k, f_k): the mode's heights `_mode_heights(k, Y)`
    and its vertical profile on them, with u(x, y) = sum_k f_k(y) cos(k x);
    x holds the strip's x samples.
    """

    x: np.ndarray
    mode_profiles: dict[int, tuple[np.ndarray, np.ndarray]]


def _mode_profile(k: int, a_k: float, y: np.ndarray) -> np.ndarray:
    """Fourth-order two-point solve for the vertical profile of one mode.

    f'''' - 2 k^2 f'' + k^4 f = 0 on (0, Y), f(0) = a_k, f'(0) = 0 (clamped
    even reflection), f(Y) = f'(Y) = 0 (decay surrogate). Discretized with
    second-order central differences; the derivative conditions eliminate
    ghost values by symmetry at both ends. Banded solve over interior nodes.
    """
    J = y.size - 1
    d = float(y[1] - y[0])
    unknown = J - 1  # f_1 .. f_{J-1}
    if unknown < 3:
        raise ValueError("strip resolution too coarse for the vertical solve")
    k2, k4, d2, d4 = float(k * k), float(k ** 4), d * d, d ** 4
    far = 1.0 / d4                     # f_{j-2}, f_{j+2}
    near = -4.0 / d4 + -2.0 * k2 / d2  # f_{j-1}, f_{j+1}
    # the ghosts f_{-1} = f_1 (f'(0) = 0) and f_{J+1} = f_{J-1} (f'(Y) = 0)
    # fold onto the diagonal of the first and last rows
    center = np.full(unknown, 6.0)
    center[[0, -1]] = 7.0
    ab = np.zeros((5, unknown))
    ab[0, 2:] = ab[4, :-2] = far
    ab[1, 1:] = ab[3, :-1] = near
    ab[2] = center / d4 + -2.0 * k2 * -2.0 / d2 + k4
    # the known f_0 = a_k moves to the right-hand side; f_J = 0 adds nothing
    rhs = np.zeros(unknown)
    rhs[0] = -a_k * (-4.0 / d4) - a_k * (-2.0 * k2 / d2)
    rhs[1] = -a_k * far

    sol = scipy.linalg.solve_banded((2, 2), ab, rhs)
    f = np.empty(J + 1)
    f[0] = a_k
    f[1:J] = sol
    f[J] = 0.0
    return f


def check_height(Y: float) -> None:
    """ValueError unless 8 <= Y <= MAX_HEIGHT, which no NaN passes."""
    if not 8.0 <= Y <= MAX_HEIGHT:
        raise ValueError(
            f"strip height Y={Y}: need Y >= 8 for decay, finite and <= {MAX_HEIGHT:g}")


def check_modes(modes) -> None:
    """ValueError unless every mode k keeps 8 samples per wavelength (STRIP_SAMPLES / k >= 8)."""
    for k in modes:
        if STRIP_SAMPLES / k < 8:
            raise ValueError(f"mode k={k} under-resolved: {STRIP_SAMPLES / k:.1f} "
                             "points per wavelength, need >= 8")


def _mode_heights(k: int, Y: float) -> np.ndarray:
    """Heights 0..Y on which mode k is solved, in the fewest equal steps of at
    most dx min(1, 3/k), dx the strip's x step: every mode's decay length 1/k
    spans at least as many steps as mode 3's. Modes k <= 3, and the constant
    k = 0, share the step dx.
    """
    return np.linspace(0.0, Y, int(np.ceil(Y / (_DX * (3.0 / max(k, 3))))) + 1)


def strip_extension(trace: FourierTrace, Y: float = 12.0) -> StripField:
    """Solve the clamped biharmonic extension of a cosine trace, mode by mode,
    each on its own heights `_mode_heights(k, Y)`.

    STRIP_SAMPLES x samples cover [0, 2pi). The height and the active modes
    must pass `check_height` and `check_modes` (checked before anything is
    allocated).
    """
    check_height(Y)
    active = trace.active_modes()
    check_modes(active)
    profiles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    if trace.coeffs[0] != 0.0:
        # k = 0: a constant is biharmonic with zero vertical derivative but cannot
        # decay, so it is carried through unchanged (no fractional multiplier)
        y = _mode_heights(0, Y)
        profiles[0] = y, np.full(y.size, trace.coeffs[0])
    for k in map(int, active):
        y = _mode_heights(k, Y)
        profiles[k] = y, _mode_profile(k, float(trace.coeffs[k]), y)
    return StripField(x=np.arange(STRIP_SAMPLES) * _DX, mode_profiles=profiles)


def strip_biharmonic_residual(strip: StripField) -> float:
    """Max per-mode defect of the fourth-order interior collocation stencil.

    Evaluates f'''' - 2 k^2 f'' + k^4 f with the same central stencils used
    by the solve, over each mode's interior heights; machine-level for the
    banded solution (this is the honest consistency statement: each mode
    profile solves the discrete biharmonic strip problem exactly).
    """
    worst = 0.0
    for k, (y, f) in strip.mode_profiles.items():
        if k == 0:
            continue
        d = float(y[1] - y[0])
        J = f.size - 1
        g = np.empty(J + 3)
        g[1:-1] = f
        g[0] = f[1]      # ghost below the face
        g[-1] = f[J - 1]  # ghost above the lid
        i = np.arange(1, J)  # interior absolute indices, shifted +1 in g
        f4 = (g[i - 1] - 4 * g[i] + 6 * g[i + 1] - 4 * g[i + 2] + g[i + 3]) / d ** 4
        f2 = (g[i] - 2 * g[i + 1] + g[i + 2]) / d ** 2
        res = f4 - 2.0 * k * k * f2 + float(k) ** 4 * f[1:J]
        scale = max(1.0, float(np.abs(f).max())) / d ** 4
        worst = max(worst, float(np.abs(res).max()) / scale)
    return worst


@dataclass
class DtnReport:
    """Per-mode Dirichlet-to-Neumann measurement against |k|^3 a_k."""

    ratios: dict[int, float]
    calibrated_inverse_constant: float  # mean ratio, the empirical 1/C_n

    @property
    def spread(self) -> float:
        vals = np.array(list(self.ratios.values()))
        return float(vals.max() - vals.min()) / float(np.abs(vals).max())

    def mode_ok(self, k: int) -> bool:
        return abs(self.ratios[k] - RATIO_TARGET) <= RATIO_TOLERANCE * RATIO_TARGET

    @property
    def spread_ok(self) -> bool:
        return self.spread <= SPREAD_LIMIT

    @property
    def ok(self) -> bool:
        return self.spread_ok and all(map(self.mode_ok, self.ratios))


def dtn_compare(trace: FourierTrace, Y: float = 12.0) -> DtnReport:
    """Measure d/dy Lap(extension) at the face against the |k|^3 multiplier.

    Mode by mode, on the profiles of `strip_extension(trace, Y)`,
    Lap(f_k(y) cos(k x)) = (f_k'' - sigma_k f_k) cos(k x). f_k'' is the
    solve's central second difference in y, with the even reflection ghost
    f_{-1} = f_1 on the face row. sigma_k = (2 - 2 cos(k dx)) / dx^2 is the
    symbol of the periodic second difference in x. The one-sided
    second-order d/dy of that Laplacian on the face gives
    ratio_k = d/dy Lap_k(0) / (|k|^3 a_k).
    """
    if trace.active_modes().size == 0:
        raise ValueError("trace has no active modes k >= 1")
    ratios = {}
    for k, (y, f) in strip_extension(trace, Y).mode_profiles.items():
        if k == 0:
            continue
        d = float(y[1] - y[0])
        f2 = np.array([2 * f[1] - 2 * f[0],  # face row: ghost f_{-1} = f_1
                       f[2] + f[0] - 2 * f[1],
                       f[3] + f[1] - 2 * f[2]]) / d ** 2
        lap = f2 - (2.0 - 2.0 * np.cos(k * _DX)) / _DX ** 2 * f[:3]
        dlap = (-3.0 * lap[0] + 4.0 * lap[1] - lap[2]) / (2.0 * d)
        ratios[k] = float(dlap) / (float(k) ** 3 * float(trace.coeffs[k]))
    mean = float(np.mean(list(ratios.values())))
    return DtnReport(ratios=ratios, calibrated_inverse_constant=mean)
