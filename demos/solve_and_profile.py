#!/usr/bin/env python3
"""Solve the two-phase thin-reaction plate problem and read off its
radial frequency profile.

The energy couples the squared Laplacian over the upper half-disc with a
two-phase power of the trace on the flat face. Its minimizer solves the
bi-Laplace equation away from the face; on the face, the vertical
derivative of u vanishes and the vertical derivative of v = Lap u equals
the phase reaction. This script solves the balanced configuration with
an odd linear datum, cross-checks the stationarity conditions, then
walks a geometric ladder of radii around the extracted free-boundary
point and prints the scaled frequency along it; extrapolated to r = 0
it lands on the integer degree of the blow-up.
"""

import numpy as np

from bilaplab import ProblemSpec, minimize
from bilaplab.freeboundary import extract_gamma, profile_point
from bilaplab.solver import el_crosscheck, weak_residual

spec = ProblemSpec(
    n=1,
    p=2.0,
    lambda_plus=1.0,
    lambda_minus=1.0,
    g="harmonic:deg=1",
    h=1.0 / 32.0,
)

result = minimize(spec)
print(f"grid nodes           {spec.grid().node_count}")
print(f"energy               {result.energy:.10f}")
print(f"sup |grad J|         {result.grad_sup:.3e}")
print(f"Newton iterations    {result.iterations}")

report = el_crosscheck(result)
print(f"harmonicity defect   {report.harmonic_sup:.3e}")
print(f"face Neumann defect  {report.neumann_sup:.3e}")
print(f"reaction defect      {report.natural_sup:.3e}")
print(f"weak residual        {weak_residual(result):.3e}")

# Radial profile around the extracted free-boundary point, on the default
# ladder of radii: H is the surface mass of the pair (u, v), D0 the
# Dirichlet mass, and N0 = r D0 / H the frequency.
point = extract_gamma(result.u)[0]
print(f"\nfree-boundary point  x* = {point.x:+.5f}")
profile = profile_point(point, result, None).profile

print("\n    r          H             N0         phi")
for r, H, N0, phi in zip(profile.radii, profile.H, profile.N0, profile.phi):
    print(f"  {r:8.5f}  {H:12.6e}  {N0:9.5f}  {phi:12.6e}")

print(f"\nfrequency at r -> 0  {point.mu_hat:.4f} (nearest integer: {point.mu_int})")
print(f"monotonicity constant C with e^(Cr)(N+1) nondecreasing: {point.almgren_constant:.2f}")
