"""Generalized Wigner law: density profiles and the Fuss-Catalan moments.

For a random symmetric tensor of order p the expected resolvent has a
finite cut whose jump defines a spectral density rho_p(y) = |y| P_p(y^2)
on (-edge, edge), edge = p^{p/2}/(p-1)^{(p-1)/2}.  At p = 2 this is the
Wigner semicircle; for p >= 3 the density diverges mildly at the origin
and its even moments are the Fuss-Catalan numbers.
"""

import numpy as np

from tensorspectra import (
    density_moment,
    fuss_catalan_number,
    support_edge,
    wigner_density,
    wigner_density_roots,
)

print("support edges:")
for p in (2, 3, 4, 5):
    print(f"  p={p}: edge = {support_edge(p):.6f}")

print("\ndensity profiles (parametric route against the branch-tracked one):")
for p in (2, 3):
    edge = support_edge(p)
    ys = np.linspace(0.1, 0.98 * edge, 6)
    for y in ys:
        parametric = wigner_density(p, float(y))
        branch_tracked = wigner_density_roots(p, float(y))
        print(
            f"  p={p} y={y:6.3f}: rho={parametric:.12f}"
            f"  (route difference {abs(parametric - branch_tracked):.1e})"
        )

print("\nsemicircle check at p=2, y=1:", wigner_density(2, 1.0), "=", "sqrt(3)/(2 pi)")

print("\neven moments equal Fuss-Catalan numbers:")
for p in (2, 3, 4):
    row = []
    for n in range(6):
        m = density_moment(p, n)
        f = fuss_catalan_number(p, n)
        row.append(f"{m:.6f}~{f}")
    print(f"  p={p}: " + "  ".join(row))
