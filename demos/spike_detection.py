"""Spiked-tensor detection: the singular locus jumps at b_t.

Adding a rank-one signal b v^{otimes p}/N^{p/2-1} to ensemble noise leaves
the resolvent's largest singularity at the noise edge until b reaches
b_t = sqrt((p-1)^p/(p-2)^{p-2}); there the locus jumps to p^{p/2} and then
grows with b.  The scan below reproduces the jump and reports the two
saddle values of the angular-radial exponent near the locus.
"""

import math

import numpy as np

from tensorspectra.annealed import singular_locus, spike_saddles, spike_threshold

p = 3
res = spike_threshold(p)
print(f"p={p}: b_t = {res.b_t:.8f} (= sqrt(8))")
print(f"  locus below threshold: {res.y_c_below:.8f}")
print(f"  locus at threshold:    {res.y_c_at:.8f}")

print("\nb-scan of the singular locus:")
for b in np.arange(0.0, 6.01, 0.5):
    y_c = singular_locus(p, float(b))
    marker = " <- jump" if abs(b - res.b_t) < 0.3 else ""
    print(f"  b = {b:4.2f}: y_c = {y_c:10.6f}{marker}")

print("\nsaddles at the threshold point (w = 3^{3/2}, b = b_t):")
rep = spike_saddles(p, 3**1.5, math.sqrt(8.0))
for i, s in enumerate(rep.saddles):
    tag = "dominant by Re f" if i == rep.dominant_index else "subdominant"
    print(
        f"  theta = {s.theta:.6f} (sin^2 = {math.sin(s.theta)**2:.6f}), "
        f"rho^2 = {s.rho_sq.real:.6f}, Re f = {s.f_value.real:+.6f}  [{tag}]"
    )
