"""Semi-Dirac merging of the out-of-plane cones at the zone-edge midpoint.

As the anisotropy beta decreases from 1, the two out-of-plane Dirac cones
migrate along the zone edge and annihilate at M. This script measures the
merging beta, then classifies the contact exactly at the transition: the
dispersion is linear toward Gamma and quadratic along the zone edge.
"""

import numpy as np

from dipolebands import (
    build_lattice,
    classify,
    critical_beta,
    dispersion,
    find_degeneracies,
    reciprocal,
)

D0 = 0.1
BLOCK = "out_of_plane"

# gap at M as a function of beta: V-shaped around the merging point. The
# two bands have opposite parity under the kx mirror S, and the upper band's
# parity flips where they cross, so the gap signed by that parity is
# smooth through zero: critical_beta finds its root by inverse quadratic
# steps, in a bracket no wider than bracket_tol
print("beta    gap at M")
for beta in (0.80, 0.82, 0.84, 0.86, 0.88):
    spec = build_lattice(D0, beta)
    gap = dispersion.make_gap_function(spec, BLOCK, (0, 1))
    print(f"{beta:.2f}    {gap(reciprocal(spec).M):.5f}")

beta_c = critical_beta(D0, BLOCK, (0, 1), "M", (0.80, 0.88),
                       bracket_tol=1e-6)
print(f"\nmerging beta_c = {beta_c:.6f}")

spec = build_lattice(D0, beta_c)
m_pt = reciprocal(spec).M
found = find_degeneracies(spec, BLOCK, (0, 1), grid_n=24,
                          search_region=(m_pt[0] - 2, m_pt[0] + 2, -2, 2))
contact = found[0].k_star if found else m_pt
rep = classify(spec, contact, BLOCK, (0, 1))

print(f"kind: {rep.kind}")
i_quad = int(np.argmax(rep.exponents))
for i in range(2):
    axis = rep.principal_axes[:, i]
    role = "quadratic" if i == i_quad else "linear"
    print(f"  axis ({axis[0]:+.3f}, {axis[1]:+.3f}): "
          f"gap exponent {rep.exponents[i]:.3f} ({role})")

# just above beta_c the cones have split and moved onto the zone edge
spec_split = build_lattice(D0, beta_c + 0.03)
split = find_degeneracies(spec_split, BLOCK, (0, 1))
print(f"\nbeta = beta_c + 0.03: {len(split)} separate cones at")
for r in split:
    print(f"  k = ({r.k_star[0]:+.4f}, {r.k_star[1]:+.4f}), "
          f"gap {r.gap_min:.1e}")
