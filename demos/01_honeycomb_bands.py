"""Band structure of the isotropic honeycomb emitter lattice.

Solves the six collective bands along the standard vertical path through
the zone (M_bottom -> K' -> Gamma -> K -> M_top) for beta = 1, d0 = 0.1,
prints a compact table, and marks the Dirac contacts at the zone corners.
Saves a figure when matplotlib is importable.
"""

import numpy as np

from dipolebands import (
    assemble,
    bands_on_path,
    build_lattice,
    eigensolve,
    reciprocal,
    standard_path,
)

spec = build_lattice(d0=0.1, beta=1.0)
recip = reciprocal(spec)
path = standard_path(recip, n_per_segment=60)
bands = bands_on_path(spec, path)
# the path position of each sample
s = np.array([arc for _k, arc, _label in path])

print(f"lattice: d0={spec.d0}, beta={spec.beta}, "
      f"|a1|={np.linalg.norm(spec.a1):.6f}")
print(f"path: {len(bands)} points, arclength {s[0]:.3f} .. {s[-1]:.3f}")

# the two corner contacts: out-of-plane pair and middle in-plane pair
for label in ("K", "Kprime"):
    bs = eigensolve(assemble(spec, recip.point(label)))
    det = np.sort(bs.detuning)
    print(f"{label:>7}: six detunings " +
          " ".join(f"{d:+.4f}" for d in det))
print("out-of-plane gap at K:",
      f"{abs(det[2] - det[1]):.2e} (Dirac contact)")

# light-cone bookkeeping along the path
inside = sum(1 for b in bands if b.in_light_cone)
print(f"{inside}/{len(bands)} path points inside the light cone")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(7, 5))
    for n in range(6):
        e = np.array([b.detuning[n] for b in bands])
        tag = bands[len(bands) // 2].block[n]
        ax.plot(s, e, lw=1.2,
                color="tab:blue" if tag == "in_plane" else "tab:red")
    for b, arc in zip(bands, s):
        if not b.in_light_cone:
            continue
        ax.axvspan(arc, arc, color="0.9", zorder=0)
    ticks = [arc for _, arc, lab in path if lab]
    labels = [lab for _, _, lab in path if lab]
    ax.set_xticks(ticks, labels)
    ax.set_xlabel("path position")
    ax.set_ylabel("detuning (units of the single-emitter linewidth)")
    ax.set_title("collective bands, beta = 1 (red: out-of-plane)")
    fig.tight_layout()
    fig.savefig("demo01_bands.png", dpi=150)
    print("wrote demo01_bands.png")
