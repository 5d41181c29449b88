"""Geometry of the anisotropic two-site triangular lattice.

The lattice is a triangular Bravais lattice with a two-point basis (sites A
and B). The primitive vectors are fixed; anisotropy is introduced by sliding
site B along the x axis, which changes the intracell nearest-neighbour
distance d_intra while the intercell distance d_inter follows from the fixed
cell. The anisotropy parameter is beta = d_intra / d_inter; beta = 1 is the
isotropic honeycomb arrangement.

All lengths are measured in units of the emitter wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BETA_MIN = 0.5
BETA_MAX = 1.7321
# Smallest accepted d0. Detunings grow as d0^-3 and k as 1/d0: below about
# 1e-20 the gap refinement overflows, below about 1e-52 the Bloch solve and
# the lattice sums do. No probe of the six CLI commands overflowed at 1e-15.
D0_MIN = 1e-12
# Largest accepted d0. From about 25 the Ewald disks need lattice indices
# past the lattice sums' cap (a numerical failure); near 1e154 |a1|^2
# overflows.
D0_MAX = 1e3
# Largest k coordinate reduce_to_bz (and the CLI) accepts, in units of
# |b1|: the reduction loses about |k| eps to rounding, below 1e-9 |b1| up
# to here.
K_MAX_FRAC = 1e6

# The standard plotting path: one straight vertical segment through the zone.
FIGURE_PATH = ("M_bottom", "Kprime", "Gamma", "K", "M_top")

# Labels accepted by sample_path, resolved against ReciprocalSpec.
_POINT_ALIASES = {
    "gamma": "Gamma",
    "g": "Gamma",
    "m": "M",
    "k": "K",
    "kprime": "Kprime",
    "k'": "Kprime",
    "m_top": "M_top",
    "mtop": "M_top",
    "m_bottom": "M_bottom",
    "mbottom": "M_bottom",
}

# Lattice steps around the rounded fractional coordinates of k that
# reduce_to_bz compares.
_STEPS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)],
                  dtype=float)


class BetaOutOfRange(ValueError):
    """Anisotropy ratio outside the geometrically meaningful range."""


class UnknownLabel(KeyError):
    """A path label does not name a known high-symmetry point."""


@dataclass(frozen=True)
class LatticeSpec:
    """Immutable description of one anisotropic lattice.

    Attributes:
        d0: Length scale fixing the cell (honeycomb nearest-neighbour
            distance at beta = 1), in wavelength units.
        beta: Anisotropy ratio d_intra / d_inter.
        a1, a2: Primitive vectors (2,), independent of beta.
        d_intra: Intracell A-B distance.
        d_inter: Intercell A-B distance.
        basis_offset: Position of site B relative to site A, equals
            (-d_intra, 0).
    """

    d0: float
    beta: float
    a1: np.ndarray
    a2: np.ndarray
    d_intra: float
    d_inter: float
    basis_offset: np.ndarray

    @property
    def cell_area(self) -> float:
        return float(abs(self.a1[0] * self.a2[1] - self.a1[1] * self.a2[0]))


@dataclass(frozen=True)
class ReciprocalSpec:
    """Reciprocal lattice and Brillouin-zone landmarks.

    Attributes:
        b1, b2: Reciprocal primitive vectors, a_i . b_j = 2 pi delta_ij.
        Gamma, M, K, Kprime: High-symmetry points. M is the edge midpoint on
            the +x (anisotropy) axis; K the top corner (0, +|K|); Kprime = -K.
        M_top, M_bottom: The vertical-axis representatives +-(b1-b2)/2,
            equivalent to M modulo b2. They are the endpoints of the standard
            plotting path FIGURE_PATH, a single straight vertical segment
            M_bottom -> Kprime -> Gamma -> K -> M_top.
    """

    b1: np.ndarray
    b2: np.ndarray
    Gamma: np.ndarray
    M: np.ndarray
    K: np.ndarray
    Kprime: np.ndarray
    M_top: np.ndarray
    M_bottom: np.ndarray

    def point(self, label: str) -> np.ndarray:
        """Resolve a label to a k-point. Raises UnknownLabel."""
        key = _POINT_ALIASES.get(str(label).strip().lower())
        if key is None:
            raise UnknownLabel(f"unknown high-symmetry label: {label!r}")
        return getattr(self, key)


def _check_beta(beta: float) -> None:
    if not (BETA_MIN <= beta <= BETA_MAX):
        raise BetaOutOfRange(
            f"beta={beta} outside [{BETA_MIN}, {BETA_MAX}]"
        )


def solve_intracell_distance(d0: float, beta: float) -> float:
    """Intracell distance d_intra realizing a given anisotropy ratio.

    d_intra is the root of (beta^2 - 1) t^2 - 3 beta^2 d0 t + 3 beta^2 d0^2
    = 0 that connects continuously to t = d0 at beta = 1. The rationalized
    form below selects that root with no special-casing and no cancellation:

        t = 6 beta d0 / (3 beta + sqrt(3 (4 - beta^2)))

    Args:
        d0: Cell length scale in [D0_MIN, D0_MAX].
        beta: Anisotropy ratio in [BETA_MIN, BETA_MAX].

    Returns:
        d_intra in the same units as d0.

    Raises:
        BetaOutOfRange: beta outside [BETA_MIN, BETA_MAX].
        ValueError: d0 outside [D0_MIN, D0_MAX] (NaN included).
    """
    _check_beta(beta)
    if not D0_MIN <= d0 <= D0_MAX:
        raise ValueError(f"d0 must be in [{D0_MIN}, {D0_MAX}], got {d0}")
    return 6.0 * beta * d0 / (3.0 * beta + np.sqrt(3.0 * (4.0 - beta * beta)))


def build_lattice(d0: float, beta: float) -> LatticeSpec:
    """Construct a LatticeSpec for the given cell scale and anisotropy.

    Args:
        d0: Cell length scale in wavelength units.
        beta: Anisotropy ratio; beta = 1 gives the honeycomb lattice.

    Returns:
        LatticeSpec with beta-independent primitive vectors
        a_{1,2} = (d0 sqrt(3)/2) (sqrt(3), +-1) and site B at (-d_intra, 0).
    """
    d_intra = solve_intracell_distance(d0, beta)
    half = d0 * np.sqrt(3.0) / 2.0
    a1 = np.array([half * np.sqrt(3.0), +half])
    a2 = np.array([half * np.sqrt(3.0), -half])
    d_inter = float(np.hypot(1.5 * d0 - d_intra, half))
    basis_offset = np.array([-d_intra, 0.0])
    for arr in (a1, a2, basis_offset):
        arr.setflags(write=False)
    return LatticeSpec(
        d0=float(d0),
        beta=float(beta),
        a1=a1,
        a2=a2,
        d_intra=float(d_intra),
        d_inter=d_inter,
        basis_offset=basis_offset,
    )


def reciprocal(spec: LatticeSpec) -> ReciprocalSpec:
    """Reciprocal vectors and Brillouin-zone landmarks for a lattice.

    Args:
        spec: Lattice to transform.

    Returns:
        ReciprocalSpec. The FIGURE_PATH points M_bottom, Kprime, Gamma, K
        and M_top are collinear on the k_y axis; the M endpoints are the
        representatives +-(b1 - b2)/2 of the M point.
    """
    a = np.array([spec.a1, spec.a2])
    b = 2.0 * np.pi * np.linalg.inv(a).T
    b1, b2 = b[0].copy(), b[1].copy()
    gamma = np.zeros(2)
    m = (b1 + b2) / 2.0
    k = (b1 - b2) / 3.0
    kprime = -k
    m_top = (b1 - b2) / 2.0
    m_bottom = -m_top
    for arr in (b1, b2, gamma, m, k, kprime, m_top, m_bottom):
        arr.setflags(write=False)
    return ReciprocalSpec(
        b1=b1, b2=b2, Gamma=gamma, M=m, K=k, Kprime=kprime,
        M_top=m_top, M_bottom=m_bottom,
    )


def sample_path(recip: ReciprocalSpec, labels, n_per_segment: int):
    """Sample straight k-space segments through labelled points.

    Args:
        recip: Reciprocal description providing the named points.
        labels: High-symmetry labels; an unknown one raises UnknownLabel.
        n_per_segment: Samples per segment including both endpoints (>= 2).
            Shared junctions are emitted once.

    Returns:
        List of (k, arclength, label) triples; k is a (2,) array, arclength
        is cumulative along the path, label is the vertex label at vertices
        and '' between them.
    """
    if n_per_segment < 2:
        raise ValueError("n_per_segment must be >= 2")
    names = list(labels)
    pts = [recip.point(lab) for lab in names]
    if len(pts) < 2:
        raise ValueError("need at least two path points")
    out = []
    arc = 0.0
    for i in range(len(pts) - 1):
        p, q = pts[i], pts[i + 1]
        seg = np.linalg.norm(q - p)
        ts = np.linspace(0.0, 1.0, n_per_segment)
        start = 1 if i > 0 else 0  # junction already emitted
        for j in range(start, n_per_segment):
            kvec = p + ts[j] * (q - p)
            s = arc + ts[j] * seg
            if j == 0:
                label = names[i]
            elif j == n_per_segment - 1:
                label = names[i + 1]
            else:
                label = ""
            out.append((kvec, s, label))
        arc += seg
    return out


def standard_path(recip: ReciprocalSpec, n_per_segment: int = 100):
    """The vertical figure path M_bottom -> K' -> Gamma -> K -> M_top."""
    return sample_path(recip, FIGURE_PATH, n_per_segment)


def reduce_to_bz(recip: ReciprocalSpec, k) -> np.ndarray:
    """Translate k by reciprocal vectors into the first Brillouin zone.

    Args:
        recip: Reciprocal lattice.
        k: Bloch vector (2,), or an array (..., 2) of them.

    Returns:
        Array shaped like k holding the minimum-norm representative of each
        k among the 3 x 3 translates around its rounded fractional
        coordinates (ties resolved toward larger kx, then larger ky, for
        determinism on the zone boundary).

    Raises:
        ValueError: a coordinate not finite or beyond K_MAX_FRAC |b1|.
    """
    k = np.asarray(k, dtype=float)
    k_max = K_MAX_FRAC * math.hypot(*recip.b1)
    if not abs(k).max(initial=0.0) <= k_max:  # NaN fails it too
        rows = k.reshape(-1, 2)
        bad = ~(abs(rows) <= k_max).all(axis=1)
        raise ValueError(f"k = {rows[np.argmax(bad)]} is not finite or "
                         f"beyond {K_MAX_FRAC:g} |b1| ({k_max:.6g})")
    b = np.array([recip.b1, recip.b2])
    base = np.round(np.linalg.solve(b.T, k[..., None])[..., 0])
    n = base[..., None, :] + _STEPS
    cand = k[..., None, :] - n[..., :1] * recip.b1 - n[..., 1:] * recip.b2
    # |cand| through a dot product, as np.linalg.norm takes it for one
    # vector, so that boundary ties break alike for one k and for a batch
    norm = np.sqrt((cand[..., None, :] @ cand[..., :, None])[..., 0, 0])
    best = np.lexsort((-cand[..., 1], -cand[..., 0], norm), axis=-1)[..., :1]
    return np.take_along_axis(cand, best[..., None], axis=-2)[..., 0, :]
