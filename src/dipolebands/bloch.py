"""Bloch-matrix assembly, diagonalization, and connected band structures.

The collective mode problem of the two-site dipole lattice reduces, at each
Bloch vector k, to a 6x6 non-Hermitian matrix in the basis
(A_x, A_y, A_z, B_x, B_y, B_z):

    m(k) = -(i/2) I - (3/2) [[D_same(k),   D_ab(k)],
                             [D_ba(k),     D_same(k)]]

where the D blocks are the dyadic lattice sums (in wavelength/linewidth
units the coupling prefactor is exactly 3/2). Eigenvalues are reported as
(detuning, decay) = (Re lam, -2 Im lam): detuning is the band energy
relative to the emitter resonance in linewidth units and decay is the
radiative width gamma_k in units of the single-emitter linewidth.

In-plane displacements decouple the two z polarizations from the four
in-plane ones exactly; the 2x2 out-of-plane block is solved in closed form
and the 4x4 in-plane block densely. BLOCKS is the band-slot layout of every
BandSet and BandGrid: in-plane bands in slots 0-3, out-of-plane in 4-5.
Bands along a path are connected within each block by maximal eigenvector
overlap so that true crossings are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .greens import K0
from .lattice import LatticeSpec, reciprocal
from .latticesums import (
    LatticeSumRequest,
    RayleighAnomaly,
    ewald_sum,
)

OUT_OF_PLANE = "out_of_plane"
IN_PLANE = "in_plane"

# Band slots of every BandSet and BandGrid: in-plane, then out-of-plane.
BLOCKS = (IN_PLANE,) * 4 + (OUT_OF_PLANE,) * 2
SLOTS = {IN_PLANE: slice(0, 4), OUT_OF_PLANE: slice(4, 6)}
# Basis components (A_x, A_y, A_z, B_x, B_y, B_z) of each block.
_BASIS = {IN_PLANE: np.array([0, 1, 3, 4]), OUT_OF_PLANE: np.array([2, 5])}

# Overlap differences below this are treated as matching ties and resolved
# by energy order (documented arbitrary choice).
TIE_THRESHOLD = 1e-6


class EigenFailure(ArithmeticError):
    """An eigenpair failed the residual acceptance bound."""


@dataclass(frozen=True)
class BlochMatrix:
    """The 6x6 collective-coupling matrix at one Bloch vector (assemble)."""

    m: np.ndarray
    k: np.ndarray
    in_light_cone: bool


@dataclass(frozen=True)
class BandSet:
    """Six eigenpairs at one k in the BLOCKS slot layout.

    Slots 0-3 are the in-plane bands and 4-5 the out-of-plane bands. Each
    block is detuning-sorted as eigensolve returns it; along a path
    (bands_on_path) a slot follows one band by eigenvector overlap instead.

    Attributes:
        k: Bloch vector (2,).
        arclength: Position along a path (0 for isolated evaluations).
        detuning: (6,) band energies (omega_k - omega_a)/Gamma_a.
        decay: (6,) radiative widths gamma_k/Gamma_a.
        vectors: (6, 6) eigenvectors as columns, full-basis components.
        block: BLOCKS, the polarization tag of each slot.
        in_light_cone: True when the zone-reduced k is inside the light
            cone, |k_reduced| < k0 (see assemble).
        anomalous: True when the k-point needed a light-line nudge.
    """

    k: np.ndarray
    arclength: float
    detuning: np.ndarray
    decay: np.ndarray
    vectors: np.ndarray
    block: tuple
    in_light_cone: bool
    anomalous: bool = False


@dataclass(frozen=True)
class BandGrid:
    """Energy-ordered band surfaces over a rectangular k grid.

    Band slots follow BLOCKS: 0-3 are the in-plane bands and 4-5 the
    out-of-plane bands, each block sorted by detuning at every grid point
    independently (sheets, not connected bands). block is BLOCKS.
    """

    kx: np.ndarray
    ky: np.ndarray
    detuning: np.ndarray  # (nx, ny, 6)
    decay: np.ndarray  # (nx, ny, 6)
    block: tuple
    in_light_cone: np.ndarray  # (nx, ny) bool
    anomalous: np.ndarray  # (nx, ny) bool


def assemble(spec: LatticeSpec, k, mode: str = "retarded") -> BlochMatrix:
    """Build the 6x6 Bloch matrix from three lattice sums.

    One ewald_sum per offset, each at the lattice-sum layer's own
    truncation target and splitting (LatticeSumRequest defaults). The
    lattice sums are the only layer that reduces k to the first zone:
    in_light_cone is read off the same-site sum's k_reduced.

    Args:
        spec: Lattice geometry.
        k: Bloch vector (2,).
        mode: 'retarded' or 'quasistatic'.

    Returns:
        BlochMatrix with basis ordering (A_x, A_y, A_z, B_x, B_y, B_z),
        and in_light_cone True when |k_reduced| < k0.
    """
    k = np.asarray(k, dtype=float)
    same, a_to_b, b_to_a = (
        ewald_sum(LatticeSumRequest(spec=spec, k=k, offset=offset, mode=mode))
        for offset in ("same", "a_to_b", "b_to_a"))
    m = np.zeros((6, 6), dtype=complex)
    m[:3, :3] = same.D
    m[3:, 3:] = same.D
    m[:3, 3:] = a_to_b.D
    m[3:, :3] = b_to_a.D
    m *= -1.5
    m -= 0.5j * np.eye(6)
    return BlochMatrix(m=m, k=k,
                       in_light_cone=bool(np.linalg.norm(same.k_reduced) < K0))


def _eig_out_of_plane(m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of the [[a, b], [c, a]] out-of-plane block."""
    a, b = m2[0, 0], m2[0, 1]
    c = m2[1, 0]
    scale = max(abs(a), abs(b), abs(c), 1e-300)
    s = np.sqrt(b * c)
    vals = np.array([a - s, a + s])
    if max(abs(b), abs(c)) < 1e-14 * scale:
        return vals, np.eye(2, dtype=complex)
    vecs = np.array([[b, b], [-s, s]], dtype=complex)
    norms = np.linalg.norm(vecs, axis=0)
    if np.min(norms) < 1e-14 * scale:
        # b == 0 with c != 0 (or vice versa): defective block, closed form
        # has no second eigenvector. Defer to the dense solver.
        dvals, dvecs = np.linalg.eig(m2)
        order = np.argsort(dvals.real)
        return dvals[order], dvecs[:, order]
    return vals, vecs / norms


def eigensolve(bm: BlochMatrix) -> BandSet:
    """Diagonalize a Bloch matrix into a BandSet in the BLOCKS layout.

    The in-plane 4x4 block is solved with a dense solver into slots 0-3 and
    the out-of-plane 2x2 block in closed form into slots 4-5, each block
    sorted by detuning (stable sort). Every eigenpair must satisfy
    ||m v - lam v|| <= 1e-10 ||m||. The BandSet has arclength 0 and
    anomalous False; path position and light-line nudges belong to the
    callers (bands_on_path, solve_k).

    Raises:
        EigenFailure: residual bound unmet.
    """
    m = bm.m
    norm_m = np.linalg.norm(m)

    vals = np.zeros(6, dtype=complex)
    vecs = np.zeros((6, 6), dtype=complex)
    for tag, solver in ((IN_PLANE, np.linalg.eig),
                        (OUT_OF_PLANE, _eig_out_of_plane)):
        idx = _BASIS[tag]
        w, v = solver(m[np.ix_(idx, idx)])
        order = np.argsort(w.real, kind="stable")
        vals[SLOTS[tag]] = w[order]
        vecs[idx, SLOTS[tag]] = v[:, order]

    res = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
    if res.max() > 1e-10 * norm_m:
        raise EigenFailure(
            f"eigenpair residual {res.max():.3e} exceeds 1e-10*||m||="
            f"{1e-10 * norm_m:.3e} at k={bm.k}"
        )

    return BandSet(
        k=bm.k,
        arclength=0.0,
        detuning=vals.real,
        decay=-2.0 * vals.imag,
        vectors=vecs,
        block=BLOCKS,
        in_light_cone=bm.in_light_cone,
    )


def solve_k(spec: LatticeSpec, k, mode: str = "retarded") -> BandSet:
    """Bands at one k-point: assemble and eigensolve.

    A k-point on a light-line (Rayleigh) singularity is moved once by
    1e-7 |b1| along the normal of the grazing order's |k+g| = k0 circle and
    solved there; the BandSet keeps the requested k, carries the eigendata
    of the moved point and has anomalous=True. Its arclength is 0.
    """
    k = np.asarray(k, dtype=float)
    try:
        bm = assemble(spec, k, mode)
    except RayleighAnomaly as exc:
        step = 1e-7 * float(np.linalg.norm(reciprocal(spec).b1))
        bm = assemble(spec, k + step * exc.direction, mode)
        return replace(eigensolve(bm), k=k, anomalous=True)
    return eigensolve(bm)


def _match_block(prev_vecs, cur_vecs, prev_det, cur_det):
    """Overlap assignment of one block's bands; returns cur column order."""
    # path connection only; scipy.optimize stays off the import path
    from scipy.optimize import linear_sum_assignment

    o = np.abs(prev_vecs.conj().T @ cur_vecs)
    n = len(prev_det)
    row, col = linear_sum_assignment(-o)
    order = np.empty(n, dtype=int)
    order[row] = col
    # Resolve swap-indifferent pairs by energy order.
    for i in range(n):
        for j in range(i + 1, n):
            ci, cj = order[i], order[j]
            gain = abs(o[i, ci] + o[j, cj] - o[i, cj] - o[j, ci])
            if gain < TIE_THRESHOLD:
                want_swap = (
                    (prev_det[i] - prev_det[j])
                    * (cur_det[ci] - cur_det[cj]) < 0
                )
                if want_swap:
                    order[i], order[j] = cj, ci
    return order


def _connect(bands: list[BandSet]) -> list[BandSet]:
    """Reorder each block's slots along a path by eigenvector overlap."""
    out = bands[:1]
    for cur in bands[1:]:
        prev = out[-1]
        perm = np.arange(6)
        for sl in SLOTS.values():
            perm[sl] = sl.start + _match_block(
                prev.vectors[:, sl], cur.vectors[:, sl],
                prev.detuning[sl], cur.detuning[sl])
        out.append(replace(cur, detuning=cur.detuning[perm],
                           decay=cur.decay[perm],
                           vectors=cur.vectors[:, perm]))
    return out


def bands_on_path(spec: LatticeSpec, path,
                  mode: str = "retarded") -> list[BandSet]:
    """Connected band structure along a sampled path.

    Args:
        spec: Lattice geometry.
        path: Iterable of (k, arclength, label) triples (see lattice module)
            or of bare k vectors (arclength 0).
        mode: 'retarded' or 'quasistatic'.

    Returns:
        List of BandSet in the BLOCKS layout, each carrying its sample's
        arclength. Each block is detuning-sorted at the first sample; from
        there a slot follows one band by eigenvector overlap, so true
        crossings keep their slots.
    """
    bands = []
    for entry in path:
        if isinstance(entry, tuple) and len(entry) == 3:
            kvec, s, _label = entry
        else:
            kvec, s = entry, 0.0
        bands.append(replace(solve_k(spec, kvec, mode), arclength=float(s)))
    return _connect(bands)


def bands_on_grid(spec: LatticeSpec, kx, ky,
                  mode: str = "retarded") -> BandGrid:
    """Energy-ordered band sheets over a rectangular k grid.

    Returns:
        BandGrid in the BLOCKS layout, each block detuning-sorted per point;
        light-line points are flagged in the `anomalous` mask (see solve_k).
    """
    kx = np.atleast_1d(np.asarray(kx, dtype=float))
    ky = np.atleast_1d(np.asarray(ky, dtype=float))
    nx, ny = len(kx), len(ky)
    det = np.zeros((nx, ny, 6))
    dec = np.zeros((nx, ny, 6))
    lc = np.zeros((nx, ny), dtype=bool)
    anom = np.zeros((nx, ny), dtype=bool)
    for i in range(nx):
        for j in range(ny):
            bs = solve_k(spec, (kx[i], ky[j]), mode)
            det[i, j] = bs.detuning
            dec[i, j] = bs.decay
            lc[i, j] = bs.in_light_cone
            anom[i, j] = bs.anomalous
    return BandGrid(kx=kx, ky=ky, detuning=det, decay=dec, block=BLOCKS,
                    in_light_cone=lc, anomalous=anom)
