"""Bloch-matrix assembly, diagonalization, and connected band structures.

The collective mode problem of the two-site dipole lattice reduces, at each
Bloch vector k, to a 6x6 non-Hermitian matrix in the basis
(A_x, A_y, A_z, B_x, B_y, B_z):

    m(k) = -(i/2) I - (3/2) [[D_same(k),   D_ab(k)],
                             [D_ba(k),     D_same(k)]]

where the D blocks are the dyadic lattice sums (in wavelength/linewidth
units the coupling prefactor is exactly 3/2). The dyadic is even, G(-r) =
G(r), so D_ba(k) = D_ab(-k): assemble makes one ewald_sum call per pass,
offset 'bloch', which returns all three D blocks from one spectral pass
over the k of the pass. Where no diffraction order propagates (every
quasistatic k, and the bound modes outside the light cone) that D_ba is
conj(D_ab), exactly, so the coupling blocks are Hermitian; where one
propagates, D_ba is the k's own D_ab terms, reversed, under the conjugate
phases: the terms at -k. Only D_ab and D_ba depend on
beta: the lattice sums keep the beta-free half of a pass asked for twice
(see latticesums), so the lattices of one d0 share the zone reduction,
the spectral kernels and D_same of a k-set they all solve, bit for bit,
such as the degeneracy scan's grid or critical_beta's M. Eigenvalues are
reported as
(detuning, decay) = (Re lam, -2 Im lam): detuning is the band energy
relative to the emitter resonance in linewidth units and decay is the
radiative width gamma_k in units of the single-emitter linewidth.

In-plane displacements decouple the two z polarizations from the four
in-plane ones exactly. The 4x4 in-plane block is solved densely (eig); the
2x2 out-of-plane block is [[a, b], [c, a]], the two-band cone model
itself, whose pair a -+ sqrt(bc) and eigenvectors are solved in closed
form (_out_of_plane_pair). BLOCKS is the band-slot layout of a BandSet of
both blocks: in-plane bands in slots 0-3, out-of-plane in 4-5. eigensolve and
solve_k take block=None for that layout, or a block tag to diagonalize
that block alone: its nb bands (4 in-plane, 2 out-of-plane)
then fill slots 0 to nb - 1, bitwise the block's SLOTS of the full solve.
The lattice sums are the same either way; a caller that reads one block
(the degeneracy search, classify, critical_beta, dos_histogram) skips the
other block's eigensolve and its eigenvectors. Bands along a path are
connected within each block by maximal eigenvector overlap so that true
crossings are preserved.

assemble, eigensolve and solve_k take k of any shape (..., 2): per-k
fields follow k's leading shape, empty for one k-point (numpy scalar
flags), and the entry at each k is bitwise the one-point result there.
solve_k runs the points in C order in passes of at most _PASS_SIZE (one
assemble and one eigensolve each); a pass with points on a light line is
assembled once more with only those moved off it, and they are flagged
anomalous. bands_on_grid is one solve_k call on its (nx, ny, 2) grid, and
so are the degeneracy scan's grid, each round of its Newton descents (the
batches of every live descent, each a trial step with the five stencil
points it would use next, stacked), classify's location with its ray
samples, classify's axis samples and dos_histogram; bands_on_path solves
one k at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .greens import K0
from .lattice import LatticeSpec, reciprocal
from .latticesums import (
    LatticeSumRequest,
    RayleighAnomaly,
    _norms,
    ewald_sum,
)

OUT_OF_PLANE = "out_of_plane"
IN_PLANE = "in_plane"

# Band slots of every BandSet: in-plane, then out-of-plane.
BLOCKS = (IN_PLANE,) * 4 + (OUT_OF_PLANE,) * 2
SLOTS = {IN_PLANE: slice(0, 4), OUT_OF_PLANE: slice(4, 6)}
# Basis components (A_x, A_y, A_z, B_x, B_y, B_z) of each block.
_BASIS = {IN_PLANE: np.array([0, 1, 3, 4]), OUT_OF_PLANE: np.array([2, 5])}
# Index of each block's square in a batch of 6x6 matrices.
_BLOCK = {tag: (slice(None),) + np.ix_(idx, idx)
          for tag, idx in _BASIS.items()}
# Every column order of a block (2 and 24): band connection picks the one
# of largest summed overlap.
_ORDERS = {len(idx): np.array(list(itertools.permutations(range(len(idx)))))
           for idx in _BASIS.values()}

# The lattice's two mirrors as operators on the basis (A_x, A_y, A_z, B_x,
# B_y, B_z), sites A and B lying on the x axis: kx -> -kx swaps A and B and
# flips p_x, m(-kx, ky) = S m(k) S; ky -> -ky flips p_y, m(kx, -ky) =
# U m(k) U. At a k either maps onto itself modulo the reciprocal lattice
# (M is fixed by both), m(k) commutes with it.
_FLIP_X = np.diag([-1.0, 1.0, 1.0])
MIRROR_S = np.block([[np.zeros((3, 3)), _FLIP_X], [_FLIP_X, np.zeros((3, 3))]])
MIRROR_U = np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])

# Overlap differences below this are treated as matching ties and resolved
# by energy order (documented arbitrary choice).
TIE_THRESHOLD = 1e-6
# Most k-points solve_k takes in one pass: it bounds the lattice sums'
# (k, term) arrays. At d0 0.1 a 48 x 48 out-of-plane grid raised the peak
# RSS by about 2.0 MB in passes of 128, 0.6 MB in passes of 48 and 41 MB
# in one pass; the cone search ran as fast in passes of 96 to 256, and
# about 14% slower in passes of 48.
_PASS_SIZE = 128


class EigenFailure(ArithmeticError):
    """An eigenpair failed the residual acceptance bound."""


@dataclass(frozen=True)
class BlochMatrix:
    """The 6x6 collective-coupling matrices at Bloch vectors k (assemble):
    k (..., 2), m (..., 6, 6) and in_light_cone (...) bool."""

    m: np.ndarray
    k: np.ndarray
    in_light_cone: bool | np.ndarray


@dataclass(frozen=True)
class BandSet:
    """The eigenpairs at one k: six in the BLOCKS layout, or nb of one block.

    With both blocks, slots 0-3 are the in-plane bands and 4-5 the
    out-of-plane bands; a block-only BandSet (eigensolve with a block tag)
    holds that block's nb bands in slots 0 to nb - 1. Each block is
    detuning-sorted as eigensolve returns it; along a path (bands_on_path)
    a slot follows one band by eigenvector overlap instead. Every field but
    block follows k's leading shape: below are the shapes at one k (2,),
    which a batch (N, 2) or grid (nx, ny, 2) leads with (N,) or (nx, ny).

    Attributes:
        k: Bloch vector (2,).
        detuning: (nb,) band energies (omega_k - omega_a)/Gamma_a, nb = 6
            for both blocks.
        decay: (nb,) radiative widths gamma_k/Gamma_a.
        vectors: (6, nb) eigenvectors as columns, full-basis components.
        block: The polarization tag of each slot: BLOCKS, or the block's
            tag nb times.
        in_light_cone: True when the zone-reduced k is inside the light
            cone, |k_reduced| < k0 (see assemble).
        anomalous: True when the k-point needed a light-line nudge.
    """

    k: np.ndarray
    detuning: np.ndarray
    decay: np.ndarray
    vectors: np.ndarray
    block: tuple
    in_light_cone: bool | np.ndarray
    anomalous: bool | np.ndarray = False


# BandSet fields with one entry per k (shaped by k's leading shape).
_PER_K = tuple(f.name for f in fields(BandSet) if f.name != "block")


def assemble(spec: LatticeSpec, k, mode: str = "retarded") -> BlochMatrix:
    """The 6x6 Bloch matrices at k from one lattice-sum call.

    One ewald_sum request with offset 'bloch' returns D_same(k), D_ab(k)
    and D_ba(k) = D_ab(-k) (the dyadic is even, G(-r) = G(r)) from one
    spectral pass, at the lattice-sum layer's own truncation target and
    splitting (LatticeSumRequest defaults). Where no order propagates D_ba
    is conj(D_ab) exactly, so m is Hermitian there up to its -i/2 diagonal
    and the radiation reaction of D_same; where one does, D_ba sums D_ab's
    terms at -k (see latticesums).
    The lattice sums are the only layer that reduces k to the first zone:
    in_light_cone is read off the result's k_reduced.

    Args:
        spec: Lattice geometry.
        k: Bloch vectors, an array (..., 2).
        mode: 'retarded' or 'quasistatic'.

    Returns:
        BlochMatrix with basis ordering (A_x, A_y, A_z, B_x, B_y, B_z),
        and in_light_cone True when |k_reduced| < k0.
    """
    k = np.asarray(k, dtype=float)
    sums = ewald_sum(LatticeSumRequest(spec=spec, k=k, offset="bloch",
                                       mode=mode))
    d_same, d_ab, d_ba = sums.D
    m = np.zeros(k.shape[:-1] + (6, 6), dtype=complex)
    m[..., :3, :3] = d_same
    m[..., 3:, 3:] = d_same
    m[..., :3, 3:] = d_ab
    m[..., 3:, :3] = d_ba
    m *= -1.5
    m -= 0.5j * np.eye(6)
    inside = _norms(sums.k_reduced.reshape(-1, 2)).reshape(k.shape[:-1]) < K0
    return BlochMatrix(m=m, k=k, in_light_cone=inside[()])


def _out_of_plane_pair(m: np.ndarray):
    """The out-of-plane eigenpairs of m (N, 6, 6) in closed form.

    assemble writes D_same into both diagonal blocks, so the block is
    [[a, b], [c, a]] with eigenvalues a -+ s, s = sqrt(bc) the principal
    root: Re s >= 0 puts them in detuning order. The eigenvector of a +- s
    is (b, +-s), or (+-s, c) where |c| > |b|, normalized once; where
    b = c = 0 it is the identity's column.

    Returns:
        (vals, vecs): (N, 2) eigenvalues in detuning order and (N, 2, 2)
        eigenvectors as columns, over the (A_z, B_z) components.
    """
    a, b, c = m[:, 2, 2], m[:, 2, 5], m[:, 5, 2]
    s = np.sqrt(b * c)
    vals = np.empty((len(m), 2), dtype=complex)
    np.subtract(a, s, out=vals[:, 0])
    np.add(a, s, out=vals[:, 1])
    # (p, -+s) with p the longer of b and c, its components swapped where
    # p is c; |s|^2 = |b| |c|
    abs_b, abs_c = np.abs(b), np.abs(c)
    by_c = abs_c > abs_b
    p = np.where(by_c, c, b)
    norm = np.sqrt(np.maximum(abs_b, abs_c) ** 2 + abs_b * abs_c)
    zero = None if norm.all() else norm == 0.0  # b = c = 0
    if zero is not None:
        norm[zero] = 1.0
    vecs = np.empty((len(m), 2, 2), dtype=complex)
    vecs[:, 0] = (p / norm)[:, None]
    np.divide(s, norm, out=vecs[:, 1, 1])
    np.negative(vecs[:, 1, 1], out=vecs[:, 1, 0])
    if by_c.any():
        vecs[by_c] = vecs[by_c, ::-1]
    if zero is not None:
        vecs[zero] = np.eye(2)
    return vals, vecs


def eigensolve(bm: BlochMatrix, block: str | None = None) -> BandSet:
    """Diagonalize Bloch matrices into a BandSet of the same leading shape.

    Each block is solved in one batched pass over the points: with block
    None, the in-plane 4x4 into slots 0-3 and the out-of-plane 2x2 into
    slots 4-5 (the BLOCKS layout); with a block tag, that block alone into
    slots 0 to nb - 1 (nb = 4 or 2), bitwise the block's SLOTS of the full
    solve. The in-plane block is solved densely (np.linalg.eig) and sorted
    by detuning (stable sort). The out-of-plane block [[a, b], [c, a]] is
    solved in closed form, for either block argument: with s = sqrt(bc)
    the principal root, Re s >= 0, so (a - s, a + s) fill its slots in
    detuning order, and the eigenvector of a +- s is (b, +-s), or (+-s, c)
    where |c| > |b|, normalized once; the identity where b = c = 0. Both
    depend on each point alone, so a batch row is bitwise its one-point
    solve. Every eigenpair must satisfy ||m v - lam v|| <= 1e-10 ||m||,
    with m the full 6x6 matrix. The BandSet has anomalous False;
    light-line nudges belong to solve_k.

    Raises:
        ValueError: an unknown block tag.
        EigenFailure: residual bound unmet (naming the first such k).
    """
    if block is not None and block not in SLOTS:
        raise ValueError(f"block must be one of {tuple(SLOTS)} or None, got "
                         f"{block!r}")
    # the slots of each block solved
    layout = SLOTS if block is None else {block: slice(len(_BASIS[block]))}
    nb = 6 if block is None else len(_BASIS[block])
    lead = bm.m.shape[:-2]
    m = bm.m.reshape(-1, 6, 6)
    vals = np.zeros((len(m), nb), dtype=complex)
    vecs = np.zeros((len(m), 6, nb), dtype=complex)
    for tag, slots in layout.items():
        if tag == OUT_OF_PLANE:
            w, v = _out_of_plane_pair(m)
        else:
            w, v = np.linalg.eig(m[_BLOCK[tag]])
            order = np.argsort(w.real, axis=1, kind="stable")
            # column order[n, j] of v[n] into slot j
            w = np.take_along_axis(w, order, axis=1)
            v = np.take_along_axis(v, order[:, None, :], axis=2)
        vals[:, slots] = w
        vecs[:, _BASIS[tag], slots] = v

    r = m @ vecs - vecs * vals[:, None, :]
    res = np.sqrt((r.conj() * r).real.sum(axis=1)).max(axis=1)
    norm_m = _norms(m)
    failed = res > 1e-10 * norm_m
    if failed.any():
        i = int(np.argmax(failed))
        raise EigenFailure(
            f"eigenpair residual {res[i]:.3e} exceeds 1e-10*||m||="
            f"{1e-10 * norm_m[i]:.3e} at k={bm.k.reshape(-1, 2)[i]}"
        )

    return BandSet(
        k=bm.k,
        detuning=vals.real.reshape(lead + (nb,)),
        decay=-2.0 * vals.imag.reshape(lead + (nb,)),
        vectors=vecs.reshape(lead + (6, nb)),
        block=BLOCKS if block is None else (block,) * nb,
        in_light_cone=bm.in_light_cone,
        anomalous=np.zeros(lead, dtype=bool)[()],
    )


def _solve_pass(spec: LatticeSpec, k: np.ndarray, mode: str,
                block: str | None) -> BandSet:
    """solve_k on k (..., 2) of at most _PASS_SIZE points."""
    try:
        bm = assemble(spec, k, mode)
    except RayleighAnomaly as exc:
        moved = np.any(exc.direction != 0.0, axis=-1)
        step = 1e-7 * float(np.linalg.norm(reciprocal(spec).b1))
        bm = assemble(spec, np.where(moved[..., None],
                                     k + step * exc.direction, k), mode)
        return replace(eigensolve(bm, block), k=k, anomalous=moved[()])
    return eigensolve(bm, block)


def solve_k(spec: LatticeSpec, k, mode: str = "retarded",
            block: str | None = None) -> BandSet:
    """Bands at each point of k (..., 2), shaped by k's leading shape.

    With block None the BandSet holds both blocks in the BLOCKS layout;
    with a block tag only that block is diagonalized, and the BandSet
    holds its bands alone (see eigensolve), bitwise the block's SLOTS of
    the full solve. The lattice sums are the same either way.

    A k-point on a light-line (Rayleigh) singularity is moved once by
    1e-7 |b1| along the normal of the grazing order's |k+g| = k0 circle and
    solved there; the BandSet keeps the requested k, carries the eigendata
    of the moved point and has anomalous=True.

    The points are solved in C order in passes of at most _PASS_SIZE,
    stitched into arrays of k's leading shape past one pass. A pass whose
    points touch a light line is assembled again with only those moved, so
    every point is bitwise the one-point solve of its k. A failure raises
    for the whole request, as the one-point solve of the failing k would.
    """
    k = np.asarray(k, dtype=float)
    lead = k.shape[:-1]
    n = math.prod(lead)
    if n <= _PASS_SIZE:
        return _solve_pass(spec, k, mode, block)
    rows = k.reshape((n,) + k.shape[-1:])
    out = {}
    for i in range(0, n, _PASS_SIZE):
        part = _solve_pass(spec, rows[i:i + _PASS_SIZE], mode, block)
        for name in _PER_K:
            value = getattr(part, name)
            if not i:
                out[name] = np.empty(lead + value.shape[1:], value.dtype)
            out[name].reshape((n,) + value.shape[1:])[i:i + _PASS_SIZE] = value
    return replace(part, **out)


def _match_block(prev_vecs, cur_vecs, prev_det, cur_det):
    """Overlap assignment of one block's bands; returns cur column order."""
    o = np.abs(prev_vecs.conj().T @ cur_vecs)
    n = len(prev_det)
    orders = _ORDERS[n]
    order = orders[np.argmax(o[np.arange(n), orders].sum(axis=1))].copy()
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
        path: Iterable of (k, arclength, label) triples (see lattice
            module).
        mode: 'retarded' or 'quasistatic'.

    Returns:
        List of BandSet in the BLOCKS layout, one per sample; the path's
        triples hold each sample's arclength. Each block is detuning-sorted
        at the first sample; from there a slot follows one band by
        eigenvector overlap, so true crossings keep their slots.
    """
    return _connect([solve_k(spec, k, mode) for k, _s, _label in path])


def bands_on_grid(spec: LatticeSpec, kx, ky,
                  mode: str = "retarded") -> BandSet:
    """Energy-ordered band sheets over a rectangular k grid.

    The grid is one solve_k call on the (len(kx), len(ky), 2) array of its
    points, k[i, j] = (kx[i], ky[j]).

    Returns:
        BandSet in the BLOCKS layout whose per-k fields lead with the grid
        shape (len(kx), len(ky)). Each block is detuning-sorted per point;
        light-line points are flagged in the anomalous mask (see solve_k).
    """
    return solve_k(spec, np.stack(np.meshgrid(kx, ky, indexing="ij"),
                                  axis=-1), mode)
