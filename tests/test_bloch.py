"""Bloch-matrix assembly and band-structure invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolebands import (
    BETA_MAX,
    BETA_MIN,
    BlochMatrix,
    EigenFailure,
    IN_PLANE,
    LatticeSumRequest,
    OUT_OF_PLANE,
    RayleighAnomaly,
    assemble,
    bands_on_grid,
    bloch,
    bands_on_path,
    build_lattice,
    eigensolve,
    ewald_sum,
    reciprocal,
    reduce_to_bz,
    solve_k,
)
from dipolebands.greens import K0
from tests.conftest import spectrum


def test_polarization_blocks_decouple(iso_lattice):
    m = assemble(iso_lattice, [9.0, 5.0]).m
    scale = np.linalg.norm(m)
    z_rows = [2, 5]
    xy_cols = [0, 1, 3, 4]
    assert np.linalg.norm(m[np.ix_(z_rows, xy_cols)]) < 1e-12 * scale
    assert np.linalg.norm(m[np.ix_(xy_cols, z_rows)]) < 1e-12 * scale


def test_sublattice_structure(iso_lattice):
    bm = assemble(iso_lattice, [9.0, 5.0])
    m = bm.m
    # identical same-site blocks on both sublattices
    np.testing.assert_allclose(m[:3, :3], m[3:, 3:], rtol=0, atol=1e-15)
    # single-emitter pole on the diagonal
    d_same = (m[:3, :3] + 0.5j * np.eye(3)) / -1.5
    assert np.allclose(m[:3, :3], -1.5 * d_same - 0.5j * np.eye(3))


def test_trace_and_determinant_oracle(iso_lattice):
    # eigensolve must reproduce the invariants of the assembled matrix
    bm = assemble(iso_lattice, [11.0, 3.0])
    bs = eigensolve(bm)
    lams = bs.detuning - 0.5j * bs.decay
    assert np.sum(lams) == pytest.approx(np.trace(bm.m), rel=1e-10)
    assert np.prod(lams) == pytest.approx(np.linalg.det(bm.m), rel=1e-8)


def test_eigenpair_residuals(iso_lattice):
    bm = assemble(iso_lattice, [7.0, 13.0])
    bs = eigensolve(bm)
    lams = bs.detuning - 0.5j * bs.decay
    for j in range(6):
        res = np.linalg.norm(bm.m @ bs.vectors[:, j] - lams[j] * bs.vectors[:, j])
        assert res <= 1e-10 * np.linalg.norm(bm.m)


@pytest.mark.parametrize("block", ["oop", "ip"])
def test_eigen_failure_on_inaccurate_pair(iso_lattice, monkeypatch, block):
    # an eigenvalue off by 1e-6 in one block's solves (2x2 out-of-plane,
    # 4x4 in-plane) misses the 1e-10 ||m|| residual bound
    size = 2 if block == "oop" else 4
    eig = np.linalg.eig

    def shifted(mat):
        vals, vecs = eig(mat)
        if mat.shape[-1] == size:
            vals = vals + np.eye(size)[0] * 1e-6
        return vals, vecs

    monkeypatch.setattr(bloch.np.linalg, "eig", shifted)
    with pytest.raises(EigenFailure, match="residual"):
        eigensolve(assemble(iso_lattice, [7.0, 13.0]))


def test_eigensolve_diagonal_and_defective_out_of_plane_blocks(iso_lattice):
    # hand-built rows whose 2x2 out-of-plane block [[a, b], [c, a]] is
    # generic, diagonal (b = c = 0) or defective (b = 0, c != 0): every
    # eigenpair meets the residual bound, and each batch row is bitwise its
    # one-point solve
    m = assemble(iso_lattice, [7.0, 13.0]).m
    rows = np.array([m, m, m])
    rows[1, 2, 5] = rows[1, 5, 2] = 0.0
    rows[2, 2, 5] = 0.0
    ks = np.zeros((3, 2))
    batch = eigensolve(BlochMatrix(m=rows, k=ks,
                                   in_light_cone=np.zeros(3, bool)))
    a = rows[1, 2, 2]
    assert batch.detuning[1, 4] == batch.detuning[1, 5] == a.real
    for n, mat in enumerate(rows):
        lams = batch.detuning[n] - 0.5j * batch.decay[n]
        vecs = batch.vectors[n]
        for j in range(6):
            res = np.linalg.norm(mat @ vecs[:, j] - lams[j] * vecs[:, j])
            assert res <= 1e-10 * np.linalg.norm(mat)
        one = eigensolve(BlochMatrix(m=mat, k=ks[n], in_light_cone=False))
        for name in ("detuning", "decay", "vectors"):
            assert np.array_equal(getattr(batch, name)[n], getattr(one, name))


def test_quasistatic_decay_is_single_emitter_rate():
    spec = build_lattice(0.1, 0.9)
    for k in ([11.0, 7.0], [0.3, 0.2], reciprocal(spec).K):
        bs = eigensolve(assemble(spec, k, mode="quasistatic"))
        np.testing.assert_allclose(bs.decay, 1.0, rtol=0, atol=1e-12)


def test_gamma_point_isotropic_doublets(iso_lattice):
    # sixfold symmetry at beta = 1 forces the four in-plane bands into two
    # exact doublets at Gamma while the out-of-plane pair stays split
    bs = eigensolve(assemble(iso_lattice, [0.0, 0.0]))
    ip = np.sort([bs.detuning[j] for j in range(6) if bs.block[j] == IN_PLANE])
    oop = np.sort([bs.detuning[j] for j in range(6)
                   if bs.block[j] == OUT_OF_PLANE])
    assert ip[1] - ip[0] == pytest.approx(0.0, abs=1e-9)
    assert ip[3] - ip[2] == pytest.approx(0.0, abs=1e-9)
    assert ip[2] - ip[1] > 1.0
    assert oop[1] - oop[0] > 1.0
    # frozen regression values for the doublet centers
    assert ip[0] == pytest.approx(-7.013404434472634, rel=1e-9)
    assert ip[2] == pytest.approx(4.840349657224856, rel=1e-9)


def test_gamma_point_superradiant_and_dark(iso_lattice):
    # at k = 0 the two dipole-allowed in-plane modes superradiate and the
    # remaining modes go dark
    bs = eigensolve(assemble(iso_lattice, [0.0, 0.0]))
    decays = np.sort(bs.decay)
    assert decays[-1] > 10.0
    assert decays[-2] > 10.0
    assert np.all(decays[:4] < 1.0)


def test_spectrum_even_under_k_inversion():
    spec = build_lattice(0.1, 0.8)
    k = np.array([6.0, 10.0])
    sp = spectrum(spec, k)
    sm = spectrum(spec, -k)
    np.testing.assert_allclose(sm, sp, rtol=1e-10, atol=1e-12)


def test_k_and_kprime_spectra_coincide_at_unit_beta(iso_lattice):
    recip = reciprocal(iso_lattice)
    sk = spectrum(iso_lattice, recip.K)
    skp = spectrum(iso_lattice, recip.Kprime)
    np.testing.assert_allclose(skp, sk, rtol=1e-10, atol=1e-12)


def test_unit_beta_dirac_contacts_at_k(iso_lattice):
    recip = reciprocal(iso_lattice)
    bs = solve_k(iso_lattice, recip.K)
    oop = bs.detuning[np.array(bs.block) == OUT_OF_PLANE]
    ip = bs.detuning[np.array(bs.block) == IN_PLANE]
    assert oop[1] - oop[0] < 1e-6
    assert ip[2] - ip[1] < 1e-6


def test_subradiant_bands_outside_light_cone(iso_lattice):
    recip = reciprocal(iso_lattice)
    ts = np.linspace(0.35, 1.0, 12)
    for t in ts:
        k = recip.K + (recip.M_top - recip.K) * t
        if np.linalg.norm(k) < 1.1 * 2 * np.pi:
            continue
        bs = eigensolve(assemble(iso_lattice, k))
        assert not bs.in_light_cone
        assert np.min(bs.decay) < 1e-6


def test_quasistatic_tracks_retarded_far_outside_cone(iso_lattice):
    # beyond the radiative neighborhood the two modes agree to within a
    # modest fraction of the band range
    recip = reciprocal(iso_lattice)
    pts = [recip.K + (recip.M_top - recip.K) * t
           for t in np.linspace(0.5, 1.0, 9)]
    ret = np.array([spectrum(iso_lattice, k, "retarded") for k in pts])
    qs = np.array([spectrum(iso_lattice, k, "quasistatic") for k in pts])
    band_range = ret.max() - ret.min()
    assert np.max(np.abs(ret - qs)) < 0.10 * band_range


def test_band_connection_closes_on_loop(iso_lattice):
    # following a closed loop that encircles no degeneracy returns every
    # band slot to its starting energy
    center = np.array([14.0, 10.0])
    angles = np.linspace(0.0, 2 * np.pi, 33)
    loop = [center + 1.5 * np.array([np.cos(a), np.sin(a)]) for a in angles]
    bands = bands_on_path(iso_lattice, loop)
    first, last = bands[0], bands[-1]
    np.testing.assert_allclose(last.detuning, first.detuning, rtol=0,
                               atol=1e-8)
    assert last.block == first.block


def test_path_accepts_labeled_points(iso_lattice):
    from dipolebands import standard_path

    recip = reciprocal(iso_lattice)
    pts = standard_path(recip, n_per_segment=4)
    bands = bands_on_path(iso_lattice, pts)
    assert len(bands) == len(pts)
    ss = [b.arclength for b in bands]
    assert np.all(np.diff(ss) > 0)


def test_grid_matches_single_point_solve(iso_lattice):
    k = np.array([9.0, 16.0])
    grid = bands_on_grid(iso_lattice, [k[0]], [k[1]])
    bs = eigensolve(assemble(iso_lattice, k))
    ip = np.sort([bs.detuning[j] for j in range(6) if bs.block[j] == IN_PLANE])
    oop = np.sort([bs.detuning[j] for j in range(6)
                   if bs.block[j] == OUT_OF_PLANE])
    np.testing.assert_allclose(grid.detuning[0, 0, :4], ip, rtol=1e-12)
    np.testing.assert_allclose(grid.detuning[0, 0, 4:], oop, rtol=1e-12)
    assert grid.block == (IN_PLANE,) * 4 + (OUT_OF_PLANE,) * 2


def test_grid_inversion_symmetry():
    spec = build_lattice(0.1, 0.75)
    kx = np.linspace(-16.0, 16.0, 5)
    ky = np.linspace(-12.0, 12.0, 5)
    grid = bands_on_grid(spec, kx, ky)
    flipped = grid.detuning[::-1, ::-1, :]
    np.testing.assert_allclose(flipped, grid.detuning, rtol=1e-9, atol=1e-9)


def test_grid_flags_light_line_nudge(iso_lattice):
    grid = bands_on_grid(iso_lattice, [2.0 * np.pi], [0.0])
    assert grid.anomalous[0, 0]
    assert np.all(np.isfinite(grid.detuning))
    clean = bands_on_grid(iso_lattice, [9.0], [16.0])
    assert not clean.anomalous[0, 0]


def test_light_cone_flag(iso_lattice):
    inside = eigensolve(assemble(iso_lattice, [0.5, 0.5]))
    assert inside.in_light_cone
    outside = eigensolve(assemble(iso_lattice, reciprocal(iso_lattice).K))
    assert not outside.in_light_cone
    # the flag belongs to the zone-reduced k: k and k + b1 share it
    k = np.array([0.5, 0.3])
    shifted = solve_k(iso_lattice, reciprocal(iso_lattice).b1 + k)
    near = solve_k(iso_lattice, k)
    assert near.in_light_cone and shifted.in_light_cone
    np.testing.assert_allclose(shifted.decay, near.decay, rtol=1e-9)


def test_grid_refinement_converges_near_k(iso_lattice):
    # min out-of-plane gap over nested grids around K shrinks toward the
    # contact as resolution doubles
    recip = reciprocal(iso_lattice)
    kc = recip.K
    gaps = []
    for n in (6, 12, 24):
        kx = np.linspace(kc[0] - 1.0, kc[0] + 1.0, n)
        ky = np.linspace(kc[1] - 1.0, kc[1] + 1.0, n)
        grid = bands_on_grid(iso_lattice, kx, ky)
        gaps.append(float(np.min(grid.detuning[:, :, 5]
                                 - grid.detuning[:, :, 4])))
    assert gaps[1] <= gaps[0]
    assert gaps[2] <= gaps[1]
    assert gaps[2] < 0.2


@settings(max_examples=20, deadline=None)
@given(d0=st.floats(0.08, 0.2), beta=st.floats(0.55, 1.3),
       radius=st.floats(1.1 * K0, 40.0), angle=st.floats(0.0, 2.0 * np.pi),
       shift=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_solve_k_properties(d0, beta, radius, angle, shift):
    spec = build_lattice(d0, beta)
    k = radius * np.array([np.cos(angle), np.sin(angle)])
    # the light cone is read off the same-site sum's zone reduction, at k
    # and at the zone vertices moved by a reciprocal vector
    recip = reciprocal(spec)
    g = shift[0] * recip.b1 + shift[1] * recip.b2
    for kk in (k, *(recip.point(p) + g for p in
                    ("Gamma", "M", "K", "Kprime", "M_top", "M_bottom"))):
        reduced = reduce_to_bz(recip, kk)
        same = ewald_sum(LatticeSumRequest(spec=spec, k=kk))
        assert np.array_equal(same.k_reduced, reduced)
        assert assemble(spec, kk).in_light_cone == bool(
            np.linalg.norm(reduced) < K0)
    # the single solve path is exactly assemble + eigensolve off the light
    # line
    bs = solve_k(spec, k)
    bm = assemble(spec, k)
    ref = eigensolve(bm)
    assert not bs.anomalous
    for name in ("k", "detuning", "decay", "vectors"):
        np.testing.assert_array_equal(getattr(bs, name), getattr(ref, name))
    assert bs.block == ref.block
    assert bs.in_light_cone == ref.in_light_cone
    # one slot layout: in-plane slots 0-3, out-of-plane 4-5, each sorted
    assert bs.block == bloch.BLOCKS
    for slots in bloch.SLOTS.values():
        assert np.all(np.diff(bs.detuning[slots]) >= 0.0)
    # reciprocity: m(-k) = m(k)^T, exact in the coupling blocks since
    # D_ba(k) is summed as D_ab(-k)
    scale = np.linalg.norm(bm.m)
    flipped, want = assemble(spec, -k).m, bm.m.T
    for block in (np.s_[:3, :3], np.s_[3:, 3:]):
        np.testing.assert_allclose(flipped[block], want[block], rtol=0,
                                   atol=1e-9 * scale)
    for block in (np.s_[:3, 3:], np.s_[3:, :3]):
        assert np.array_equal(flipped[block], want[block])
    # both mirrors of the lattice: ky -> -ky flips p_y (sites A and B lie on
    # the x axis); kx -> -kx swaps A and B and flips p_x
    flip_x = np.diag([-1.0, 1.0, 1.0])
    swap = np.block([[np.zeros((3, 3)), flip_x], [flip_x, np.zeros((3, 3))]])
    flip_y = np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    tol = 1e-12 * np.abs(bm.m).max()
    for image, op in (([k[0], -k[1]], flip_y), ([-k[0], k[1]], swap)):
        assert np.abs(assemble(spec, image).m - op @ bm.m @ op).max() <= tol
        np.testing.assert_allclose(solve_k(spec, image).detuning,
                                   bs.detuning, rtol=0, atol=tol)


# -- batches of k ---------------------------------------------------------------

_VERTICES = ("K", "Kprime", "M", "M_top", "M_bottom", "Gamma")


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return exc


def _assert_same_error(got, want):
    assert isinstance(want, Exception), want
    assert type(got) is type(want) and str(got) == str(want), (got, want)


@settings(max_examples=25, deadline=None)
@given(d0=st.floats(0.05, 0.3), beta=st.floats(BETA_MIN, BETA_MAX),
       mode=st.sampled_from(("retarded", "quasistatic")),
       fracs=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                      min_size=1, max_size=6),
       vertex=st.sampled_from(_VERTICES),
       shift=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       phi=st.floats(0.0, 2.0 * np.pi), at=st.integers(0, 7))
def test_batch_rows_match_one_point_calls(d0, beta, mode, fracs, vertex, shift,
                                          phi, at):
    # k inside and outside the first zone, a zone vertex moved by a
    # reciprocal vector, and one row on the light line (|k| = k0); every
    # row of a batch is bitwise its one-point call
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    g = shift[0] * recip.b1 + shift[1] * recip.b2
    ks = [f0 * recip.b1 + f1 * recip.b2 for f0, f1 in fracs]
    ks.append(recip.point(vertex) + g)
    light = min(at, len(ks))
    ks.insert(light, K0 * np.array([np.cos(phi), np.sin(phi)]))
    ks = np.array(ks)
    retarded = mode == "retarded"
    # the light-line row makes a retarded lattice sum raise; check the
    # sums without it
    sum_ks = np.delete(ks, light, axis=0) if retarded else ks

    for offset in ("same", "a_to_b", "b_to_a"):
        def one(k):
            return ewald_sum(LatticeSumRequest(spec=spec, k=k, offset=offset,
                                               mode=mode))
        batch = one(sum_ks)
        for n, k in enumerate(sum_ks):
            row = one(k)
            assert np.array_equal(batch.D[n], row.D)
            assert np.array_equal(batch.k_reduced[n], row.k_reduced)
            assert batch.n_propagating[n] == row.n_propagating
        if retarded:
            got = _outcome(lambda: one(ks))
            want = _outcome(lambda: one(ks[light]))
            assert isinstance(want, RayleighAnomaly)
            _assert_same_error(got, want)
            assert np.array_equal(got.direction[light], want.direction)
            assert not np.delete(got.direction, light, axis=0).any()

    batch = solve_k(spec, ks, mode)
    for n, k in enumerate(ks):
        row = solve_k(spec, k, mode)
        for name in ("k", "detuning", "decay", "vectors"):
            assert np.array_equal(getattr(batch, name)[n], getattr(row, name))
        assert batch.in_light_cone[n] == row.in_light_cone
        assert batch.anomalous[n] == row.anomalous
    assert batch.anomalous[light] == retarded

    # a row that fails fails the batch as its one-point call does
    bad = ks.copy()
    bad[-1, 1] = np.nan
    _assert_same_error(_outcome(lambda: solve_k(spec, bad, mode)),
                       _outcome(lambda: solve_k(spec, bad[-1], mode)))


def test_batch_splits_into_passes(iso_lattice, monkeypatch):
    # a batch longer than one pass gives the rows of the passes in order
    monkeypatch.setattr(bloch, "_PASS_SIZE", 2)
    recip = reciprocal(iso_lattice)
    ks = np.array([recip.K, recip.M, [2.0 * np.pi, 0.0], [9.0, 16.0],
                   [0.5, 0.3]])
    batch = solve_k(iso_lattice, ks)
    assert batch.detuning.shape == (5, 6)
    assert list(batch.anomalous) == [False, False, True, False, False]
    for n, k in enumerate(ks):
        assert np.array_equal(batch.vectors[n],
                              solve_k(iso_lattice, k).vectors)


@settings(max_examples=20, deadline=None)
@given(d0=st.floats(0.08, 0.2), beta=st.floats(0.55, 1.3),
       fracs=st.lists(st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
                      min_size=1, max_size=8))
def test_batch_symmetry_and_reciprocity(d0, beta, fracs):
    # outside the light cone, on one batch of random k
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    ks = np.array([f0 * recip.b1 + f1 * recip.b2 for f0, f1 in fracs])
    ks = ks[np.linalg.norm(reduce_to_bz(recip, ks), axis=1) > 1.1 * K0]
    if not len(ks):
        return

    def sums(offset):
        return ewald_sum(LatticeSumRequest(spec=spec, k=ks, offset=offset)).D

    same, a_to_b, b_to_a = sums("same"), sums("a_to_b"), sums("b_to_a")
    # D_same is Hermitian once the radiation reaction of the excluded R = 0
    # term, -i k0/(6 pi) on the diagonal, is taken out; D_ba = D_ab^H
    herm = same + 1j * K0 / (6.0 * np.pi) * np.eye(3)
    for n in range(len(ks)):
        scale = np.abs(same[n]).max()
        assert np.abs(herm[n] - herm[n].conj().T).max() <= 1e-12 * scale
        assert (np.abs(b_to_a[n] - a_to_b[n].conj().T).max()
                <= 1e-12 * np.abs(a_to_b[n]).max())
    np.testing.assert_allclose(solve_k(spec, ks).decay, 0.0, rtol=0,
                               atol=1e-12)
    bm, flipped = assemble(spec, ks), assemble(spec, -ks)
    z, xy = [2, 5], [0, 1, 3, 4]
    assert not bm.m[:, z][:, :, xy].any()
    assert not bm.m[:, xy][:, :, z].any()
    for n in range(len(ks)):
        # reciprocity: m(-k) = m(k)^T, exact in the coupling blocks
        want = bm.m[n].T
        for block in (np.s_[:3, :3], np.s_[3:, 3:]):
            assert (np.abs(flipped.m[n][block] - want[block]).max()
                    <= 1e-12 * np.abs(bm.m[n]).max())
        for block in (np.s_[:3, 3:], np.s_[3:, :3]):
            assert np.array_equal(flipped.m[n][block], want[block])
