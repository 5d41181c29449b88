"""Bloch-matrix assembly and band-structure invariants."""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
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
    latticesums,
    reciprocal,
    reduce_to_bz,
    solve_k,
)
from dipolebands.greens import K0
from tests.conftest import minus_k_sum, spectrum


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
    # an eigenvalue off by 1e-6 in one block's solves (the 2x2 out-of-plane
    # closed form, the 4x4 in-plane eig) misses the 1e-10 ||m|| residual
    # bound
    size = 2 if block == "oop" else 4
    solve = bloch._out_of_plane_pair if block == "oop" else np.linalg.eig

    def shifted(mat):
        vals, vecs = solve(mat)
        return vals + np.eye(size)[0] * 1e-6, vecs

    if block == "oop":
        monkeypatch.setattr(bloch, "_out_of_plane_pair", shifted)
    else:
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


def _eig_pairs(blocks):
    """np.linalg.eig of each 2x2 block, sorted by detuning (stable), as
    eigensolve sorted them before the closed form (reference)."""
    w, v = np.linalg.eig(blocks)
    order = np.argsort(w.real, axis=1, kind="stable")
    return (np.take_along_axis(w, order, axis=1),
            np.take_along_axis(v, order[:, None, :], axis=2))


@settings(max_examples=30, deadline=None)
@given(d0=st.floats(0.05, 0.4), beta=st.floats(BETA_MIN, BETA_MAX),
       mode=st.sampled_from(("retarded", "quasistatic")),
       fracs=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                      min_size=1, max_size=6))
def test_out_of_plane_closed_form_matches_eig(d0, beta, mode, fracs):
    # the closed-form pair against eig of the same 2x2 block, within
    # 1e-14 ||m||: eigenvalues, and eigenvectors up to phase (within
    # 1e-14 ||m|| over the pair's gap, their sensitivity); with hand-built
    # diagonal (b = c = 0) and defective (c = 0) rows
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    ks = np.array([f0 * recip.b1 + f1 * recip.b2 for f0, f1 in fracs])
    try:
        m = assemble(spec, ks, mode).m
    except RayleighAnomaly:
        reject()
    diagonal, defective = m.copy(), m.copy()
    diagonal[:, 2, 5] = diagonal[:, 5, 2] = 0.0
    defective[:, 5, 2] = 0.0
    rows = np.concatenate([m, diagonal, defective])
    vals, vecs = bloch._out_of_plane_pair(rows)
    want, want_vecs = _eig_pairs(rows[bloch._BLOCK[OUT_OF_PLANE]])
    n = len(m)
    for i, mat in enumerate(rows):
        tol = 1e-14 * np.linalg.norm(mat)
        assert np.abs(vals[i] - want[i]).max() <= tol
        gap = abs(vals[i, 1] - vals[i, 0])
        for j in range(2):
            v, w = vecs[i][:, j], want_vecs[i][:, j]
            phase = np.vdot(w, v) / abs(np.vdot(w, v))
            assert np.linalg.norm(v - phase * w) * gap <= tol
    a = rows[n:2 * n, 2, 2]
    assert np.array_equal(vals[n:2 * n], np.stack([a, a], axis=1))
    assert np.array_equal(vecs[n:2 * n], np.broadcast_to(np.eye(2), (n, 2, 2)))
    # the defective pair's two vectors are both (b, 0) normalized
    assert not vecs[2 * n:, 1].any()
    np.testing.assert_allclose(np.abs(vecs[2 * n:, 0]), 1.0, rtol=0,
                               atol=1e-15)


@pytest.mark.parametrize("mode", ["retarded", "quasistatic"])
@pytest.mark.parametrize("d0", [0.1, 0.4])
def test_mixed_batch_rows_are_one_point_solves(d0, mode):
    # one batch of rows where an order propagates (near Gamma), rows where
    # none does, and the zone-boundary ties M, M_top and M_bottom, which
    # lie inside the light cone at d0 0.4 and outside it at d0 0.1: each row
    # is bitwise its one-point solve_k, cold, then in the pass that stores
    # its beta-free half, then read from that half at another beta
    recip = reciprocal(build_lattice(d0, 0.9))
    ks = np.array([[0.5, 0.3], recip.M, recip.M_top, recip.M_bottom,
                   recip.M + recip.b1, recip.K,
                   0.3 * recip.b1 + 0.2 * recip.b2, [-9.0, 16.0]])
    prop = ewald_sum(LatticeSumRequest(spec=build_lattice(d0, 0.9), k=ks,
                                       mode=mode)).n_propagating > 0
    assert prop[0] == (mode == "retarded")
    assert prop[1:4].all() == (mode == "retarded" and d0 == 0.4)
    latticesums._PASS_HALVES.clear()
    latticesums._PASS_KEYS.clear()
    for beta in (0.9, 0.9, 0.95):
        spec = build_lattice(d0, beta)
        batch = solve_k(spec, ks, mode)
        for n, k in enumerate(ks):
            one = solve_k(spec, k, mode)
            for name in bloch._PER_K:
                assert np.array_equal(getattr(batch, name)[n],
                                      getattr(one, name)), (beta, n, name)
    assert ks.tobytes() in [key[-1] for key in latticesums._PASS_HALVES]


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
    loop = [(center + 1.5 * np.array([np.cos(a), np.sin(a)]), 0.0, "")
            for a in angles]
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
    ss = [s for _k, s, _label in pts]
    assert np.all(np.diff(ss) > 0)


def _match_block_lsa(prev_vecs, cur_vecs, prev_det, cur_det):
    """The band matching by scipy's assignment solver that the search over
    every column order replaced (reference)."""
    from scipy.optimize import linear_sum_assignment

    o = np.abs(prev_vecs.conj().T @ cur_vecs)
    n = len(prev_det)
    row, col = linear_sum_assignment(-o)
    order = np.empty(n, dtype=int)
    order[row] = col
    for i in range(n):
        for j in range(i + 1, n):
            ci, cj = order[i], order[j]
            gain = abs(o[i, ci] + o[j, cj] - o[i, cj] - o[j, ci])
            if gain < bloch.TIE_THRESHOLD and (
                    (prev_det[i] - prev_det[j]) * (cur_det[ci] - cur_det[cj])
                    < 0):
                order[i], order[j] = cj, ci
    return order


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1),
       noise=st.floats(0.0, 2.0))
def test_band_matching_matches_assignment_solver(n, seed, noise):
    # cur: the columns of prev shuffled, mixed by noise and re-normalized
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    prev = np.linalg.qr(normal(n, n))[0]
    cur = prev[:, rng.permutation(n)] + noise * normal(n, n)
    cur /= np.linalg.norm(cur, axis=0)
    prev_det, cur_det = rng.normal(size=n), rng.normal(size=n)
    np.testing.assert_array_equal(
        bloch._match_block(prev, cur, prev_det, cur_det),
        _match_block_lsa(prev, cur, prev_det, cur_det))


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


def _assert_coupling_reciprocity(spec, k, m, flipped, mode="retarded"):
    """The coupling blocks of m = m(k) and flipped = m(-k) at one k.

    Where an order propagates, D_ba(k) is summed as D_ab(-k), so m(-k) =
    m(k)^T holds in both coupling blocks bit for bit. Elsewhere D_ba(k) is
    conj(D_ab(k)), bit for bit (m is Hermitian there), which lies within
    the rounding bound 16 u sum|terms| of the one-point a_to_b sum at -k
    (times the coupling prefactor 3/2 of m).
    """
    coupling = (np.s_[:3, 3:], np.s_[3:, :3])
    prop = ewald_sum(LatticeSumRequest(spec=spec, k=k, mode=mode)
                     ).n_propagating > 0
    if prop:
        for block in coupling:
            assert np.array_equal(flipped[block], m.T[block])
        return
    assert np.array_equal(m[3:, :3], m[:3, 3:].conj())
    assert np.array_equal(flipped[3:, :3], flipped[:3, 3:].conj())
    minus, bound = minus_k_sum(spec, k, mode)
    assert np.linalg.norm(flipped[:3, 3:] - m.T[:3, 3:]) <= 1.5 * bound
    assert np.linalg.norm(-1.5 * minus.D - m.T[:3, 3:]) <= 1.5 * bound


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
    # reciprocity: m(-k) = m(k)^T (see _assert_coupling_reciprocity)
    scale = np.linalg.norm(bm.m)
    flipped, want = assemble(spec, -k).m, bm.m.T
    for block in (np.s_[:3, :3], np.s_[3:, 3:]):
        np.testing.assert_allclose(flipped[block], want[block], rtol=0,
                                   atol=1e-9 * scale)
    _assert_coupling_reciprocity(spec, k, bm.m, flipped)
    # both mirrors of the lattice: m(kx, -ky) = U m U, m(-kx, ky) = S m S
    tol = 1e-12 * np.abs(bm.m).max()
    for image, op in (([k[0], -k[1]], bloch.MIRROR_U),
                      ([-k[0], k[1]], bloch.MIRROR_S)):
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
# d0 1 and 2.5: several orders propagate at each k
@example(d0=1.0, beta=1.0, mode="retarded",
         fracs=[(0.05, 0.1), (0.2, -0.15), (0.7, 0.4), (-1.2, 0.3)],
         vertex="K", shift=(1, -1), phi=0.7, at=2)
@example(d0=2.5, beta=0.8, mode="retarded",
         fracs=[(0.02, 0.03), (0.3, 0.1), (-0.4, 1.1)],
         vertex="M", shift=(0, 2), phi=2.0, at=0)
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


def _bits(a):
    return np.shape(a), np.asarray(a).tobytes()


def test_grid_shaped_k_is_its_flat_batch(iso_lattice, monkeypatch):
    # per-k fields follow k's leading shape: an (nx, ny, 2) request, in one
    # pass and in passes of 2, is bitwise its flat batch, bands_on_grid and
    # the one-point solve at each k; the light-line point (2 pi, 0), in the
    # second pass of 2, keeps its requested k
    kx, ky = np.array([9.0, 2.0 * np.pi, 0.5]), np.array([16.0, 0.0])
    k = np.stack(np.meshgrid(kx, ky, indexing="ij"), axis=-1)
    whole = solve_k(iso_lattice, k)
    monkeypatch.setattr(bloch, "_PASS_SIZE", 2)
    grid = solve_k(iso_lattice, k)
    flat = solve_k(iso_lattice, k.reshape(-1, 2))
    on_grid = bands_on_grid(iso_lattice, kx, ky)
    for name in bloch._PER_K:
        want = getattr(flat, name)
        got = getattr(grid, name)
        assert got.shape == (3, 2) + want.shape[1:]
        assert _bits(got.reshape(want.shape)) == _bits(want)
        for other in (whole, on_grid):
            assert _bits(getattr(other, name)) == _bits(got)
        for idx in np.ndindex(3, 2):
            assert _bits(got[idx]) == \
                _bits(getattr(solve_k(iso_lattice, k[idx]), name))
    assert grid.anomalous.tolist() == [[False, False], [False, True],
                                       [False, False]]
    assert grid.k[1, 1].tolist() == [2.0 * np.pi, 0.0]
    assert grid.in_light_cone[2, 1] and not grid.in_light_cone[0, 0]


def test_one_point_flags_are_numpy_scalars(iso_lattice):
    one = solve_k(iso_lattice, [2.0 * np.pi, 0.0])
    assert isinstance(one.anomalous, np.bool_) and one.anomalous
    assert isinstance(one.in_light_cone, np.bool_)
    sums = ewald_sum(LatticeSumRequest(spec=iso_lattice, k=[0.5, 0.3]))
    assert isinstance(sums.n_propagating, np.integer)
    assert sums.n_propagating >= 1


@settings(max_examples=25, deadline=None)
@given(d0=st.floats(0.05, 0.3), beta=st.floats(BETA_MIN, BETA_MAX),
       mode=st.sampled_from(("retarded", "quasistatic")),
       fracs=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                      max_size=4),
       phi=st.floats(0.0, 2.0 * np.pi), at=st.integers(0, 5))
def test_block_solve_is_the_full_solves_slots(d0, beta, mode, fracs, phi, at):
    # one block alone is bitwise its slots of the full solve: in a batch
    # with the zone-boundary tie M and a row on the light line (nudged in
    # retarded mode), and at each row alone
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    ks = [f0 * recip.b1 + f1 * recip.b2 for f0, f1 in fracs] + [recip.M]
    light = min(at, len(ks))
    ks.insert(light, K0 * np.array([np.cos(phi), np.sin(phi)]))
    ks = np.array(ks)

    def bits(a):
        return np.shape(a), np.asarray(a).tobytes()

    for k in (ks, *ks):
        full = solve_k(spec, k, mode)
        for tag, slots in bloch.SLOTS.items():
            got = solve_k(spec, k, mode, block=tag)
            assert got.block == full.block[slots]
            for name in ("detuning", "decay", "vectors"):
                assert bits(getattr(got, name)) == \
                    bits(getattr(full, name)[..., slots])
            for name in ("k", "anomalous", "in_light_cone"):
                assert bits(getattr(got, name)) == bits(getattr(full, name))
    assert solve_k(spec, ks, mode, OUT_OF_PLANE).anomalous[light] == \
        (mode == "retarded")


def test_unknown_block_is_rejected(iso_lattice):
    with pytest.raises(ValueError, match="block"):
        solve_k(iso_lattice, [1.0, 2.0], block="z")


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
        # reciprocity: m(-k) = m(k)^T
        want = bm.m[n].T
        for block in (np.s_[:3, :3], np.s_[3:, 3:]):
            assert (np.abs(flipped.m[n][block] - want[block]).max()
                    <= 1e-12 * np.abs(bm.m[n]).max())
        _assert_coupling_reciprocity(spec, ks[n], bm.m[n], flipped.m[n])
