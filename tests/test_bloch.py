"""Bloch-matrix assembly and band-structure invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolebands import (
    EigenFailure,
    IN_PLANE,
    OUT_OF_PLANE,
    assemble,
    bands_on_grid,
    bloch,
    bands_on_path,
    build_lattice,
    eigensolve,
    reciprocal,
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
    # an eigenvalue off by 1e-6 misses the 1e-10 ||m|| residual bound
    def shifted(eig):
        def wrapped(mat):
            vals, vecs = eig(mat)
            return vals + np.eye(len(vals))[0] * 1e-6, vecs
        return wrapped

    if block == "oop":
        monkeypatch.setattr(bloch, "_eig_out_of_plane",
                            shifted(bloch._eig_out_of_plane))
    else:
        monkeypatch.setattr(bloch.np.linalg, "eig",
                            shifted(np.linalg.eig))
    with pytest.raises(EigenFailure, match="residual"):
        eigensolve(assemble(iso_lattice, [7.0, 13.0]))


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
       radius=st.floats(1.1 * K0, 40.0), angle=st.floats(0.0, 2.0 * np.pi))
def test_solve_k_properties(d0, beta, radius, angle):
    spec = build_lattice(d0, beta)
    k = radius * np.array([np.cos(angle), np.sin(angle)])
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
    # reciprocity: m(-k) = m(k)^T
    scale = np.linalg.norm(bm.m)
    np.testing.assert_allclose(assemble(spec, -k).m, bm.m.T, rtol=0,
                               atol=1e-9 * scale)
    # the lattice is mirror symmetric about the anisotropy (x) axis
    mirror = solve_k(spec, [k[0], -k[1]])
    np.testing.assert_allclose(np.sort(mirror.detuning),
                               np.sort(bs.detuning), rtol=0,
                               atol=1e-9 * scale)
