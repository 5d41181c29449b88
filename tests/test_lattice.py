"""Geometry invariants of the anisotropic honeycomb builder."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolebands import (
    BETA_MAX,
    BETA_MIN,
    BetaOutOfRange,
    UnknownLabel,
    build_lattice,
    dispersion,
    dos_histogram,
    reciprocal,
    reduce_to_bz,
    sample_path,
    solve_intracell_distance,
    solve_k,
    standard_path,
)
from dipolebands.bloch import OUT_OF_PLANE
from dipolebands.lattice import K_MAX_FRAC

BETAS = [0.55, 0.7, 0.84, 1.0, 1.2, 1.4]


def test_primitive_lengths_fixed_by_d0():
    for beta in BETAS:
        spec = build_lattice(0.1, beta)
        assert np.linalg.norm(spec.a1) == pytest.approx(
            np.sqrt(3.0) * 0.1, rel=1e-12)
        assert np.linalg.norm(spec.a2) == pytest.approx(
            np.sqrt(3.0) * 0.1, rel=1e-12)


def test_primitive_vectors_independent_of_beta():
    ref = build_lattice(0.1, 1.0)
    for beta in BETAS:
        spec = build_lattice(0.1, beta)
        # bitwise equality: the cell must not drift with anisotropy
        assert np.array_equal(spec.a1, ref.a1)
        assert np.array_equal(spec.a2, ref.a2)


def test_distance_ratio_matches_beta():
    for beta in BETAS:
        spec = build_lattice(0.1, beta)
        assert spec.d_intra / spec.d_inter == pytest.approx(beta, rel=1e-12)


def test_bond_geometry_consistent_with_cell():
    # site B at (-d_intra, 0); its two intercell A neighbours sit at
    # -a1 and -a2, so d_inter = |basis_offset + a1|
    for beta in BETAS:
        spec = build_lattice(0.1, beta)
        b_pos = spec.basis_offset
        assert b_pos[1] == 0.0
        assert b_pos[0] == pytest.approx(-spec.d_intra, rel=1e-12)
        d1 = np.linalg.norm(b_pos + spec.a1)
        d2 = np.linalg.norm(b_pos + spec.a2)
        assert d1 == pytest.approx(spec.d_inter, rel=1e-12)
        assert d2 == pytest.approx(spec.d_inter, rel=1e-12)


def test_intracell_distance_monotone_in_beta():
    ds = [build_lattice(0.1, b).d_intra for b in np.linspace(0.55, 1.45, 19)]
    assert np.all(np.diff(ds) > 0)


def test_solve_intracell_distance_examples():
    assert solve_intracell_distance(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert solve_intracell_distance(1.0, np.sqrt(3.0)) == pytest.approx(
        1.5, rel=1e-3)
    assert solve_intracell_distance(1.0, 0.84) == pytest.approx(
        0.8898, rel=1e-3)


def test_beta_bounds_enforced():
    build_lattice(0.1, BETA_MIN + 1e-6)
    build_lattice(0.1, BETA_MAX - 1e-6)
    with pytest.raises(BetaOutOfRange):
        build_lattice(0.1, BETA_MIN - 1e-3)
    with pytest.raises(BetaOutOfRange):
        build_lattice(0.1, BETA_MAX + 1e-3)
    with pytest.raises(ValueError):
        build_lattice(-0.1, 1.0)


# far below D0_MIN the solve (1e-60, 1e-150) or sample_path overflows, far
# above D0_MAX |a1|^2 does (1e160, 1e308)
@pytest.mark.parametrize("d0", [np.nan, np.inf, -np.inf, 0.0, 1e-60, 1e-150,
                                1e-200, 1e4, 1e160, 1e308])
def test_rejects_non_finite_or_non_positive_d0(d0):
    with pytest.raises(ValueError, match="d0"):
        build_lattice(d0, 1.0)


def test_reciprocal_duality(iso_lattice):
    recip = reciprocal(iso_lattice)
    assert recip.b1 @ iso_lattice.a1 == pytest.approx(2 * np.pi, abs=1e-10)
    assert recip.b1 @ iso_lattice.a2 == pytest.approx(0.0, abs=1e-10)
    assert recip.b2 @ iso_lattice.a1 == pytest.approx(0.0, abs=1e-10)
    assert recip.b2 @ iso_lattice.a2 == pytest.approx(2 * np.pi, abs=1e-10)


def test_high_symmetry_points(iso_lattice):
    recip = reciprocal(iso_lattice)
    d0 = iso_lattice.d0
    np.testing.assert_allclose(recip.Gamma, [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(
        recip.M, [2 * np.pi / (3 * d0), 0.0], rtol=1e-12)
    np.testing.assert_allclose(
        recip.K, [0.0, 4 * np.pi / (3 * np.sqrt(3.0) * d0)], rtol=1e-12,
        atol=1e-12)
    np.testing.assert_allclose(recip.Kprime, -recip.K, rtol=1e-12)
    np.testing.assert_allclose(
        recip.M_top, 0.5 * (recip.b1 - recip.b2), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(recip.M_bottom, -recip.M_top, rtol=1e-12,
                               atol=1e-12)
    # M_top is M shifted by a reciprocal vector
    np.testing.assert_allclose(recip.M_top - recip.M, -recip.b2, rtol=1e-12,
                               atol=1e-10)
    assert recip.point("K")[1] == pytest.approx(24.1839915, rel=1e-6)
    with pytest.raises(UnknownLabel):
        recip.point("X")


def test_standard_path_shape(iso_lattice):
    recip = reciprocal(iso_lattice)
    pts = standard_path(recip, n_per_segment=100)
    assert len(pts) == 4 * 99 + 1
    ks = np.array([p[0] for p in pts])
    ss = np.array([p[1] for p in pts])
    # the figure path is the vertical axis, traversed bottom to top
    assert np.all(np.abs(ks[:, 0]) < 1e-12)
    assert np.all(np.diff(ks[:, 1]) > 0)
    assert np.all(np.diff(ss) > 0)
    labels = [p[2] for p in pts if p[2]]
    assert labels == ["M_bottom", "Kprime", "Gamma", "K", "M_top"]
    np.testing.assert_allclose(ks[0], recip.M_bottom, atol=1e-12)
    np.testing.assert_allclose(ks[-1], recip.M_top, atol=1e-12)


def test_sample_path_validation(iso_lattice):
    recip = reciprocal(iso_lattice)
    with pytest.raises(ValueError):
        sample_path(recip, ["Gamma", "K"], n_per_segment=1)
    with pytest.raises(ValueError):
        sample_path(recip, ["Gamma"], n_per_segment=10)
    with pytest.raises(UnknownLabel):
        sample_path(recip, ["Gamma", "Q"], n_per_segment=10)
    pts = sample_path(recip, ["Gamma", "K", "M_top"], n_per_segment=10)
    assert len(pts) == 2 * 9 + 1
    seg = np.linalg.norm(recip.K - recip.Gamma)
    assert pts[9][1] == pytest.approx(seg, rel=1e-12)


def test_reduce_to_bz(iso_lattice):
    recip = reciprocal(iso_lattice)
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = rng.uniform(-80, 80, size=2)
        kr = reduce_to_bz(recip, k)
        # reduction differs from k by a lattice vector
        diff = k - kr
        coeffs = np.linalg.solve(
            np.column_stack([recip.b1, recip.b2]), diff)
        np.testing.assert_allclose(coeffs, np.round(coeffs), atol=1e-9)
        # and lands no farther from the origin than any neighbour image
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                g = i * recip.b1 + j * recip.b2
                assert np.linalg.norm(kr) <= np.linalg.norm(kr + g) + 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [(1e308, 1e308), (1e20, 3.0), (np.nan, 0.0),
                               (0.0, -np.inf), ((3.0, 4.0), (5e7, 0.0))])
def test_reduce_to_bz_rejects_huge_or_non_finite_k(iso_lattice, k):
    # beyond K_MAX_FRAC |b1| (4.19e7 here) the reduction overflows or is
    # set by rounding; the message names the offending k
    recip = reciprocal(iso_lattice)
    k = np.array(k)
    bad = k if k.ndim == 1 else k[1]
    with pytest.raises(ValueError, match=re.escape(f"k = {bad}")):
        reduce_to_bz(recip, k)
    k_max = 0.999 * K_MAX_FRAC * np.linalg.norm(recip.b1)
    assert np.isfinite(reduce_to_bz(recip, [k_max, -k_max])).all()


def _reduce_to_bz_loop(recip, k):
    """The per-point zone reduction the array version replaced (reference)."""
    k = np.asarray(k, dtype=float)
    b = np.array([recip.b1, recip.b2])
    frac = np.linalg.solve(b.T, k)
    base = np.round(frac)
    best = None
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            cand = k - (base[0] + di) * recip.b1 - (base[1] + dj) * recip.b2
            key = (np.linalg.norm(cand), -cand[0], -cand[1])
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1]


_LANDMARKS = ("Gamma", "K", "Kprime", "M", "M_top", "M_bottom")


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(BETA_MIN, BETA_MAX),
       fracs=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                      min_size=1, max_size=12),
       shifts=st.lists(st.tuples(st.sampled_from(_LANDMARKS),
                                 st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=1, max_size=12))
def test_reduce_to_bz_matches_loop_reference(beta, fracs, shifts):
    recip = reciprocal(build_lattice(0.1, beta))
    b = np.array([recip.b1, recip.b2])
    ks = [np.array(f) @ b for f in fracs]
    # zone corners and edge midpoints, translated by reciprocal vectors:
    # the boundary points where the tie rule decides
    ks += [recip.point(lab) + i * recip.b1 + j * recip.b2
           for lab, i, j in shifts]
    ks = np.array(ks)
    batch = reduce_to_bz(recip, ks)
    assert batch.shape == ks.shape
    for k, kb in zip(ks, batch):
        one = reduce_to_bz(recip, k)
        assert one.shape == (2,)
        assert np.array_equal(one, _reduce_to_bz_loop(recip, k)), k
        assert np.array_equal(kb, one), k


@pytest.mark.parametrize("beta", [0.55, 0.9, 1.0, 1.3])
@pytest.mark.parametrize("k_grid", [60, 80])
def test_dos_grid_keeps_the_reference_zone(monkeypatch, beta, k_grid):
    # the reference zone is one primitive reciprocal cell: solve_k sees its
    # k_grid^2 points (i b1 + j b2)/k_grid, each k once modulo G, so no
    # zone-boundary point is counted twice
    spec = build_lattice(0.1, beta)
    recip = reciprocal(spec)
    # every grid point is handed the same bands; only the k set is compared
    bs = solve_k(spec, recip.K)
    seen = []

    def same_bands(spec, k, *args):
        k = np.reshape(k, (-1, 2))
        seen.extend(k)
        return replace(bs, detuning=np.broadcast_to(bs.detuning, (len(k), 6)))

    monkeypatch.setattr(dispersion, "solve_k", same_bands)
    dos_histogram(spec, OUT_OF_PLANE,
                  (bs.detuning.min() - 1.0, bs.detuning.max() + 1.0),
                  k_grid=k_grid)
    # fractional coordinates along (b1, b2), in units of 1/k_grid
    ij = np.linalg.solve(np.array([recip.b1, recip.b2]).T,
                         np.array(seen).T).T * k_grid
    cells = np.round(ij).astype(int) % k_grid
    assert len(np.unique(cells, axis=0)) == len(seen) == k_grid ** 2
    np.testing.assert_allclose(ij, np.round(ij), rtol=0, atol=1e-9)
