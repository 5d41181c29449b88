"""Dyadic Green's function: closed forms, oracles, pair couplings."""

import numpy as np
import pytest

from dipolebands import (
    CouplingPair,
    ZeroDisplacement,
    coupling,
    green_quasistatic,
    green_retarded,
)
from dipolebands.greens import K0


def scalar_green(r: np.ndarray) -> complex:
    rn = np.linalg.norm(r)
    return np.exp(1j * K0 * rn) / (4 * np.pi * rn)


def hessian_green(r: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of the scalar Helmholtz Green function."""
    h = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            ea = np.zeros(3)
            eb = np.zeros(3)
            ea[a] = step
            eb[b] = step
            h[a, b] = (
                scalar_green(r + ea + eb)
                - scalar_green(r + ea - eb)
                - scalar_green(r - ea + eb)
                + scalar_green(r - ea - eb)
            ) / (4 * step * step)
    return h


def test_dyadic_from_scalar_green_oracle():
    # G = (I + grad grad / k0^2) g(r), Hessian by central differences
    rng = np.random.default_rng(42)
    for _ in range(50):
        r = rng.normal(size=3)
        r *= rng.uniform(0.05, 2.0) / np.linalg.norm(r)
        g = green_retarded(r)
        want = scalar_green(r) * np.eye(3) + hessian_green(r) / K0**2
        assert np.linalg.norm(g - want) / np.linalg.norm(want) < 1e-6


def test_symmetry_and_reciprocity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = rng.normal(size=3)
        g = green_retarded(r)
        np.testing.assert_allclose(g, g.T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            g, green_retarded(-r), rtol=0, atol=1e-14)


def test_in_plane_z_decoupling():
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = np.array([rng.normal(), rng.normal(), 0.0])
        g = green_retarded(r)
        assert abs(g[0, 2]) == 0.0
        assert abs(g[1, 2]) == 0.0
        assert abs(g[2, 0]) == 0.0
        assert abs(g[2, 1]) == 0.0


def test_imaginary_part_small_r_limit():
    # Im G_aa -> k0 / 6 pi as r -> 0 (radiation into each polarization)
    for rn in (1e-3, 1e-4):
        g = green_retarded([rn, 0.0, 0.0])
        for a in range(3):
            assert g[a, a].imag == pytest.approx(K0 / (6 * np.pi), rel=1e-4)


def test_unit_distance_closed_form():
    # x along the separation: G_xx = [e^{ix}/(4 pi)] (-2i/x + 2/x^2) with
    # x = k0 r, transverse terms carry (1 + i/x - 1/x^2)
    x = K0 * 1.0
    phase = np.exp(1j * x) / (4 * np.pi)
    g = green_retarded([1.0, 0.0, 0.0])
    want_xx = phase * (-2j / x + 2 / x**2)
    want_yy = phase * (1 + 1j / x - 1 / x**2)
    assert g[0, 0] == pytest.approx(want_xx, rel=1e-12)
    assert g[1, 1] == pytest.approx(want_yy, rel=1e-12)
    assert g[2, 2] == pytest.approx(want_yy, rel=1e-12)


def test_quasistatic_closed_form():
    r = 0.07
    g = green_quasistatic([r, 0.0, 0.0])
    assert g[0, 0] == pytest.approx(2.0 / (4 * np.pi * K0**2 * r**3),
                                    rel=1e-12)
    assert g[1, 1] == pytest.approx(-1.0 / (4 * np.pi * K0**2 * r**3),
                                    rel=1e-12)
    assert np.trace(g) == pytest.approx(0.0, abs=1e-18)
    assert np.linalg.norm(g.imag) == 0.0


def test_quasistatic_dominates_at_short_range():
    rng = np.random.default_rng(11)
    for _ in range(10):
        r = rng.normal(size=3)
        r *= rng.uniform(2e-4, 1e-3) / np.linalg.norm(r)
        full = green_retarded(r)
        qs = green_quasistatic(r)
        assert np.linalg.norm(full.real - qs) / np.linalg.norm(qs) < 1e-2


def test_quasistatic_term_extraction_identity():
    # the quasistatic dyadic equals the 1/r^3 term of the retarded one
    # with the propagation phase removed
    r = np.array([0.003, -0.005, 0.002])
    rn = np.linalg.norm(r)
    full = green_retarded(r)
    qs = green_quasistatic(r)
    extracted = (full * np.exp(-1j * K0 * rn)).real
    # at k0 r << 1 the remaining terms are O((k0 r)^2) relative
    assert np.linalg.norm(extracted - qs) / np.linalg.norm(qs) < 1e-2


def test_coupling_zero_distance_decay_limit():
    # a z dipole pair at vanishing separation radiates at the single-emitter
    # rate: Gamma -> Gamma_a, approached as (k0 r)^2
    z = np.array([0.0, 0.0, 1.0])
    got = coupling([1e-3, 0.0, 0.0], z, z)
    assert got.Gamma == pytest.approx(1.0, rel=1e-4)
    closer = coupling([1e-4, 0.0, 0.0], z, z)
    assert abs(closer.Gamma - 1.0) < abs(got.Gamma - 1.0) + 1e-9


def test_coupling_orthogonal_polarizations():
    x = np.array([1.0, 0.0, 0.0])
    z = np.array([0.0, 0.0, 1.0])
    got = coupling([0.3, 0.0, 0.0], x, z)
    assert got.J == 0.0
    assert got.Gamma == 0.0


def test_coupling_regression():
    z = np.array([0.0, 0.0, 1.0])
    got = coupling([0.1, 0.0, 0.0], z, z)
    assert isinstance(got, CouplingPair)
    assert got.J == pytest.approx(2.5970938737257065, rel=1e-12)
    assert got.Gamma == pytest.approx(0.9226968483822762, rel=1e-12)


def test_coupling_exchange_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(10):
        r = rng.normal(size=3) * 0.4
        pi = rng.normal(size=3)
        pi /= np.linalg.norm(pi)
        pj = rng.normal(size=3)
        pj /= np.linalg.norm(pj)
        ab = coupling(r, pi, pj)
        ba = coupling(-r, pj, pi)
        assert ab.J == pytest.approx(ba.J, rel=1e-12, abs=1e-15)
        assert ab.Gamma == pytest.approx(ba.Gamma, rel=1e-12, abs=1e-15)


def test_zero_displacement_raises():
    with pytest.raises(ZeroDisplacement):
        green_retarded([0.0, 0.0, 0.0])
    with pytest.raises(ZeroDisplacement):
        green_quasistatic([0.0, 0.0, 0.0])
