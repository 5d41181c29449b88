"""Ewald engine vs independent oracles and internal invariants."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from dipolebands import (
    LatticeSumRequest,
    NonConvergent,
    RayleighAnomaly,
    build_lattice,
    default_splitting,
    direct_sum_quasistatic,
    ewald_sum,
    reciprocal,
    sum_diagnostics,
)


def _ewald(spec, k, offset="same", mode="retarded", splitting=None):
    return ewald_sum(LatticeSumRequest(
        spec=spec, k=k, offset=offset, mode=mode, splitting=splitting))


def test_splitting_invariance_random_points():
    # the physical sum must not depend on the Ewald splitting parameter
    rng = np.random.default_rng(2024)
    for _ in range(20):
        beta = rng.uniform(0.55, 1.45)
        spec = build_lattice(0.1, beta)
        recip = reciprocal(spec)
        frac = rng.uniform(-0.5, 0.5, size=2)
        k = frac[0] * recip.b1 + frac[1] * recip.b2
        if abs(np.linalg.norm(k) - 2 * np.pi) < 0.5:
            k *= 1.2  # stay clear of the light line
        e0 = default_splitting(spec)
        for mode in ("retarded", "quasistatic"):
            base = _ewald(spec, k, mode=mode, splitting=e0).D
            for s in (0.5 * e0, 2.0 * e0):
                other = _ewald(spec, k, mode=mode, splitting=s).D
                dev = np.linalg.norm(other - base) / np.linalg.norm(base)
                assert dev < 1e-8, (beta, k, mode, s, dev)


@pytest.mark.parametrize("beta", [0.587, 0.84, 1.0, 1.3])
@pytest.mark.parametrize("label", ["Gamma", "M", "K"])
def test_quasistatic_matches_direct_sum(beta, label):
    spec = build_lattice(0.1, beta)
    k = reciprocal(spec).point(label)
    for offset in ("same", "a_to_b"):
        ew = _ewald(spec, k, offset=offset, mode="quasistatic").D
        direct = direct_sum_quasistatic(LatticeSumRequest(
            spec=spec, k=k, offset=offset, mode="quasistatic")).D
        dev = np.linalg.norm(ew - direct) / np.linalg.norm(direct)
        assert dev < 1e-6, (offset, dev)


def test_direct_sum_cutoff_doubling():
    spec = build_lattice(0.1, 0.84)
    k = reciprocal(spec).M
    a1n = np.linalg.norm(spec.a1)
    req = LatticeSumRequest(spec=spec, k=k, mode="quasistatic")
    d30 = direct_sum_quasistatic(req, cutoff_radius=30 * a1n).D
    d60 = direct_sum_quasistatic(req, cutoff_radius=60 * a1n).D
    assert np.linalg.norm(d60 - d30) / np.linalg.norm(d60) < 1e-6


def test_sixfold_symmetry_at_gamma():
    # beta = 1 restores the honeycomb; at Gamma the in-plane same-site
    # block must be isotropic
    spec = build_lattice(0.1, 1.0)
    d = _ewald(spec, [0.0, 0.0], mode="quasistatic").D
    assert d[0, 0] == pytest.approx(d[1, 1], rel=1e-10)
    assert abs(d[0, 1]) < 1e-10 * abs(d[0, 0])


def test_quasistatic_same_site_is_real():
    spec = build_lattice(0.1, 0.9)
    k = reciprocal(spec).K
    d = _ewald(spec, k, mode="quasistatic").D
    assert np.linalg.norm(d.imag) < 1e-12 * np.linalg.norm(d.real)


def test_inversion_identities():
    # G(-R) = G(R) implies D_same(-k) = D_same(k) and
    # D_ab(-k) = D_ba(k) for any mode
    spec = build_lattice(0.1, 0.8)
    k = np.array([5.0, 9.0])
    for mode in ("retarded", "quasistatic"):
        same_p = _ewald(spec, k, "same", mode).D
        same_m = _ewald(spec, -k, "same", mode).D
        np.testing.assert_allclose(same_m, same_p, rtol=1e-10, atol=1e-12)
        ab = _ewald(spec, -k, "a_to_b", mode).D
        ba = _ewald(spec, k, "b_to_a", mode).D
        np.testing.assert_allclose(ab, ba, rtol=1e-10, atol=1e-12)


def test_offset_conjugation_outside_light_cone():
    # without propagating orders the two offset sums are Hermitian
    # conjugates of each other
    spec = build_lattice(0.1, 1.0)
    k = reciprocal(spec).K
    ab = _ewald(spec, k, "a_to_b", "retarded")
    ba = _ewald(spec, k, "b_to_a", "retarded")
    scale = np.linalg.norm(ab.D)
    assert np.linalg.norm(ab.D - ba.D.conj().T) < 1e-10 * scale


def test_propagating_order_count():
    spec = build_lattice(0.1, 1.0)
    recip = reciprocal(spec)
    outside = _ewald(spec, recip.K, mode="retarded")
    assert outside.n_propagating == 0
    inside = _ewald(spec, [0.4, 0.3], mode="retarded")
    assert inside.n_propagating >= 1
    qs = _ewald(spec, [0.4, 0.3], mode="quasistatic")
    assert qs.n_propagating == 0


def test_rayleigh_anomaly_on_light_line():
    spec = build_lattice(0.1, 1.0)
    with pytest.raises(RayleighAnomaly):
        _ewald(spec, [2.0 * np.pi, 0.0], mode="retarded")
    # quasistatic mode has no light line
    _ewald(spec, [2.0 * np.pi, 0.0], mode="quasistatic")


def test_nonconvergent_extreme_splitting():
    spec = build_lattice(0.1, 1.0)
    with pytest.raises(NonConvergent):
        _ewald(spec, reciprocal(spec).K, mode="retarded", splitting=2000.0)


@pytest.mark.parametrize("tolerance,k", [
    (0.0, (1.0, 0.0)),
    (-1e-10, (1.0, 0.0)),
    (1e-10, (np.nan, 0.0)),
    (1.0, (1.0, 0.0)),
    (1000.0, (1.0, 0.0)),
])
def test_rejects_bad_tolerance_and_k(tolerance, k):
    spec = build_lattice(0.1, 1.0)
    with pytest.raises(ValueError):
        ewald_sum(LatticeSumRequest(spec=spec, k=np.array(k),
                                    tolerance=tolerance))


def test_reported_error_estimates_honest():
    spec = build_lattice(0.1, 1.0)
    res = _ewald(spec, reciprocal(spec).K, mode="retarded")
    assert res.est_error < 1e-8
    assert res.n_spatial > 0
    assert res.n_spectral > 0


@settings(max_examples=50, deadline=None)
@given(d0=st.floats(0.08, 0.2), beta=st.floats(0.55, 1.45),
       frac=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       offset=st.sampled_from(("same", "a_to_b", "b_to_a")),
       mode=st.sampled_from(("retarded", "quasistatic")),
       scale=st.sampled_from((0.5, 1.0, 2.0)),
       tol=st.sampled_from((1e-6, 1e-8, 1e-10)))
def test_truncation_honours_tolerance(d0, beta, frac, offset, mode, scale,
                                      tol):
    # the a priori truncation must meet the requested tolerance, and the
    # reported estimate must bound the true truncation error
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    k = frac[0] * recip.b1 + frac[1] * recip.b2
    e = scale * default_splitting(spec)

    def run(tolerance):
        return ewald_sum(LatticeSumRequest(
            spec=spec, k=k, offset=offset, mode=mode, splitting=e,
            tolerance=tolerance))

    try:
        res = run(tol)
    except RayleighAnomaly:
        reject()
    ref = run(1e-14).D
    err = np.linalg.norm(res.D - ref) / np.linalg.norm(ref)
    assert err <= tol
    assert err <= res.est_error


@pytest.mark.parametrize("beta,label", [(1.0, "K"), (0.84, "M")])
def test_sum_diagnostics_clean_points(beta, label):
    spec = build_lattice(0.1, beta)
    k = reciprocal(spec).point(label)
    report = sum_diagnostics(spec, k)
    assert report["rayleigh_anomaly"] is None
    assert report["retarded_splitting_dev"] < 1e-7
    assert report["quasistatic_splitting_dev"] < 1e-7
    assert report["quasistatic_direct_dev"] < 1e-7


def test_sum_diagnostics_reports_anomaly():
    spec = build_lattice(0.1, 1.0)
    report = sum_diagnostics(spec, [2.0 * np.pi, 0.0])
    assert report["rayleigh_anomaly"] is not None
    # quasistatic side still evaluated
    assert report["quasistatic_direct_dev"] < 1e-6


def test_special_function_backends_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    from scipy import special

    mpmath.mp.dps = 30
    rng = np.random.default_rng(99)
    # complementary error function on complex arguments, as used by the
    # spectral series
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        got = special.erfc(z) if z.imag == 0 else complex(
            1.0 - special.erf(complex(z)))
        want = complex(mpmath.erfc(z))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
    # Faddeeva function, as used by the spatial series
    for _ in range(20):
        z = complex(rng.uniform(-4, 4), rng.uniform(0, 4))
        got = complex(special.wofz(z))
        want = complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
