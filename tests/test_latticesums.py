"""Ewald engine vs independent oracles and internal invariants."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from dipolebands import (
    BETA_MAX,
    BETA_MIN,
    LatticeSumRequest,
    LatticeSumResult,
    NonConvergent,
    RayleighAnomaly,
    assemble,
    build_lattice,
    default_splitting,
    direct_sum_quasistatic,
    ewald_sum,
    latticesums,
    reciprocal,
    reduce_to_bz,
    sum_diagnostics,
)
from dipolebands.greens import K0
from tests.conftest import minus_k_sum


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


def test_direct_sum_cutoff_doubling(monkeypatch):
    spec = build_lattice(0.1, 0.84)
    k = reciprocal(spec).M
    req = LatticeSumRequest(spec=spec, k=k, mode="quasistatic")
    d60 = direct_sum_quasistatic(req).D
    assert latticesums._ORACLE_CUTOFF == 60.0
    monkeypatch.setattr(latticesums, "_ORACLE_CUTOFF", 30.0)
    d30 = direct_sum_quasistatic(req).D
    assert np.linalg.norm(d60 - d30) / np.linalg.norm(d60) < 1e-6


@pytest.mark.parametrize("k,match", [
    ((np.nan, 0.0), "finite"),
    ((np.inf, 1.0), "finite"),
    (((1.0, 0.0), (0.0, 1.0)), r"shape \(2,\)"),
    ((1.0, 0.0, 0.0), r"shape \(2,\)"),
])
def test_direct_sum_rejects_bad_k(k, match):
    # the oracle sums one k; a batch or a non-finite k is refused
    spec = build_lattice(0.1, 1.0)
    with pytest.raises(ValueError, match=match):
        direct_sum_quasistatic(LatticeSumRequest(spec=spec, k=np.array(k),
                                                 mode="quasistatic"))


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


@pytest.mark.parametrize("d0", [1.5, 2.0, 3.0, 5.0, 8.3, 10.0])
def test_default_splitting_past_d0_one(d0):
    # from d0 ~ 1 the default splitting stays at k0/(2 sqrt(9.6)): the sum
    # agrees with the one at 1.5E, and where 1.5E needs indices past the
    # cap its rounding bound u sum|terms|/|D| stays small
    spec = build_lattice(d0, 1.0)
    recip = reciprocal(spec)
    e = default_splitting(spec)
    for k in (0.31 * recip.b1 + 0.17 * recip.b2, recip.K):
        res = _ewald(spec, k, offset="a_to_b")
        if d0 < 8.0:
            other = _ewald(spec, k, offset="a_to_b", splitting=1.5 * e)
            assert (np.linalg.norm(res.D - other.D)
                    <= 1e-8 * np.linalg.norm(res.D))
        else:
            rounding = (res.est_error * np.finfo(float).eps
                        / (0.1 * latticesums._TOLERANCE))
            assert rounding <= 1e-10


@pytest.mark.parametrize("d0", [1.5, 2.0])
def test_cancelling_splitting_is_nonconvergent(d0):
    # sqrt(pi)/|a1| past d0 ~ 1: the spectral terms grow like e^{k0^2/4E^2}
    # and cancel, which left D off by 1.1e-7 at d0 1.5 and by 52% at d0 2
    # (relative to the default-splitting sum); the rounding bound
    # u sum|terms|/|D| gates it, naming the k
    spec = build_lattice(d0, 1.0)
    recip = reciprocal(spec)
    k = 0.31 * recip.b1 + 0.17 * recip.b2
    e = np.sqrt(np.pi) / np.linalg.norm(spec.a1)
    for offset in ("a_to_b", "bloch"):
        with pytest.raises(NonConvergent, match="rounding bound") as exc:
            _ewald(spec, k, offset=offset, splitting=e)
        assert f"k={reduce_to_bz(recip, k)}" in str(exc.value)
        # the default splitting sums the same k
        _ewald(spec, k, offset=offset)


@pytest.mark.parametrize("mode, d0, e_a1", [("quasistatic", 0.2, 0.2),
                                             ("retarded", 0.2, 0.33)])
def test_empty_spectral_run_sums_to_zero(mode, d0, e_a1):
    # a splitting this small puts the spectral reach below |K|: no order of
    # K is in the disk, its run is empty and its spectral part zero, alone,
    # inside a batch and as a batch's last row
    spec = build_lattice(d0, 1.0)
    recip = reciprocal(spec)
    e = e_a1 / np.linalg.norm(spec.a1)
    for offset in ("same", "a_to_b", "bloch"):
        one = _ewald(spec, recip.K, offset=offset, mode=mode, splitting=e)
        assert one.n_spectral == 0
        ref = _ewald(spec, recip.K, offset=offset, mode=mode).D
        assert (np.linalg.norm(one.D - ref) <= 1e-8 * np.linalg.norm(ref))
        for ks in ([np.zeros(2), recip.K, np.zeros(2)],
                   [np.zeros(2), recip.K]):
            batch = _ewald(spec, np.array(ks), offset=offset, mode=mode,
                           splitting=e)
            assert np.array_equal(batch.D[..., 1, :, :], one.D)


@pytest.mark.parametrize("d0", [3.0, 20.0])
def test_quasistatic_splitting_scales_with_cell(d0):
    # without k0 there is no growth to cap: the quasistatic splitting stays
    # sqrt(pi)/|a1| at any d0, past the retarded index cap included, and
    # the sums match the direct oracle
    spec = build_lattice(d0, 1.0)
    assert (default_splitting(spec, "quasistatic")
            == np.sqrt(np.pi) / np.linalg.norm(spec.a1))
    k = reciprocal(spec).K
    for offset in ("same", "a_to_b"):
        ew = _ewald(spec, k, offset=offset, mode="quasistatic").D
        direct = direct_sum_quasistatic(LatticeSumRequest(
            spec=spec, k=k, offset=offset, mode="quasistatic")).D
        dev = np.linalg.norm(ew - direct) / np.linalg.norm(direct)
        assert dev < 1e-6, (offset, dev)
    if d0 < 5.0:
        assert sum_diagnostics(spec, k)["quasistatic_splitting_dev"] < 1e-11


def test_rejects_non_finite_k():
    spec = build_lattice(0.1, 1.0)
    with pytest.raises(ValueError, match="finite"):
        ewald_sum(LatticeSumRequest(spec=spec, k=np.array((np.nan, 0.0))))


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
       scale=st.sampled_from((0.5, 1.0, 2.0)))
def test_truncation_honours_tolerance(d0, beta, frac, offset, mode, scale):
    # the a priori truncation must meet the target, and the reported
    # estimate must bound the true truncation error
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    k = frac[0] * recip.b1 + frac[1] * recip.b2
    req = LatticeSumRequest(spec=spec, k=k, offset=offset, mode=mode,
                            splitting=scale * default_splitting(spec))
    try:
        res = ewald_sum(req)
    except RayleighAnomaly:
        reject()
    # the reference sums to 1e-14, on tables built for it (their keys hold
    # no target)
    _clear_tables()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(latticesums, "_TOLERANCE", 1e-14)
            mp.setattr(latticesums, "_DEPTH",
                       np.log(10.0 / 1e-14) + latticesums._MARGIN)
            ref = ewald_sum(req).D
    finally:
        _clear_tables()
    err = np.linalg.norm(res.D - ref) / np.linalg.norm(ref)
    assert err <= latticesums._TOLERANCE
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


def _kernel_arguments():
    """The arguments the sums give the kernels: real x = gamma/2E of the
    evanescent orders, -iy of the propagating ones, and the spatial
    i r E +- k0/2E."""
    real = np.linspace(0.0, 6.0, 61) + 0j
    prop = -1j * np.linspace(0.0, 3.5, 36)
    re, b = np.meshgrid(np.linspace(0.0, 6.0, 13), np.linspace(0.0, 8.0, 17))
    spatial = (1j * re + b).ravel()
    return real, prop, np.concatenate([spatial, -spatial.conj()])


def test_special_function_backends_vs_mpmath():
    # the package's erfc and Faddeeva w against mpmath at 30 digits, and
    # against scipy.special, which the package no longer imports
    mpmath = pytest.importorskip("mpmath")
    from scipy import special

    real, prop, spatial = _kernel_arguments()
    with mpmath.workdps(30):
        for x, got in zip(np.concatenate([real, prop]),
                          latticesums._erfc_spectral(
                              np.concatenate([real, prop]))):
            want = complex(mpmath.erfc(mpmath.mpc(x)))
            assert abs(got - want) <= 1e-13 * abs(want), x
            assert abs(got - special.erfc(x)) <= 1e-13 * abs(want), x
        for z, got in zip(spatial, latticesums._wofz(spatial)):
            mz = mpmath.mpc(z)
            want = complex(mpmath.exp(-mz * mz) * mpmath.erfc(-1j * mz))
            assert abs(got - want) <= 1e-13 * abs(want), z
            assert abs(got - special.wofz(z)) <= 1e-13 * abs(want), z


def test_faddeeva_forms_agree():
    # the tables take the i r E - k0/2E kernels from w(-conj z) = conj w(z),
    # and the propagating orders call w on one element at a time
    _, prop, spatial = _kernel_arguments()
    z = np.concatenate([spatial, 1j * prop])
    w = latticesums._wofz(z)
    assert np.allclose(latticesums._wofz(-z.conj()), w.conj(), rtol=1e-14,
                       atol=0.0)
    single = np.array([latticesums._wofz(np.array([v]))[0] for v in z])
    assert np.allclose(single, w, rtol=1e-14, atol=0.0)


def _mp_bloch_sums(spec, k, mode):
    """[D_same, D_ab, D_ba] at k by Ewald summation in mpmath at 30 digits.

    A reference that shares only the method with the engine: one term at a
    time, mpmath's erfc, D_ba summed at rho = -d (not as D_ab(-k)), the
    splitting 3.5/|a1| (the engine's is sqrt(pi)/|a1|), both series out to
    a Gaussian exponent of 36, and the R = 0 exclusion differentiated
    numerically.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a1, a2, d, kv = ([mp.mpf(float(x)) for x in v]
                         for v in (spec.a1, spec.a2, spec.basis_offset, k))
        kq = 2 * mp.pi if mode == "retarded" else mp.mpf(0)  # in the kernels
        cross = a1[0] * a2[1] - a1[1] * a2[0]
        b1 = [2 * mp.pi * a2[1] / cross, -2 * mp.pi * a2[0] / cross]
        b2 = [-2 * mp.pi * a1[1] / cross, 2 * mp.pi * a1[0] / cross]
        e = 3.5 / mp.norm(a1)
        b = kq / (2 * e)
        depth = 36
        gauss = 2 * e / mp.sqrt(mp.pi)
        area2 = abs(2 * cross)

        def disk(u, v, centre, reach):
            """(n, centre + n0 u + n1 v) over the integer n in the disk."""
            side = min(abs(u[0] * v[1] - u[1] * v[0]) / mp.norm(w)
                       for w in (u, v))
            m = int(mp.ceil((reach + mp.norm(centre)) / side)) + 1
            for i in range(-m, m + 1):
                for j in range(-m, m + 1):
                    x = [centre[c] + i * u[c] + j * v[c] for c in (0, 1)]
                    if x[0] ** 2 + x[1] ** 2 <= reach ** 2:
                        yield (i, j), x

        def spectral(rhos):
            """(S, Txx, Txy, Tyy, Tzz) of each offset."""
            out = [[mp.mpc(0)] * 5 for _ in rhos]
            for _, q in disk(b1, b2, kv, mp.sqrt(kq**2 + 4 * e**2 * depth)):
                qq = q[0] ** 2 + q[1] ** 2
                gam = (mp.sqrt(qq - kq**2) if qq > kq**2
                       else -1j * mp.sqrt(kq**2 - qq))
                kern = mp.erfc(gam / (2 * e)) / gam
                terms = (kern, -kern * q[0] ** 2, -kern * q[0] * q[1],
                         -kern * q[1] ** 2,
                         gam**2 * kern - gauss * mp.exp(-(gam / (2 * e)) ** 2))
                for acc, rho in zip(out, rhos):
                    ph = mp.expj(q[0] * rho[0] + q[1] * rho[1]) / area2
                    for c in range(5):
                        acc[c] += ph * terms[c]
            return out

        def spatial(rho):
            acc = [mp.mpc(0)] * 5
            for n, x in disk(a1, a2, rho, mp.sqrt(depth + b**2) / e):
                r = mp.norm(x)
                if r == 0:
                    continue
                # phi = f/r, f = e^{ikr} erfc(rE + ik/2E)
                #                + e^{-ikr} erfc(rE - ik/2E)
                ep = mp.expj(kq * r) * mp.erfc(r * e + 1j * b)
                em = mp.expj(-kq * r) * mp.erfc(r * e - 1j * b)
                g = 2 * gauss * mp.exp(b**2 - (r * e) ** 2)
                f = ep + em
                fp = 1j * kq * (ep - em) - g
                fpp = -(kq**2) * f + 2 * r * e**2 * g
                dphi = fp / r - f / r**2
                c2 = fpp / r - 2 * fp / r**2 + 2 * f / r**3 - dphi / r
                ux, uy = x[0] / r, x[1] / r
                kr = sum(kv[c] * (n[0] * a1[c] + n[1] * a2[c]) for c in (0, 1))
                ph = mp.expj(-kr) / (8 * mp.pi)
                for c, term in enumerate((
                        f / r, dphi / r + c2 * ux * ux, c2 * ux * uy,
                        dphi / r + c2 * uy * uy, dphi / r)):
                    acc[c] += ph * term
            return acc

        rhos = ([mp.mpf(0)] * 2, d, [-x for x in d])
        sums = [[gc + rc for gc, rc in zip(g, spatial(rho))]
                for rho, g in zip(rhos, spectral(rhos))]
        # the R = 0 exclusion: the screened kernel minus the free one is
        # (u(r) - u(-r))/(8 pi r) = h0 + h2 r^2 + ..., u(r) = e^{-ikr}
        # erfc(rE - ik/2E); S gains h0 and each diagonal of T gains 2 h2
        u = lambda r: mp.expj(-kq * r) * mp.erfc(r * e - 1j * b)  # noqa: E731
        h0 = mp.diff(u, 0, 1) / (4 * mp.pi)
        t2 = mp.diff(u, 0, 3) / (12 * mp.pi)
        for c, h in enumerate((h0, t2, 0, t2, t2)):
            sums[0][c] += h
        out = []
        for s, txx, txy, tyy, tzz in sums:
            dd = np.array([[txx, txy, 0], [txy, tyy, 0], [0, 0, tzz]],
                          dtype=complex) / K0**2
            if mode == "retarded":
                dd += complex(s) * np.eye(3)
            out.append(dd)
        return np.array(out)


@pytest.mark.parametrize("mode", ["retarded", "quasistatic"])
def test_bloch_sums_match_mpmath_reference(mode):
    # at two zone vertices (M is a zone-boundary tie of -k), and at one k
    # outside and one inside the light cone
    spec = build_lattice(0.1, 0.9)
    recip = reciprocal(spec)
    for k in (recip.K, recip.M, [9.7, 13.1], [1.3, 2.1]):
        got = _ewald(spec, np.asarray(k), "bloch", mode).D
        want = _mp_bloch_sums(spec, k, mode)
        for d_got, d_want in zip(got, want):
            dev = np.linalg.norm(d_got - d_want) / np.linalg.norm(d_want)
            assert dev <= 1e-12, (k, dev)


# -- per-lattice tables --------------------------------------------------------
# The reference below is the per-call series that the tables replaced: every
# ewald_sum rebuilt its disks and kernels. The tabled engine must return the
# same bits.

def _ref_disk(basis, centre, reach):
    dual = np.linalg.inv(basis)
    mid = -centre @ dual
    half = reach * np.linalg.norm(dual, axis=0)
    if np.any(np.abs(mid) + half > latticesums._MAX_INDEX):
        raise NonConvergent(
            f"truncation radius {reach:.3g} needs lattice indices beyond "
            f"{latticesums._MAX_INDEX}"
        )
    lo = np.floor(mid - half).astype(int)
    hi = np.ceil(mid + half).astype(int)
    m, n = np.meshgrid(np.arange(lo[0], hi[0] + 1),
                       np.arange(lo[1], hi[1] + 1), indexing="ij")
    v = np.stack([m.ravel(), n.ravel()], axis=1) @ basis + centre
    return v[np.einsum("ij,ij->i", v, v) <= reach * reach]


def _ref_spectral_terms(spec, recip, k, rho, k0_eff, e, depth):
    qv = _ref_disk(np.array([recip.b1, recip.b2]), k,
                   np.sqrt(k0_eff**2 + 4.0 * e**2 * depth))
    q = np.linalg.norm(qv, axis=1)
    n_prop = 0
    if k0_eff != 0.0:
        thr = latticesums.RAYLEIGH_REL_THRESHOLD
        grazing = np.abs(q - k0_eff) < thr * k0_eff
        if np.any(grazing):
            i = int(np.argmax(grazing))
            raise RayleighAnomaly(
                f"|k+g| within {thr:g}*k0 of the light line at "
                f"k={np.asarray(k)}", direction=qv[i] / q[i])
        n_prop = int(np.count_nonzero(q < k0_eff))
    d = k0_eff**2 - q**2
    gamma = -1j * np.sqrt(d.astype(complex))
    phase = np.exp(1j * (qv @ rho)) / (2.0 * spec.cell_area)
    ec = latticesums._erfc_spectral(gamma / (2.0 * e))
    kern = np.zeros_like(gamma)
    np.divide(ec, gamma, out=kern, where=gamma != 0.0)
    pk = phase * kern
    zker = 2.0 * gamma * ec - (4.0 * e / np.sqrt(np.pi)) * np.exp(
        d / (4.0 * e**2))
    qx, qy = qv[:, 0], qv[:, 1]
    w = np.stack([pk, -pk * qx * qx, -pk * qx * qy, -pk * qy * qy,
                  0.5 * phase * zker], axis=1)
    return w, n_prop


def _ref_spatial_kernels(spec, rho, k0_eff, e, depth):
    """The spatial disk and its radial kernels, rebuilt per call: the lattice
    vectors R, r = |R + rho|, the unit vector (ux, uy), phi, phi'/r (c1),
    phi'' - phi'/r (c2) and w(k0/2E) for the self-corrections."""
    gau_cap = k0_eff**2 / (4.0 * e**2)
    if gau_cap > 650.0:
        raise NonConvergent(
            f"splitting {e:g} too small: spatial prefactor "
            f"exp({gau_cap:.1f}) overflows")
    rvecs = _ref_disk(np.array([spec.a1, spec.a2]), rho,
                      np.sqrt(depth + gau_cap) / e)
    rv = np.linalg.norm(rvecs, axis=1)
    keep = rv > 0.0
    rvecs, rv = rvecs[keep], rv[keep]
    gau = np.exp(-(rv**2) * e**2 + gau_cap)
    # the package's kernels on the arguments the tables pass them, so that
    # the sums agree bit for bit: w at i r E + k0/2E, then at k0/2E for the
    # self-corrections
    b = k0_eff / (2.0 * e)
    w = latticesums._wofz(np.append(1j * rv * e + b, b))
    tp = gau * w[:-1]
    tm = gau * w[:-1].conj()
    f = tp + tm
    sqrt_pi = np.sqrt(np.pi)
    fp = 1j * k0_eff * (tm - tp) - (4.0 * e / sqrt_pi) * gau
    fpp = -(k0_eff**2) * f + (8.0 * rv * e**3 / sqrt_pi) * gau
    phip = fp / rv - f / rv**2
    phipp = fpp / rv - 2.0 * fp / rv**2 + 2.0 * f / rv**3
    c1 = phip / rv
    return (rvecs - rho, rvecs[:, 0] / rv, rvecs[:, 1] / rv, f / rv, c1,
            phipp - c1, w[-1])


def _ref_spatial_sums(spec, k, rho, k0_eff, e, depth, per_term=False):
    """The spatial series at k as (sum, summed magnitudes, terms, w(k0/2E)).

    By default in the weights form: the Bloch phases against k-free
    weights, whose magnitudes are the series'. per_term=True builds each
    term phase times kernels and sums the terms and their magnitudes, as
    the engine did before the weights form (a second, looser reference).
    """
    lattice, ux, uy, phi, c1, c2, w_b = _ref_spatial_kernels(
        spec, rho, k0_eff, e, depth)
    phase = np.exp(-1j * (lattice @ k))
    if per_term:
        pre = phase / (8.0 * np.pi)
        c1, c2 = pre * c1, pre * c2
        terms = np.stack([pre * phi, c1 + c2 * ux * ux, c2 * ux * uy,
                          c1 + c2 * uy * uy, c1], axis=1)
        return terms.sum(axis=0), np.abs(terms).sum(axis=0), len(terms), w_b
    weights = np.stack([phi, c1 + c2 * ux * ux, c2 * ux * uy,
                        c1 + c2 * uy * uy, c1], axis=1) / (8.0 * np.pi)
    return (np.einsum("nr,rc->nc", phase[None], weights)[0],
            np.abs(weights).sum(axis=0), len(weights), w_b)


def _ref_ewald_sum(req, per_term=False):
    spec, tol = req.spec, latticesums._TOLERANCE
    recip = reciprocal(spec)
    k = reduce_to_bz(recip, np.asarray(req.k, dtype=float))
    rho = latticesums._resolve_offset(spec, req.offset)
    e = default_splitting(spec) if req.splitting is None else req.splitting
    retarded = req.mode == "retarded"
    k0_eff = K0 if retarded else 0.0
    depth = np.log(10.0 / tol) + latticesums._MARGIN
    w_g, n_prop = _ref_spectral_terms(spec, recip, k, rho, k0_eff, e, depth)
    s_r, m_r, n_r, w_b = _ref_spatial_sums(spec, k, rho, k0_eff, e, depth,
                                           per_term)
    # the spectral terms are summed as the package sums one k's run
    total = np.add.reduceat(w_g, [0], axis=0)[0] + s_r
    if req.offset == "same":
        h0, h2 = latticesums._self_corrections(k0_eff, e, w_b)
        total += np.array([h0, 2.0 * h2, 0.0, 2.0 * h2, 2.0 * h2])
    d = latticesums._dyadic(total, retarded)
    magnitude = latticesums._dyadic(
        np.add.reduceat(np.abs(w_g), [0], axis=0)[0] + m_r, retarded)
    return LatticeSumResult(
        D=d, n_spatial=n_r, n_spectral=len(w_g),
        est_error=float(0.1 * tol * np.linalg.norm(magnitude)
                        / np.linalg.norm(d)),
        k_reduced=k, n_propagating=n_prop)


def _ref_spatial_table(spec, rho, k0_eff, e):
    """The offset's spatial table built as before the frame: its own _disk
    about rho, and the self-corrections for the same-site table."""
    lattice, ux, uy, phi, c1, c2, w_b = _ref_spatial_kernels(
        spec, rho, k0_eff, e, latticesums._DEPTH)
    weights = np.stack([phi, c1 + c2 * ux * ux, c2 * ux * uy,
                        c1 + c2 * uy * uy, c1], axis=-1) / (8.0 * np.pi)
    self_term = None
    if not rho.any():
        h0, h2 = latticesums._self_corrections(k0_eff, e, w_b)
        self_term = np.array([h0, 2.0 * h2, 0.0, 2.0 * h2, 2.0 * h2])
    return latticesums._SpatialTable(
        lattice=lattice, weights=weights,
        magnitudes=np.abs(weights).sum(axis=0), self_term=self_term)


def _clear_tables():
    latticesums._CELL_TABLES.clear()
    latticesums._SPATIAL_TABLES.clear()
    latticesums._PASS_HALVES.clear()
    latticesums._PASS_KEYS.clear()


def _outcome(fn, req):
    try:
        return fn(req)
    except ArithmeticError as exc:
        return exc


def _assert_same_bits(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert isinstance(got, LatticeSumResult), got
    assert np.array_equal(got.D, want.D)
    assert (got.n_spatial, got.n_spectral) == (want.n_spatial,
                                               want.n_spectral)
    assert np.array_equal(got.n_propagating, want.n_propagating)
    assert got.est_error == want.est_error
    assert np.array_equal(got.k_reduced, want.k_reduced)


_VERTICES = ("K", "Kprime", "M", "M_top", "M_bottom", "Gamma")


@settings(max_examples=150, deadline=None)
@given(d0=st.floats(0.05, 0.3), beta=st.floats(BETA_MIN, BETA_MAX),
       offset=st.sampled_from(("same", "a_to_b", "b_to_a")),
       mode=st.sampled_from(("retarded", "quasistatic")),
       scale=st.sampled_from((0.5, 1.0, 2.0)),
       k_at=st.one_of(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                      st.sampled_from(_VERTICES)),
       shift=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
# terms that sum to 1/1525 of their magnitudes: u sum|terms| is 3.4e-13 |D|,
# so no summation order holds the two series within 1e-14 |D|
@example(d0=0.25, beta=1.73046875, offset="a_to_b", mode="retarded",
         scale=0.5, k_at=(0.0, 1.5), shift=(0, 0))
def test_tables_match_per_call_series(d0, beta, offset, mode, scale, k_at,
                                      shift):
    # k inside and outside the first zone, zone vertices included; the
    # first call builds the tables, the second reads them
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    if isinstance(k_at, str):
        base = recip.point(k_at)
    else:
        base = k_at[0] * recip.b1 + k_at[1] * recip.b2
    k = base + shift[0] * recip.b1 + shift[1] * recip.b2
    req = LatticeSumRequest(spec=spec, k=k, offset=offset, mode=mode,
                            splitting=scale * default_splitting(spec))
    want = _outcome(_ref_ewald_sum, req)
    _clear_tables()
    _assert_same_bits(_outcome(ewald_sum, req), want)  # cold
    got = _outcome(ewald_sum, req)
    _assert_same_bits(got, want)  # warm
    # the weights form moves the per-term series by rounding only: a small
    # multiple of u sum|terms| (u the float epsilon), the sum's own
    # rounding bound, which est_error gives as est_error |D| / (0.1 target)
    old = _outcome(lambda r: _ref_ewald_sum(r, per_term=True), req)
    if isinstance(want, Exception):
        assert type(old) is type(want) and str(old) == str(want)
        return
    magnitudes = (got.est_error * np.linalg.norm(got.D)
                  / (0.1 * latticesums._TOLERANCE))
    assert (np.linalg.norm(got.D - old.D)
            <= 16 * np.finfo(float).eps * magnitudes)
    assert abs(got.est_error - old.est_error) <= 1e-12 * old.est_error
    assert (got.n_spatial, got.n_spectral, got.n_propagating) == \
        (old.n_spatial, old.n_spectral, old.n_propagating)


@settings(max_examples=40, deadline=None)
@given(d0=st.floats(0.05, 0.3), beta=st.floats(BETA_MIN, BETA_MAX),
       mode=st.sampled_from(("retarded", "quasistatic")),
       fracs=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                      max_size=4),
       shift=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       phi=st.floats(0.0, 2.0 * np.pi), at=st.integers(0, 10))
# d0 0.4: M and K lie inside the light cone, M's -k a zone-boundary tie
@example(d0=0.4, beta=0.9, mode="retarded", fracs=[(0.1, 0.2), (0.4, 0.3)],
         shift=(1, -1), phi=0.3, at=2)
def test_bloch_offset_matches_single_offsets(d0, beta, mode, fracs, shift,
                                             phi, at):
    # the zone vertices moved by a reciprocal vector (-k of M reduces to a
    # zone-boundary tie), random k and one row on the light line
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    g = shift[0] * recip.b1 + shift[1] * recip.b2
    ks = [f0 * recip.b1 + f1 * recip.b2 for f0, f1 in fracs]
    ks += [recip.point(v) + g for v in _VERTICES]
    light = min(at, len(ks))
    ks.insert(light, K0 * np.array([np.cos(phi), np.sin(phi)]))
    ks = np.array(ks)
    retarded = mode == "retarded"
    sum_ks = np.delete(ks, light, axis=0) if retarded else ks

    def bits(a):
        return np.asarray(a).shape, np.asarray(a).tobytes()

    for k in (sum_ks, sum_ks[at % len(sum_ks)]):  # a batch and one point
        got = _ewald(spec, k, "bloch", mode)
        want = [_ewald(spec, k, "same", mode), _ewald(spec, k, "a_to_b", mode)]
        assert got.D.shape == (3,) + want[0].D.shape
        for d, w in zip(got.D, want):
            assert bits(d) == bits(w.D)
        assert bits(got.k_reduced) == bits(want[0].k_reduced)
        assert bits(got.n_propagating) == bits(want[0].n_propagating)
        # D_ba is the a_to_b sum at -k where an order propagates; elsewhere
        # it is conj(D_ab), bit for bit, within the rounding bound of that
        # sum. The terms and est_error are those of the sums summed
        d_ab, d_ba = got.D[1].reshape(-1, 3, 3), got.D[2].reshape(-1, 3, 3)
        prop = np.reshape(want[0].n_propagating, -1) > 0
        for n, kn in enumerate(k.reshape(-1, 2)):
            minus, bound = minus_k_sum(spec, kn, mode)
            if prop[n]:
                assert bits(d_ba[n]) == bits(minus.D)
                want.append(minus)
            else:
                assert bits(d_ba[n]) == bits(d_ab[n].conj())
                assert np.linalg.norm(d_ba[n] - minus.D) <= bound
        assert got.n_spatial + got.n_spectral == sum(
            w.n_spatial + w.n_spectral for w in want)
        assert got.est_error == max(w.est_error for w in want)
    if retarded:
        with pytest.raises(RayleighAnomaly) as want:
            _ewald(spec, ks, "same", mode)
        with pytest.raises(RayleighAnomaly) as got:
            _ewald(spec, ks, "bloch", mode)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert bits(got.value.direction) == bits(want.value.direction)


@settings(max_examples=150, deadline=None)
@given(log_d0=st.floats(np.log(0.05), np.log(11.0)),
       beta=st.floats(BETA_MIN, BETA_MAX),
       mode=st.sampled_from(("retarded", "quasistatic")),
       offset=st.sampled_from(("same", "a_to_b", "b_to_a")),
       log_scale=st.floats(np.log(0.5), np.log(2.0)))
# splittings this small need indices up to 39.5 about rho = 0 and 40.7
# for the frame, whose box is cut at the cap; 39.7 and 40.4 about the
# offset at BETA_MAX, which the cut frame holds and which raises
@example(log_d0=np.log(0.1), beta=1.0, mode="quasistatic", offset="same",
         log_scale=np.log(0.0893))
@example(log_d0=np.log(0.1), beta=BETA_MAX, mode="quasistatic",
         offset="a_to_b", log_scale=np.log(0.09))
@example(log_d0=np.log(0.1), beta=BETA_MAX, mode="quasistatic",
         offset="a_to_b", log_scale=np.log(0.0885))
def test_spatial_tables_filter_the_frame(log_d0, beta, mode, offset,
                                         log_scale):
    # an offset's table filtered from the cell's frame is, field by field
    # and bit for bit, the one built on its own _disk, and it raises where
    # that disk needs an index past the cap, as that build does
    spec = build_lattice(float(np.exp(log_d0)), beta)
    k0_eff = K0 if mode == "retarded" else 0.0
    e = float(np.exp(log_scale)) * default_splitting(spec, mode)
    rho = latticesums._resolve_offset(spec, offset)
    try:
        cell = latticesums._cell_table(spec, k0_eff, e)
    except NonConvergent:
        # only where the spectral order list is out of reach (large d0 at
        # 2E): every sum on this lattice raises before it reads a spatial
        # table
        recip = reciprocal(spec)
        reach = np.sqrt(k0_eff**2 + 4.0 * e**2 * latticesums._DEPTH)
        kmax = 0.5 * (np.linalg.norm(recip.b1) + np.linalg.norm(recip.b2))
        with pytest.raises(NonConvergent):
            _ref_disk(np.array([recip.b1, recip.b2]), np.zeros(2),
                      reach + kmax)
        return
    want = _outcome(lambda _: _ref_spatial_table(spec, rho, k0_eff, e), None)
    got = _outcome(lambda _: latticesums._spatial_table(cell, rho, k0_eff, e),
                   None)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b is None:
            assert a is None, field.name
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), \
                field.name
            assert not a.flags.writeable, field.name


def test_tables_shared_across_beta():
    # a1, a2 do not depend on beta: one cell table and one same-site
    # spatial table serve every beta of a d0
    betas = np.linspace(0.6, 1.6, 5)
    _clear_tables()
    for beta in betas:
        spec = build_lattice(0.1, beta)
        for offset in ("same", "a_to_b", "b_to_a"):
            ewald_sum(LatticeSumRequest(spec=spec, k=reciprocal(spec).M,
                                        offset=offset))
    assert len(latticesums._CELL_TABLES) == 1
    assert len(latticesums._SPATIAL_TABLES) == 1 + 2 * 5
    # a Bloch matrix sums D_ba(k) as D_ab(-k): no b_to_a table
    _clear_tables()
    for beta in betas:
        spec = build_lattice(0.1, beta)
        assemble(spec, reciprocal(spec).M)
    assert len(latticesums._CELL_TABLES) == 1
    assert len(latticesums._SPATIAL_TABLES) == 1 + 5


def test_failed_builds_cache_nothing():
    _clear_tables()
    spec = build_lattice(0.1, 1.0)
    k = reciprocal(spec).K
    # spectral index cap at splitting 2000; spatial prefactor overflow and
    # spatial index cap at splitting 0.01
    for mode, splitting in (("retarded", 2000.0), ("retarded", 0.01),
                            ("quasistatic", 0.01)):
        for offset in ("same", "bloch"):
            for _ in range(2):
                with pytest.raises(NonConvergent):
                    _ewald(spec, k, offset, mode, splitting)
    assert not latticesums._SPATIAL_TABLES
    # a pass that raises after its beta-free half is built (on the light
    # line, or at the rounding gate) neither stores nor records it
    for _ in range(2):
        with pytest.raises(RayleighAnomaly):
            _ewald(spec, np.array([k, [K0, 0.0]]), "bloch")
    far = build_lattice(1.5, 1.0)
    for _ in range(2):
        with pytest.raises(NonConvergent, match="rounding bound"):
            _ewald(far, reciprocal(far).K, "bloch",
                   splitting=np.sqrt(np.pi) / np.linalg.norm(far.a1))
    assert not latticesums._PASS_HALVES and not latticesums._PASS_KEYS
    side = 2 * latticesums._MAX_INDEX + 1
    for cell in latticesums._CELL_TABLES.values():
        assert len(cell.orders) <= side * side


def test_index_cap_holds_per_lattice():
    # past the cap the order list is not built, so every k fails alike,
    # Gamma (whose own disk would still fit) included
    spec = build_lattice(0.1, 1.0)
    splitting = 13.0 * default_splitting(spec)
    for label in ("Gamma", "M", "K"):
        with pytest.raises(NonConvergent):
            _ewald(spec, reciprocal(spec).point(label), mode="quasistatic",
                   splitting=splitting)


def test_tables_bounded_and_read_only(monkeypatch):
    # the pass-key record has its own bound, set here below the 200 keys
    # recorded once
    monkeypatch.setattr(latticesums, "_PASS_KEY_SIZE", 150)
    _clear_tables()
    twice = set()
    for d0 in np.linspace(0.05, 0.3, 200):
        spec = build_lattice(d0, 0.9)
        for offset in ("same", "a_to_b", "bloch", "bloch"):
            _ewald(spec, reciprocal(spec).K, offset=offset,
                   mode="quasistatic")
        twice.add(reciprocal(spec).K.tobytes())
        # a pass asked for once is recorded, not stored
        _ewald(spec, reciprocal(spec).M, "bloch", "quasistatic")
    for cache in (latticesums._CELL_TABLES, latticesums._SPATIAL_TABLES,
                  latticesums._PASS_HALVES):
        assert len(cache) == latticesums._CACHE_SIZE
    assert len(latticesums._PASS_KEYS) == 150
    assert all(key[-1] in twice for key in latticesums._PASS_HALVES)
    assert not any(key[-1] in twice for key in latticesums._PASS_KEYS)
    tables = [*latticesums._PASS_HALVES.values(),
              *latticesums._CELL_TABLES.values(),
              *latticesums._SPATIAL_TABLES.values()]
    for table in tables:
        for field in dataclasses.fields(table):
            value = getattr(table, field.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, field.name
    with pytest.raises(ValueError):
        tables[-1].weights[0, 0] = 0.0


def test_cold_pass_lets_its_kernels_go(monkeypatch):
    # a 'bloch' pass that will not store its beta-free half drops the
    # half's per-term kernels once it has concatenated them: a cold
    # 128-point pass at d0 0.1, beta 0.9 peaks at about 10.8 KiB per point
    # (tracemalloc; 12.0 KiB with the half's kernels kept alongside)
    spec = build_lattice(0.1, 0.9)
    recip = reciprocal(spec)
    mx, ky = abs(recip.M[0]), float(np.linalg.norm(recip.K))
    k = np.random.default_rng(2).uniform([-mx, -ky], [mx, ky], (128, 2))
    _clear_tables()
    _ewald(spec, recip.M, "bloch")  # the tables, built outside the trace
    tracemalloc.start()
    try:
        cold = _ewald(spec, k, "bloch")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(k) <= 11.4 * 1024
    # a pass decides at its lookup whether it stores its half: one that
    # sees its key unrecorded there (faked: another pass records it while
    # this one runs) lets its kernels go and only records the key; the
    # next request stores the half, and all three keep the cold bits
    key = list(latticesums._PASS_KEYS)[-1]
    with monkeypatch.context() as mp:
        mp.setattr(latticesums, "_pass_lookup", lambda key: (None, False))
        assert _ewald(spec, k, "bloch").D.tobytes() == cold.D.tobytes()
    assert not latticesums._PASS_HALVES
    assert list(latticesums._PASS_KEYS)[-1] == key
    assert _ewald(spec, k, "bloch").D.tobytes() == cold.D.tobytes()
    assert list(latticesums._PASS_HALVES) == [key]


def test_tables_shared_by_threads(monkeypatch):
    # more threads than cores on three lattices with room for two tables
    # per cache: every sum keeps its bits and the caches their bound. The
    # a_to_b sums of a beta sweep at one d0 filter their tables from one
    # cell's frame
    monkeypatch.setattr(latticesums, "_CACHE_SIZE", 2)
    monkeypatch.setattr(latticesums, "_PASS_KEY_SIZE", 2)
    _clear_tables()
    reqs = [LatticeSumRequest(spec=spec, k=t * reciprocal(spec).K,
                              offset=offset)
            for spec in (build_lattice(d0, 0.9) for d0 in (0.08, 0.1, 0.12))
            for t in (0.3, 1.2) for offset in ("same", "a_to_b")]
    reqs += [LatticeSumRequest(spec=spec, k=0.3 * reciprocal(spec).K,
                               offset="a_to_b")
             for spec in (build_lattice(0.1, beta)
                          for beta in np.linspace(0.8, 0.9, 6))]
    want = [_ref_ewald_sum(req).D for req in reqs]
    # and Bloch passes at two betas, which share their beta-free halves
    for d0 in (0.08, 0.1, 0.12):
        for beta in (0.9, 0.95):
            spec = build_lattice(d0, beta)
            k = np.array([reciprocal(spec).M, 0.3 * reciprocal(spec).K])
            reqs.append(LatticeSumRequest(spec=spec, k=k, offset="bloch"))
            want.append(ewald_sum(reqs[-1]).D)
            _clear_tables()
    mismatched, finished = [], []

    def work(seed):
        order = np.random.default_rng(seed).permutation(len(reqs))
        for _ in range(4):
            for i in order:
                if not np.array_equal(ewald_sum(reqs[i]).D, want[i]):
                    mismatched.append(i)
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == list(range(6))
    assert not mismatched
    for cache in (latticesums._CELL_TABLES, latticesums._SPATIAL_TABLES,
                  latticesums._PASS_HALVES, latticesums._PASS_KEYS):
        assert len(cache) <= 2


@settings(max_examples=40, deadline=None)
@given(d0=st.floats(0.05, 0.3), beta1=st.floats(BETA_MIN, BETA_MAX),
       beta2=st.floats(BETA_MIN, BETA_MAX),
       mode=st.sampled_from(("retarded", "quasistatic")),
       frac=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       phi=st.floats(0.0, 2.0 * np.pi),
       rel=st.sampled_from((1e-10, 1e-8, 1e-6, 1e-3)))
def test_warm_pass_is_the_cold_pass(d0, beta1, beta2, mode, frac, phi, rel):
    # a 'bloch' pass asked for twice at beta1 stores its beta-free half,
    # which the pass at beta2 reads: it gives the cold call's bits, or
    # raises as the cold call does. The batch holds M, whose -k is a
    # zone-boundary tie, and rows next to the light line (within the
    # Rayleigh threshold at rel 1e-10)
    recip = reciprocal(build_lattice(d0, beta1))  # the same at every beta
    light = [K0 * (1.0 + s * rel) * np.array([np.cos(phi), np.sin(phi)])
             for s in (1.0, -1.0)]
    batch = np.array([recip.M, -recip.M, recip.M + recip.b1, recip.K,
                      *light])
    one = frac[0] * recip.b1 + frac[1] * recip.b2
    for k in (batch, one):
        def at(beta):
            return _outcome(ewald_sum, LatticeSumRequest(
                spec=build_lattice(d0, beta), k=k, offset="bloch", mode=mode))
        _clear_tables()
        want = at(beta2)
        _clear_tables()
        first = at(beta1)
        _assert_same_bits(at(beta1), first)
        stored = len(latticesums._PASS_HALVES)
        assert stored == (0 if isinstance(first, Exception) else 1)
        _assert_same_bits(at(beta2), want)


def test_pass_key_outlasts_one_off_passes():
    # the key record is not flushed by more one-off passes than the tables'
    # bound: a k-set asked for again after them is stored, then read
    _clear_tables()
    spec = build_lattice(0.1, 0.9)
    recip = reciprocal(spec)
    k = np.array([recip.M, recip.K])
    _ewald(spec, k, "bloch", "quasistatic")
    for t in np.linspace(0.01, 0.99, 4 * latticesums._CACHE_SIZE):
        _ewald(spec, t * recip.b1, "bloch", "quasistatic")
    assert not latticesums._PASS_HALVES
    _ewald(spec, k, "bloch", "quasistatic")
    assert [key[-1] for key in latticesums._PASS_HALVES] == [k.tobytes()]


def test_pass_hit_reads_no_same_site_table():
    # a stored half carries its same-site term count: a hit reads no
    # same-site spatial table, so one evicted before it stays unbuilt
    spec, other = build_lattice(0.1, 0.9), build_lattice(0.1, 0.95)
    recip = reciprocal(spec)
    k = np.array([recip.M, recip.K, 0.3 * recip.b1])
    _clear_tables()
    want = _ewald(other, k, "bloch")
    _clear_tables()
    for _ in range(2):
        _ewald(spec, k, "bloch")
    zero = np.zeros(2).tobytes()
    same_site = [key for key in latticesums._SPATIAL_TABLES
                 if key[-1] == zero]
    assert len(same_site) == 1
    del latticesums._SPATIAL_TABLES[same_site[0]]
    _assert_same_bits(_ewald(other, k, "bloch"), want)
    assert zero not in [key[-1] for key in latticesums._SPATIAL_TABLES]


def test_one_spectral_block_per_pass(monkeypatch):
    # a 'bloch' pass builds one spectral block and sums it in one segment
    # reduction, with D_same's runs in it on a miss and out of it on a hit.
    # Both alternatives measured slower on the cones benchmark (op_s, 10 s
    # runs): a block of its own for D_same, 0.0775 -> 0.0825 s (+6%, 10 of
    # 10 alternating pairs slower), and storing only the kernels, 0.0779 ->
    # 0.0928 s (+19%, 4 of 4)
    calls = []
    spectral_terms = latticesums._spectral_terms

    def counted(*args):
        calls.append(len(args[0]))
        return spectral_terms(*args)

    monkeypatch.setattr(latticesums, "_spectral_terms", counted)
    recip = reciprocal(build_lattice(0.1, 0.9))
    k = np.array([recip.M, recip.K, 0.3 * recip.b1])
    _clear_tables()
    # cold, then the pass that stores its half, then hits at other betas
    blocks = []
    for beta in (0.9, 0.9, 0.95, 1.2):
        calls.clear()
        _ewald(build_lattice(0.1, beta), k, "bloch")
        assert len(calls) == 1, beta
        blocks.append(calls[0])
    # the hits leave D_same's runs out of their block
    assert blocks[0] == blocks[1] > blocks[2] == blocks[3]
