"""Shared helpers for the test suite."""

import dataclasses
import sys

import numpy as np
import pytest

from dipolebands import (LatticeSumRequest, LatticeSumResult, NonConvergent,
                         RayleighAnomaly, build_lattice, default_splitting,
                         latticesums, reciprocal, reduce_to_bz)
from dipolebands.greens import K0


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdict lines after capture has ended."""
    for name in ("tests.test_acceptance", "test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "VERDICTS", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.VERDICTS:
                terminalreporter.write_line(line)
            break


@pytest.fixture
def iso_lattice():
    """Isotropic reference lattice, d0 = 0.1, beta = 1."""
    return build_lattice(0.1, 1.0)


def dist_mod_g(recip, k, target, shells: int = 2) -> float:
    """Distance from k to target modulo reciprocal vectors."""
    k = np.asarray(k, dtype=float)
    target = np.asarray(target, dtype=float)
    best = np.inf
    for i in range(-shells, shells + 1):
        for j in range(-shells, shells + 1):
            g = i * recip.b1 + j * recip.b2
            best = min(best, float(np.linalg.norm(k + g - target)))
    return best


def spectrum(spec, k, mode="retarded"):
    """Sorted detunings of the full 6x6 problem at one k."""
    from dipolebands import assemble, eigensolve

    bs = eigensolve(assemble(spec, k, mode=mode))
    return np.sort(bs.detuning)


# The reference lattice sum: the per-call series that the engine's tables
# replaced, one k and one offset at a time, rebuilding its disks and kernels
# per call. The engine must return the same bits.

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


def _ref_ewald_sum(req, per_term=False, reduce=True):
    """The one-point sum of req at k reduced to the first zone, or at k as
    it is (reduce=False)."""
    spec, tol = req.spec, latticesums._TOLERANCE
    recip = reciprocal(spec)
    k = np.asarray(req.k, dtype=float)
    if reduce:
        k = reduce_to_bz(recip, k)
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


def _ref_pass(req, per_term=False):
    """The pass that ewald_sum makes for req at one k, from the reference:
    (the pass, as a 'bloch' result, and its three sums [D_same, D_ab,
    D_ba] as one-offset results).

    D_ba is conj(D_ab) where no order propagates; elsewhere the a_to_b sum
    at -k_reduced, which is not reduced again (at a zone-boundary tie -k
    reduces to another zone vertex). The terms are those summed, D_ba's
    only where an order propagates, and est_error is the worst.
    """
    same, ab = (_ref_ewald_sum(dataclasses.replace(req, offset=offset),
                               per_term)
                for offset in ("same", "a_to_b"))
    summed = [same, ab]
    ba = dataclasses.replace(ab, D=ab.D.conj())
    if ab.n_propagating:
        ba = _ref_ewald_sum(dataclasses.replace(
            req, k=-ab.k_reduced, offset="a_to_b"), per_term, reduce=False)
        summed.append(ba)
    whole = LatticeSumResult(
        D=np.array([same.D, ab.D, ba.D]),
        n_spatial=sum(s.n_spatial for s in summed),
        n_spectral=sum(s.n_spectral for s in summed),
        est_error=max(s.est_error for s in summed),
        k_reduced=same.k_reduced, n_propagating=same.n_propagating)
    return whole, [same, ab, ba]


def summed_terms(res):
    """sum|terms| of a one-offset sum, read off its est_error (_TOLERANCE/10
    times it over |D|)."""
    return (res.est_error * np.linalg.norm(res.D)
            / (0.1 * latticesums._TOLERANCE))


def minus_k_sum(spec, k, mode="retarded"):
    """The reference a_to_b sum at -k, and 16 u sum|terms| of it (u the
    float epsilon): how far a sum of the same terms in another order, such
    as D_ba = conj(D_ab(k)) where no order propagates, may lie from it."""
    res = _ref_ewald_sum(LatticeSumRequest(
        spec=spec, k=-np.asarray(k, float), offset="a_to_b", mode=mode))
    return res, 16 * np.finfo(float).eps * summed_terms(res)

