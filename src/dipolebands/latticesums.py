"""Quasi-periodic lattice sums of the dipole dyadic via Ewald summation.

Computes D(k, rho) = sum_R e^{-i k.R} G(R + rho) for a 2D Bravais lattice,
where G is the retarded (or quasistatic) dyadic from the greens module, rho
is an in-plane basis offset and the R = 0 term is excluded when rho = 0.

The conditionally convergent retarded sum is split into two absolutely and
rapidly convergent series (spectral over reciprocal vectors, spatial over
screened real-space terms) using error-function screening with splitting
parameter E. Both series are assembled for the scalar sum S and for its
second-derivative matrix T; the dyadic is then

    retarded:    D = S I + T / k0^2
    quasistatic: D = T_static / k0^2   (no identity term: the quasistatic
                 dyadic is the traceless 1/r^3 near field only)

with all derivatives, including d^2/dz^2 at z = 0, taken analytically.

Both series decay as Gaussians, the spectral terms like
exp(-(|k+g|^2 - k0^2)/4E^2) and the spatial ones like exp(-r^2 E^2 +
k0^2/4E^2), so the truncation is fixed before summing: each series is one
vectorised pass over the disk of lattice vectors on which that exponent
stays below ln(10/tolerance) + _MARGIN. Every omitted term is then smaller
than tolerance/10 times the leading scale, and est_error reports that
bound relative to the result.

Spatial-series kernels are evaluated through the Faddeeva function w(z) with
arguments i r E +- k0/(2E) in the upper half plane, which keeps every factor
bounded; e^{i k0 r} erfc(rE + i k0/(2E)) = e^{-r^2 E^2 + k0^2/(4E^2)} w(...).
The quasistatic path reuses the same kernels with the wavenumber set to zero
inside the screening functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, special
from scipy.special import erfc, wofz

from .greens import K0
from .lattice import LatticeSpec, reciprocal, reduce_to_bz

SQRT_PI = np.sqrt(np.pi)

# Extra Gaussian exponent beyond ln(10/tolerance) at the disk edge; it
# covers the polynomial factors (|k+g|^2 in T, 1/r in the spatial kernels)
# and the growing number of terms per ring of the omitted tail.
_MARGIN = 4.0
# Largest lattice index a truncation disk may need; a splitting far from
# the lattice scale exceeds it and is reported as NonConvergent.
_MAX_INDEX = 40

RAYLEIGH_REL_THRESHOLD = 1e-9

_OFFSETS = ("same", "a_to_b", "b_to_a")
_MODES = ("retarded", "quasistatic")


class RayleighAnomaly(ArithmeticError):
    """A diffraction order grazes the light line; the spectral series is singular.

    Attributes:
        direction: Unit vector (k+g)/|k+g| of the grazing order, the normal
            of its |k+g| = k0 circle: a step along it leaves the light line.
    """

    def __init__(self, message: str, direction: np.ndarray):
        super().__init__(message)
        self.direction = direction


class NonConvergent(ArithmeticError):
    """The truncation cannot be reached at this splitting.

    Raised when a summation disk needs lattice indices past the cap, or
    when the spatial prefactor exp(k0^2/4E^2) would overflow.
    """


@dataclass(frozen=True)
class LatticeSumRequest:
    """One lattice-sum evaluation.

    Attributes:
        spec: Lattice geometry.
        k: Bloch vector (2,), reduced internally to the first zone.
        offset: 'same' (rho = 0, R = 0 excluded), 'a_to_b' (rho = +d) or
            'b_to_a' (rho = -d), d the basis offset.
        mode: 'retarded' or 'quasistatic'.
        splitting: Ewald parameter E; None selects sqrt(pi)/|a1|.
        tolerance: Relative truncation target in (0, 1). It sets the
            radius of both summation disks before any term is summed.
            The default 1e-10 is the only target the layers above use
            (no band, degeneracy or CLI call can change it): the 1e-8
            splitting-invariance bound does not hold at a looser one
            (about 2e-6 at 1e-4).
    """

    spec: LatticeSpec
    k: np.ndarray
    offset: str = "same"
    mode: str = "retarded"
    splitting: float | None = None
    tolerance: float = 1e-10


@dataclass(frozen=True)
class LatticeSumResult:
    """Dyadic lattice sum with convergence metadata.

    Attributes:
        D: (3, 3) complex dyadic, units 1/length.
        n_spatial, n_spectral: Number of lattice vectors in the spatial
            and spectral truncation disks, i.e. the terms summed.
        est_error: A priori relative truncation bound, tolerance/10 times
            the summed term magnitudes over |D| (an overestimate).
        n_propagating: Number of propagating spectral orders (|k+g| < k0);
            zero outside the light cone. Always 0 in quasistatic mode.
    """

    D: np.ndarray
    n_spatial: int
    n_spectral: int
    est_error: float
    n_propagating: int = 0


def default_splitting(spec: LatticeSpec) -> float:
    """Balanced Ewald parameter sqrt(pi)/|a1| for this lattice."""
    return float(SQRT_PI / np.linalg.norm(spec.a1))


def _disk(basis: np.ndarray, centre: np.ndarray, reach: float) -> np.ndarray:
    """Vectors v = n @ basis + centre, n integer, with |v| <= reach.

    Column j of inv(basis) is the dual vector d_j with n_j = (v - centre).d_j,
    so the disk lies in the index box |n_j + centre.d_j| <= reach |d_j|.

    Raises:
        NonConvergent: the box needs an index beyond _MAX_INDEX.
    """
    dual = np.linalg.inv(basis)
    mid = -centre @ dual
    half = reach * np.linalg.norm(dual, axis=0)
    if np.any(np.abs(mid) + half > _MAX_INDEX):
        raise NonConvergent(
            f"truncation radius {reach:.3g} needs lattice indices beyond "
            f"{_MAX_INDEX}"
        )
    lo = np.floor(mid - half).astype(int)
    hi = np.ceil(mid + half).astype(int)
    m, n = np.meshgrid(np.arange(lo[0], hi[0] + 1),
                       np.arange(lo[1], hi[1] + 1), indexing="ij")
    v = np.stack([m.ravel(), n.ravel()], axis=1) @ basis + centre
    return v[np.einsum("ij,ij->i", v, v) <= reach * reach]


def _resolve_offset(spec: LatticeSpec, offset: str) -> np.ndarray:
    if offset == "same":
        return np.zeros(2)
    if offset == "a_to_b":
        return np.asarray(spec.basis_offset, dtype=float)
    if offset == "b_to_a":
        return -np.asarray(spec.basis_offset, dtype=float)
    raise ValueError(f"offset must be one of {_OFFSETS}, got {offset!r}")


def _self_corrections(k0_eff: float, e: float) -> tuple[complex, complex]:
    """Coefficients (h0, h2) of the analytic part h(r) = h0 + h2 r^2 + ...

    h is the difference between the screened spatial kernel and the free
    kernel; adding h0 to S and 2 h2 to each diagonal of T implements the
    exclusion of the R = 0 term from same-site sums.
    """
    gau0 = np.exp(k0_eff**2 / (4.0 * e**2))
    ec = erfc(-1j * k0_eff / (2.0 * e)) if k0_eff != 0.0 else 1.0
    h0 = (-2j * k0_eff * ec - (4.0 * e / SQRT_PI) * gau0) / (8.0 * np.pi)
    h2 = (
        2j * k0_eff**3 * ec
        + (8.0 * e**3 + 4.0 * k0_eff**2 * e) * gau0 / SQRT_PI
    ) / (48.0 * np.pi)
    return complex(h0), complex(h2)


def _spectral_terms(spec, recip, k, rho, k0_eff, e, depth):
    """Reciprocal-space terms over |k+g|^2 <= k0^2 + 4 E^2 depth.

    Returns:
        (w, n_prop): w is (n, 5), each row one order's contribution to
        (S, Txx, Txy, Tyy, Tzz); n_prop counts the propagating orders.
    """
    qv = _disk(np.array([recip.b1, recip.b2]), k,
               np.sqrt(k0_eff**2 + 4.0 * e**2 * depth))
    q = np.linalg.norm(qv, axis=1)
    n_prop = 0
    if k0_eff != 0.0:
        grazing = np.abs(q - k0_eff) < RAYLEIGH_REL_THRESHOLD * k0_eff
        if np.any(grazing):
            i = int(np.argmax(grazing))
            raise RayleighAnomaly(
                f"|k+g| within {RAYLEIGH_REL_THRESHOLD:g}*k0 of the light "
                f"line at k={np.asarray(k)}",
                direction=qv[i] / q[i],
            )
        n_prop = int(np.count_nonzero(q < k0_eff))
    gamma = -1j * np.sqrt((k0_eff**2 - q**2).astype(complex))
    phase = np.exp(1j * (qv @ rho)) / (2.0 * spec.cell_area)
    ec = erfc(gamma / (2.0 * e))
    kern = np.zeros_like(gamma)
    np.divide(ec, gamma, out=kern, where=gamma != 0.0)
    pk = phase * kern
    zker = 2.0 * gamma * ec - (4.0 * e / SQRT_PI) * np.exp(
        -(gamma**2) / (4.0 * e**2)
    )
    qx, qy = qv[:, 0], qv[:, 1]
    w = np.stack([pk, -pk * qx * qx, -pk * qx * qy, -pk * qy * qy,
                  0.5 * phase * zker], axis=1)
    return w, n_prop


def _spatial_terms(spec, k, rho, k0_eff, e, depth):
    """Screened real-space terms over |R + rho|^2 E^2 <= depth + k0^2/4E^2.

    The R + rho = 0 term (same-site origin) is left out. Returns the (n, 5)
    per-term contributions to (S, Txx, Txy, Tyy, Tzz).
    """
    gau_cap = k0_eff**2 / (4.0 * e**2)
    if gau_cap > 650.0:
        raise NonConvergent(
            f"splitting {e:g} too small: spatial prefactor exp({gau_cap:.1f}) "
            "overflows"
        )
    rvecs = _disk(np.array([spec.a1, spec.a2]), rho,
                  np.sqrt(depth + gau_cap) / e)
    rv = np.linalg.norm(rvecs, axis=1)
    keep = rv > 0.0
    rvecs, rv = rvecs[keep], rv[keep]
    # the Bloch phase is carried by the lattice vector R alone
    pre = np.exp(-1j * ((rvecs - rho) @ k)) / (8.0 * np.pi)
    gau = np.exp(-(rv**2) * e**2 + gau_cap)
    tp = gau * wofz(1j * rv * e + k0_eff / (2.0 * e))
    tm = gau * wofz(1j * rv * e - k0_eff / (2.0 * e))
    f = tp + tm
    fp = 1j * k0_eff * (tm - tp) - (4.0 * e / SQRT_PI) * gau
    fpp = -(k0_eff**2) * f + (8.0 * rv * e**3 / SQRT_PI) * gau
    phi = f / rv
    phip = fp / rv - f / rv**2
    phipp = fpp / rv - 2.0 * fp / rv**2 + 2.0 * f / rv**3

    c1 = pre * phip / rv  # delta_ab coefficient; also the zz second derivative
    c2 = pre * (phipp - phip / rv)  # rhat_a rhat_b coefficient (in-plane)
    ux = rvecs[:, 0] / rv
    uy = rvecs[:, 1] / rv
    return np.stack([pre * phi, c1 + c2 * ux * ux, c2 * ux * uy,
                     c1 + c2 * uy * uy, c1], axis=1)


def _dyadic(v, retarded: bool) -> np.ndarray:
    """The 3x3 dyadic from (S, Txx, Txy, Tyy, Tzz)."""
    s, txx, txy, tyy, tzz = v
    d = np.array([[txx, txy, 0.0], [txy, tyy, 0.0], [0.0, 0.0, tzz]]) / K0**2
    if retarded:
        d = d + s * np.eye(3)
    return d


def ewald_sum(req: LatticeSumRequest) -> LatticeSumResult:
    """Evaluate one quasi-periodic dyadic lattice sum.

    Args:
        req: Request; see LatticeSumRequest.

    Returns:
        LatticeSumResult. The result is independent of the splitting
        parameter within the truncation tolerance; same-site requests
        subtract the screened R = 0 term analytically.

    Raises:
        ValueError: unknown mode or offset, non-finite k, a tolerance
            outside (0, 1), or a splitting that is not finite and positive.
        RayleighAnomaly: retarded mode with |k+g| on the light line.
        NonConvergent: truncation disk past the index cap, or spatial
            prefactor overflow (e.g. extreme splitting override).
    """
    if req.mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {req.mode!r}")
    tol = float(req.tolerance)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    k = np.asarray(req.k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError(f"k must be finite, got {k}")
    spec = req.spec
    recip = reciprocal(spec)
    k = reduce_to_bz(recip, k)
    rho = _resolve_offset(spec, req.offset)
    e = default_splitting(spec) if req.splitting is None else float(req.splitting)
    if not (np.isfinite(e) and e > 0.0):
        raise ValueError(f"splitting must be finite and positive, got {e}")
    retarded = req.mode == "retarded"
    k0_eff = K0 if retarded else 0.0
    depth = np.log(10.0 / tol) + _MARGIN

    w_g, n_prop = _spectral_terms(spec, recip, k, rho, k0_eff, e, depth)
    w_r = _spatial_terms(spec, k, rho, k0_eff, e, depth)
    total = w_g.sum(axis=0) + w_r.sum(axis=0)
    if req.offset == "same":
        h0, h2 = _self_corrections(k0_eff, e)
        total += np.array([h0, 2.0 * h2, 0.0, 2.0 * h2, 2.0 * h2])

    d = _dyadic(total, retarded)
    # each omitted term is below tol/10 of the leading scale, so the tail
    # is bounded by tol/10 times the summed magnitudes, component-wise
    magnitude = _dyadic(np.abs(w_g).sum(axis=0) + np.abs(w_r).sum(axis=0),
                        retarded)
    return LatticeSumResult(
        D=d,
        n_spatial=len(w_r),
        n_spectral=len(w_g),
        est_error=float(0.1 * tol * np.linalg.norm(magnitude)
                        / np.linalg.norm(d)),
        n_propagating=n_prop,
    )


def _rolloff(x: np.ndarray) -> np.ndarray:
    """Radial truncation weight: 1 for x <= 1/2, C2 descent to 0 at x = 1."""
    t = np.clip(2.0 * x - 1.0, 0.0, 1.0)
    return 1.0 - t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _bessel_tail(order: int, zlo: float) -> float:
    """Integral of J_order(z)/z^2 over [zlo, inf).

    Head by adaptive quadrature, then half-period chunks whose alternating
    partial sums are repeatedly averaged; the averaged truncation error is
    far below the quadrature tolerance.
    """
    z0 = max(zlo, 12.0)
    head = 0.0
    if z0 > zlo:
        head = integrate.quad(
            lambda z: special.jv(order, z) / z**2, zlo, z0, limit=300)[0]
    partials = []
    total = 0.0
    lo = z0
    for _ in range(28):
        hi = lo + np.pi
        total += integrate.quad(
            lambda z: special.jv(order, z) / z**2, lo, hi, limit=60)[0]
        partials.append(total)
        lo = hi
    seq = partials[-18:]
    while len(seq) > 1:
        seq = [0.5 * (seq[i] + seq[i + 1]) for i in range(len(seq) - 1)]
    return head + seq[0]


def _tail_radial(order: int, kn: float, cutoff: float) -> float:
    """Integral of (1 - w(r/L)) J_order(kn r) / r^2 over [L/2, inf)."""
    inner = integrate.quad(
        lambda r: (1.0 - _rolloff(r / cutoff))
        * special.jv(order, kn * r) / r**2,
        0.5 * cutoff, cutoff, limit=300)[0]
    if kn * cutoff < 1e-9:
        outer = 1.0 / cutoff if order == 0 else 0.0
    else:
        outer = kn * _bessel_tail(order, kn * cutoff)
    return inner + outer


def direct_sum_quasistatic(
    req: LatticeSumRequest, cutoff_radius: float | None = None
) -> LatticeSumResult:
    """Real-space quasistatic sum over |R + rho| <= cutoff (oracle).

    The quasistatic dyadic decays like 1/r^3, so the sum converges
    absolutely, but a sharp circular truncation leaves an O(1/cutoff)
    tail at k = 0 and boundary-ring oscillation elsewhere. The sum is
    therefore taken with a smooth radial rolloff over the outer half of
    the disk and the rolled-off remainder is restored by its continuum
    estimate (an angular-harmonic reduction to radial Bessel integrals).
    The residual truncation error decays faster than any power of the
    cutoff. Shares no machinery with the Ewald path; this is the
    validation oracle for it.

    Args:
        req: Request with mode 'quasistatic'.
        cutoff_radius: Inclusion radius; default 60 |a1|.

    Returns:
        LatticeSumResult; est_error is the relative bare magnitude of the
        outermost one-|a1| annulus (a deliberate overestimate).
    """
    if req.mode != "quasistatic":
        raise ValueError("direct summation is provided for quasistatic mode only")
    spec = req.spec
    k = reduce_to_bz(reciprocal(spec), req.k)
    rho = _resolve_offset(spec, req.offset)
    a1n = float(np.linalg.norm(spec.a1))
    cutoff = 60.0 * a1n if cutoff_radius is None else float(cutoff_radius)

    a = np.array([spec.a1, spec.a2])
    height = spec.cell_area / a1n  # shortest lattice-line spacing
    mmax = int(np.ceil((cutoff + np.linalg.norm(rho)) / height)) + 2
    m = np.arange(-mmax, mmax + 1)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    mn = np.stack([mm.ravel(), nn.ravel()], axis=1)
    rr = mn @ a
    rvecs = rr + rho
    r = np.linalg.norm(rvecs, axis=1)
    keep = (r > 0.0) & (r <= cutoff)
    rvecs, r, rr = rvecs[keep], r[keep], rr[keep]

    phase = np.exp(-1j * (rr @ k))
    inv = 1.0 / (4.0 * np.pi * K0**2 * r**3)
    ux = rvecs[:, 0] / r
    uy = rvecs[:, 1] / r

    def _accum(w):
        d = np.zeros((3, 3), dtype=complex)
        d[0, 0] = np.sum(w * inv * (3.0 * ux * ux - 1.0))
        d[0, 1] = np.sum(w * inv * (3.0 * ux * uy))
        d[1, 1] = np.sum(w * inv * (3.0 * uy * uy - 1.0))
        d[1, 0] = d[0, 1]
        d[2, 2] = np.sum(w * inv * (-1.0))
        return d

    d = _accum(phase * _rolloff(r / cutoff))

    # Continuum estimate of the rolled-off remainder (Poisson g = 0 term).
    # In-plane components split into m = 0 and m = 2 angular harmonics of
    # (3 rhat rhat - I); azimuthal integration against exp(-i k.u) leaves
    # J0 and J2 radial weights.
    kn = float(np.linalg.norm(k))
    i0 = _tail_radial(0, kn, cutoff)
    i2 = _tail_radial(2, kn, cutoff)
    if kn * cutoff < 1e-9:
        c2t, s2t = 0.0, 0.0
    else:
        theta = np.arctan2(k[1], k[0])
        c2t, s2t = np.cos(2.0 * theta), np.sin(2.0 * theta)
    pref = np.exp(1j * (k @ rho)) / (2.0 * K0**2 * spec.cell_area)
    d[0, 0] += pref * (0.5 * i0 - 1.5 * c2t * i2)
    d[1, 1] += pref * (0.5 * i0 + 1.5 * c2t * i2)
    d[0, 1] += pref * (-1.5 * s2t * i2)
    d[1, 0] = d[0, 1]
    d[2, 2] += pref * (-i0)

    outer = r > cutoff - a1n
    d_outer = _accum(np.where(outer, phase, 0.0))
    denom = np.linalg.norm(d)
    est = float(np.linalg.norm(d_outer) / denom) if denom > 0 else np.inf
    return LatticeSumResult(
        D=d, n_spatial=int(np.count_nonzero(keep)), n_spectral=0, est_error=est
    )


def sum_diagnostics(spec: LatticeSpec, k) -> dict:
    """Cross-checks of the Ewald engine at one k-point.

    Runs the same-sublattice (offset 'same') ewald_sum at splittings E, 2E
    and E/2 for both modes and compares the quasistatic result against the
    direct-sum oracle.

    Returns:
        Dict with relative deviations per mode ('retarded_splitting_dev',
        'quasistatic_splitting_dev', 'quasistatic_direct_dev'), term counts,
        and 'rayleigh_anomaly' (None, or the message when the retarded
        series is singular at this k).
    """
    e0 = default_splitting(spec)
    report: dict = {
        "k": np.asarray(k, dtype=float).tolist(),
        "splitting": e0,
        "rayleigh_anomaly": None,
    }

    def _dev(mode):
        results = [
            ewald_sum(LatticeSumRequest(spec=spec, k=k, mode=mode,
                                        splitting=s))
            for s in (e0, 2.0 * e0, 0.5 * e0)
        ]
        base = np.linalg.norm(results[0].D)
        dev = max(
            np.linalg.norm(results[i].D - results[0].D) / base
            for i in (1, 2)
        )
        return dev, results[0]

    try:
        dev, res = _dev("retarded")
        report["retarded_splitting_dev"] = dev
        report["retarded_terms"] = (res.n_spatial, res.n_spectral)
        report["n_propagating"] = res.n_propagating
    except RayleighAnomaly as exc:
        report["rayleigh_anomaly"] = str(exc)

    dev, res = _dev("quasistatic")
    report["quasistatic_splitting_dev"] = dev
    report["quasistatic_terms"] = (res.n_spatial, res.n_spectral)
    direct = direct_sum_quasistatic(
        LatticeSumRequest(spec=spec, k=k, mode="quasistatic")
    )
    report["quasistatic_direct_dev"] = float(
        np.linalg.norm(direct.D - res.D) / np.linalg.norm(direct.D)
    )
    return report
