"""Free-space dyadic Green's function of a point dipole and its near field.

The retarded dyadic at wavenumber k0 has the closed form

    G(r) = A(r) I + B(r) rhat (x) rhat,
    A = e^{i k0 r}/(4 pi r) (1 + i/(k0 r) - 1/(k0 r)^2),
    B = e^{i k0 r}/(4 pi r) (-1 - 3i/(k0 r) + 3/(k0 r)^2),

which equals (I + grad (x) grad / k0^2) e^{i k0 r}/(4 pi r). The quasistatic
variant keeps only the 1/r^3 near-field term and drops the retardation phase:

    G_qs(r) = (3 rhat (x) rhat - I) / (4 pi k0^2 r^3),

purely real. Lengths are in emitter wavelengths, so k0 = 2 pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

K0 = 2.0 * np.pi  # emitter wavenumber in wavelength units


class ZeroDisplacement(ValueError):
    """The dyadic is singular at r = 0; self-terms are handled elsewhere."""


@dataclass(frozen=True)
class CouplingPair:
    """Coherent and incoherent pair couplings between two dipoles.

    Only the two couplings are kept; the displacement and the dipole
    orientations are the caller's arguments.

    Attributes:
        J: Coherent shift, units of the single-emitter linewidth.
        Gamma: Incoherent (radiative) rate, same units.
    """

    J: float
    Gamma: float


def _prepare(r) -> tuple[float, np.ndarray]:
    r = np.asarray(r, dtype=float)
    if r.shape == (2,):
        r = np.array([r[0], r[1], 0.0])
    if r.shape != (3,):
        raise ValueError(f"displacement must be a 2- or 3-vector, got {r.shape}")
    rn = float(np.linalg.norm(r))
    if rn == 0.0:
        raise ZeroDisplacement("Green dyadic evaluated at zero displacement")
    return rn, r / rn


def scalar_parts(rn: float, k0: float) -> tuple[complex, complex]:
    """Radial coefficients (A, B) of the retarded dyadic A I + B rhat rhat."""
    x = k0 * rn
    pre = np.exp(1j * x) / (4.0 * np.pi * rn)
    a = pre * (1.0 + 1j / x - 1.0 / x**2)
    b = pre * (-1.0 - 3j / x + 3.0 / x**2)
    return a, b


def green_retarded(r) -> np.ndarray:
    """Retarded free-space dyadic at displacement r, wavenumber K0.

    Args:
        r: Displacement, 2-vector (taken in-plane) or 3-vector.

    Returns:
        (3, 3) complex symmetric array, units 1/length.
    """
    rn, rhat = _prepare(r)
    a, b = scalar_parts(rn, K0)
    return a * np.eye(3) + b * np.outer(rhat, rhat)


def green_quasistatic(r) -> np.ndarray:
    """Quasistatic (1/r^3, no retardation) (3, 3) dyadic at displacement r."""
    rn, rhat = _prepare(r)
    g = (3.0 * np.outer(rhat, rhat) - np.eye(3)) / (4.0 * np.pi * K0**2 * rn**3)
    return g.astype(complex)


def coupling(r, p_i, p_j) -> CouplingPair:
    """Photon-mediated couplings between two unit dipoles.

    With lengths in wavelengths and rates in units of the single-emitter
    linewidth gamma_a, the prefactor is 3/2, so

        J     = -(3/2) Re[p_i* . G(r) . p_j],
        Gamma =     3  Im[p_i* . G(r) . p_j].

    Args:
        r: Displacement from emitter j to emitter i.
        p_i, p_j: Unit dipole orientations (3-vectors, may be complex).

    Returns:
        CouplingPair; for p_i = p_j and r -> 0 the rate tends to 1.
    """
    p_i = np.asarray(p_i, dtype=complex)
    p_j = np.asarray(p_j, dtype=complex)
    for p in (p_i, p_j):
        if abs(np.linalg.norm(p) - 1.0) > 1e-12:
            raise ValueError("dipole orientations must be unit vectors")
    amp = complex(np.conj(p_i) @ green_retarded(r) @ p_j)
    return CouplingPair(J=-1.5 * amp.real, Gamma=3.0 * amp.imag)
