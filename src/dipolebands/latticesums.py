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
stays below _DEPTH = ln(10/_TOLERANCE) + _MARGIN. Every omitted term is
then smaller than _TOLERANCE/10 times the leading scale, and est_error
reports that bound relative to the result. The same summed magnitudes
bound the rounding error, u sum|terms|/|D| with u the float epsilon; where
that passes _MAX_ROUNDING at some k, the terms cancel too many digits (a
splitting far from balanced) and ewald_sum raises NonConvergent naming k.

Spatial-series kernels are evaluated through the Faddeeva function w(z) with
arguments i r E +- k0/(2E) in the upper half plane, which keeps every factor
bounded; e^{i k0 r} erfc(rE + i k0/(2E)) = e^{-r^2 E^2 + k0^2/(4E^2)} w(...).
The quasistatic path reuses the same kernels with the wavenumber set to zero
inside the screening functions.

Both special functions are evaluated here, without scipy. w(z) is
Weideman's rational expansion (J. A. C. Weideman, SIAM J. Numer. Anal. 31,
1497 (1994)) with N = 36 terms, whose coefficients are one FFT at import;
over the arguments the sums use (i r E +- k0/2E with r E <= 6 and k0/2E
<= 8, real x <= 6, -iy with y <= 3.5) it agrees with mpmath to about
1e-14 relative. Each spatial table calls it once, on the +k0/2E
arguments and the self-correction's k0/2E: w(-conj z) = conj w(z) gives
the -k0/2E ones. The spectral erfc is evaluated per k, and must give
a k the same bits alone and in a batch, which whole-array complex
arithmetic does not guarantee. So it works element by element: the
evanescent orders, which have a real gamma/2E >= 0 and are most terms (all
of them in quasistatic mode), go through libm's erfc, and the few
propagating ones, erfc(-iy) = e^{y^2} w(y), through one one-element call
of the same w each.

The default splitting is sqrt(pi)/|a1|, in retarded mode raised where
needed so that k0^2/4E^2 <= _MAX_GAU: the spectral terms grow like
e^{k0^2/4E^2} before they cancel, and past that cap (from d0 of about 1)
the sum loses its digits (the high-frequency rule of F. Capolino, D. R.
Wilton and W. A. Johnson, IEEE Trans. Antennas Propag. 53, 2977 (2005)).

Everything that does not depend on k is built once per lattice and kept in
two small least-recently-used caches:

- a cell table, keyed on (a1, a2, mode, E): the reciprocal
  lattice and one list of reciprocal orders g, in "ij" order, that holds
  every order of the spectral disk about any zone-reduced k; and one
  list of lattice vectors R, the frame, in "ij" order too, that holds
  every R of the spatial disk |R + rho| <= reach about any basis offset
  rho with |rho| <= |a1| (build_lattice gives at most 0.866 |a1|);
- a spatial table, keyed on (a1, a2, rho, mode, E): the R + rho
  disk and, per lattice vector, the k-free weights of its five columns
  (the Faddeeva kernels phi, phi' and phi'' - phi'/r times the direction
  factors, see _SpatialTable), with their summed magnitudes, and for the
  same-site table (rho = 0) the R = 0 exclusion.

The keys hold no beta: a1 and a2 do not depend on it, so every lattice of
one d0 shares the cell table and the same-site (rho = 0) spatial table.
An offset's table is built by filtering the frame to its disk, as each k
filters the order list: the same vectors in the same order as a _disk
about rho, bit for bit, with rho's own index-cap test (the frame's box is
cut at the cap, which loses no vector of a disk that passes it). So _disk
runs twice per cell table, and a new beta pays only for its offset's
kernels. Per k, ewald_sum reduces k to the first zone once (the result
carries it as k_reduced), keeps the rows of the order list with k + g
inside the spectral disk and evaluates the offset-free spectral kernels
(erfc and the z kernel) on them; then it weighs those kernels by the
phase e^{i(k+g).rho}, and sums the spatial weights against the Bloch
phases e^{-ik.R}. The Bloch
phase has unit modulus, so the spatial terms' summed magnitudes, which
enter est_error and the rounding bound, are the table's at every k. The
spectral terms are those of a fresh _disk about k, in the same order, so
the result does not depend on what the caches hold. The index cap is a
property of the lattice, not of k: when the order list or the spatial disk
would need an index past it, the table is not built and every k fails with
NonConvergent. A build that raises stores nothing, and every table array is
read-only.

Every request is one pass over its k, an array (..., 2) whose N points,
in C order, are summed together, and every pass sums the three sums of a
Bloch matrix: D_same(k), D_ab(k) (rho = +d, d the basis offset) and
D_ba(k). The offset only picks what D returns: "bloch" the three on a
leading axis of 3, "same", "a_to_b" and "b_to_a" one of them. Per spatial
table one product, np.einsum("nr,rc->nc"), of the (N, n) Bloch phases and
the (n, 5) weights, whose row n is bitwise the one-point product, and the
spectral terms of all N laid out as runs, one per k in its one-point
order. One segment reduction (np.add.reduceat) sums the runs (an empty
one, left by a small splitting override, is zero), and the sum of a run
depends on its own terms only, so each point is bitwise the one-point sum
at its k. Per-k result fields (D, k_reduced, n_propagating) follow k's
leading shape, empty for one point; n_spatial and n_spectral are the
terms summed over the pass and est_error is its worst, whichever offset
is asked for, so the counts of N one-point calls and of one batch agree.
The working set grows as N times the terms of one k, so bloch.solve_k
hands the sums at most bloch._PASS_SIZE points per pass: a 128-point pass
at d0 0.1, beta 0.9 over the zone peaks at about 10.8 KB per k cold and
5.8 KB per k when it reads a stored beta-free half (tracemalloc). The
(terms, 5) spectral block is its largest array, and it is written column
by column in place (see _spectral_terms).

The dyadic is even, so D_ba(k) = D_ab(-k). Where no diffraction order
propagates (every quasistatic row, and every retarded row with
n_propagating 0) the sums carry no radiative part and D_ab(-k) =
conj(D_ab(k)): such a row takes D_ba = conj(D_ab) from the same pass,
exactly, with D_ab's summed magnitudes, so that the Bloch matrix's
coupling blocks are exactly Hermitian there. A row where an order
propagates sums D_ba as its own a_to_b run, reversed, under the conjugate
phases: the order list is symmetric (its reverse is its negation), so the
run about -k_reduced is the one about k_reduced negated and reversed, and
every term is even in k + g, so k + g is left as it is. Those rows' runs,
last row first, are reversed as a whole into one more block of the pass,
and their spatial terms are those of the a_to_b table under the conjugate
Bloch phase. Where -k reduces to -k_reduced, D_ba is bitwise the a_to_b
sum at -k. Where it does not (ties on the zone boundary, such as M inside
the light cone), that sum's Bloch phases differ from these by rounding,
and D_ba lies within the rounding bound, a small multiple of u
sum|terms|, of it, as a conjugated row does. Both rules depend on k
alone, so each row is still bitwise its one-point sum; no pass reduces
-k, and a pass in which no order propagates sums no -k block.
k_reduced and n_propagating are D_same's.

Only the basis offset rho depends on beta, so a pass is built in two halves.
The beta-free half (_PassHalf) is the zone reduction of k, the run lengths,
every run's k + g and spectral kernels, n_propagating, and D_same's five
columns (spectral, then spatial, then the self term) with their summed
magnitudes and term counts. The rho half weighs the kernels by
e^{i(k+g).rho} into the a_to_b runs and the reversed -k block, sums the
a_to_b table against its Bloch phases, applies the rounding gate and
conjugates D_ab into the other rows' D_ba. A pass that builds its half sums
D_same's runs in the same segment reduction, ahead of the a_to_b runs, and
keeps D_same's rows for the half; a pass that reads a stored half leaves
that block out and prepends the stored rows. Every term and every run sum
depends on its own inputs only, so a hit returns every result field bitwise
as a cold call does; it reads no same-site spatial table. A third
least-recently-used cache, of at most _CACHE_SIZE entries, keeps beta-free
halves read-only, keyed on the cell table's key (which holds no beta) and
the bytes of the pass's k. A half is stored on its key's second request
only, decided at the pass's one lookup (_pass_lookup: the stored half, and
whether the key is recorded). A pass that finds its key recorded stores its
half once it has succeeded (_pass_done), any other records the key then: so
a pass asked for once keeps no arrays (a Newton stencil, classify's rays, a
path point) and lets its half's kernels go as soon as it has read them,
while a k-set that every lattice of one d0 solves, such as the degeneracy
scan's grid or critical_beta's M, is summed twice and then read. The one-off
passes fill the key record too, so it has a bound of its own, _PASS_KEY_SIZE
keys, least recently used out: find-cones records about 20 keys per search,
and a full record holds about 0.36 MB of keys on find-cones and 0.15 MB on
bands paths. A pass that raises stores and records nothing. The Rayleigh
test holds on a hit (a half that grazes is never stored), and the
NonConvergent checks run in the same order, the rounding gate on every row
of every call. On twelve find-cones searches at d0 0.1 the stored halves
hold about 1.6 MB (tracemalloc). Two other layouts were slower on the cones
benchmark (op_s, 10 s runs): D_same in a block of its own, 0.0775 -> 0.0825
s (+6%, slower in 10 of 10 alternating pairs), and a half of the kernels
alone, 0.0779 -> 0.0928 s (+19%, 4 of 4).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .greens import K0
from .lattice import LatticeSpec, ReciprocalSpec, reciprocal, reduce_to_bz

SQRT_PI = np.sqrt(np.pi)

# Relative truncation target of every sum. The 1e-8 splitting-invariance
# bound does not hold at a looser one (about 2e-6 at 1e-4).
_TOLERANCE = 1e-10
# Extra Gaussian exponent beyond ln(10/_TOLERANCE) at the disk edge; it
# covers the polynomial factors (|k+g|^2 in T, 1/r in the spatial kernels)
# and the growing number of terms per ring of the omitted tail.
_MARGIN = 4.0
# Gaussian exponent at the edge of both summation disks.
_DEPTH = np.log(10.0 / _TOLERANCE) + _MARGIN
# Largest lattice index a truncation disk may need; a splitting far from
# the lattice scale exceeds it and is reported as NonConvergent.
_MAX_INDEX = 40
# Largest k0^2/4E^2 the default splitting admits; at 9.6 it is the balanced
# sqrt(pi)/|a1| up to d0 of about 1.009.
_MAX_GAU = 9.6
# Largest rounding bound u sum|terms|/|D| (u = float eps) a sum may carry;
# past it the terms cancel too many digits and the sum is NonConvergent.
_MAX_ROUNDING = 1e-10
# Radius of the direct-sum oracle's disk, in units of |a1|.
_ORACLE_CUTOFF = 60.0

RAYLEIGH_REL_THRESHOLD = 1e-9

_OFFSETS = ("same", "a_to_b", "b_to_a")
_MODES = ("retarded", "quasistatic")


class RayleighAnomaly(ArithmeticError):
    """A diffraction order grazes the light line; the spectral series is singular.

    The message names the first grazing k of the request.

    Attributes:
        direction: Unit vector (k+g)/|k+g| of the grazing order, the normal
            of its |k+g| = k0 circle: a step along it leaves the light line.
            Shaped like the request's k: for a batch, row n is the first
            grazing order's normal at k[n], and zero where k[n] does not
            graze.
    """

    def __init__(self, message: str, direction: np.ndarray):
        super().__init__(message)
        self.direction = direction


class NonConvergent(ArithmeticError):
    """The truncation cannot be reached at this splitting.

    Raised when a summation disk needs lattice indices past the cap, when
    the spatial prefactor exp(k0^2/4E^2) would overflow, or when the terms
    cancel past the rounding bound _MAX_ROUNDING.
    """


@dataclass(frozen=True)
class LatticeSumRequest:
    """One lattice-sum evaluation.

    Attributes:
        spec: Lattice geometry.
        k: Bloch vectors, an array (..., 2); each is reduced internally
            to the first zone.
        offset: Which sums of the pass D holds (every request sums the
            three of a Bloch matrix at k in one pass): 'bloch' all three,
            D (3, ..., 3, 3) with k's leading shape between, holding
            [D_same(k), D_ab(k), D_ba(k)]; or one of them, 'same' (rho =
            0, R = 0 excluded), 'a_to_b' (rho = +d) or 'b_to_a' (rho = -d,
            D_ba(k) = D_ab(-k)), d the basis offset. D_ba is conj(D_ab),
            exactly, where no order propagates, and the row's own a_to_b
            run reversed under the conjugate phases where one does (see
            the module docstring).
        mode: 'retarded' or 'quasistatic'.
        splitting: Ewald parameter E; None selects default_splitting.
    """

    spec: LatticeSpec
    k: np.ndarray
    offset: str = "same"
    mode: str = "retarded"
    splitting: float | None = None


@dataclass(frozen=True)
class LatticeSumResult:
    """Dyadic lattice sum with convergence metadata.

    D, k_reduced and n_propagating follow k's leading shape (numpy scalars
    for one k); the other fields describe the whole request.

    Attributes:
        D: (..., 3, 3) complex dyadics, units 1/length; a 'bloch' request
            stacks its three sums on a leading axis of 3, D_ba =
            conj(D_ab) exactly at the rows where no order propagates.
        n_spatial, n_spectral: Number of lattice vectors in the spatial
            and spectral truncation disks, i.e. the terms the pass summed,
            whichever offset was asked for: over all k of a batch, those
            of D_same and D_ab and of D_ba's -k block, which only the rows
            where an order propagates sum.
        est_error: A priori relative truncation bound, _TOLERANCE/10 times
            the summed term magnitudes over |D| (an overestimate); the
            largest over a batch and over the three sums of the pass (a
            conjugated D_ba carries D_ab's magnitudes).
        k_reduced: (..., 2) the zone-reduced k the series were summed at,
            reduce_to_bz(reciprocal(spec), k); callers read the light
            cone off it instead of reducing k again.
        n_propagating: Number of propagating spectral orders (|k+g| < k0);
            zero outside the light cone. Always 0 in quasistatic mode.
    """

    D: np.ndarray
    n_spatial: int
    n_spectral: int
    est_error: float
    k_reduced: np.ndarray
    n_propagating: int | np.ndarray = 0


def default_splitting(spec: LatticeSpec, mode: str = "retarded") -> float:
    """Ewald parameter sqrt(pi)/|a1|, raised in retarded mode to at least
    k0/(2 sqrt(_MAX_GAU))."""
    e = float(SQRT_PI / np.linalg.norm(spec.a1))
    if mode == "retarded":
        e = max(e, K0 / (2.0 * math.sqrt(_MAX_GAU)))
    return e


def _index_box(dual: np.ndarray, centre: np.ndarray, reach: float,
               clip: bool = False):
    """The index box (lo, hi) of the disk |n @ basis + centre| <= reach.

    Column j of dual = inv(basis) is the dual vector d_j with
    n_j = (v - centre).d_j, so the disk lies in the box
    |n_j + centre.d_j| <= reach |d_j|.

    Raises:
        NonConvergent: the box needs an index beyond _MAX_INDEX (with clip,
            the box is cut at +-_MAX_INDEX instead).
    """
    mid = -centre @ dual
    half = reach * np.linalg.norm(dual, axis=0)
    lo, hi = mid - half, mid + half
    if np.any(np.abs(mid) + half > _MAX_INDEX):
        if not clip:
            raise NonConvergent(
                f"truncation radius {reach:.3g} needs lattice indices beyond "
                f"{_MAX_INDEX}"
            )
        lo, hi = np.maximum(lo, -_MAX_INDEX), np.minimum(hi, _MAX_INDEX)
    return np.floor(lo).astype(int), np.ceil(hi).astype(int)


def _disk(basis: np.ndarray, centre: np.ndarray, reach: float,
          clip: bool = False) -> np.ndarray:
    """Vectors v = n @ basis + centre, n integer, with |v| <= reach.

    n runs over the index box of _index_box in "ij" order (first index
    slowest).

    Raises:
        NonConvergent: as _index_box.
    """
    lo, hi = _index_box(np.linalg.inv(basis), centre, reach, clip)
    n = np.empty((hi[0] - lo[0] + 1, hi[1] - lo[1] + 1, 2), dtype=int)
    n[..., 0] = np.arange(lo[0], hi[0] + 1)[:, None]
    n[..., 1] = np.arange(lo[1], hi[1] + 1)
    v = n.reshape(-1, 2) @ basis + centre
    return v[np.einsum("ij,ij->i", v, v) <= reach * reach]


def _resolve_offset(spec: LatticeSpec, offset: str) -> np.ndarray:
    if offset == "same":
        return np.zeros(2)
    if offset == "a_to_b":
        return np.asarray(spec.basis_offset, dtype=float)
    if offset == "b_to_a":
        return -np.asarray(spec.basis_offset, dtype=float)
    raise ValueError(f"offset must be one of {_OFFSETS}, or 'bloch' for "
                     f"ewald_sum, got {offset!r}")


def _weideman_coefficients(n: int, l: float) -> np.ndarray:
    """The n coefficients of Weideman's polynomial p, highest power first.

    They are one FFT of e^{-t^2}(L^2 + t^2) sampled at t = L tan(theta/2)
    on 4n equispaced angles theta (Weideman 1994, section 4).
    """
    m = 2 * n
    t = l * np.tan(np.arange(1 - m, m) * (np.pi / (2 * m)))
    f = np.concatenate([[0.0], np.exp(-t * t) * (l * l + t * t)])
    return (np.fft.fft(np.fft.fftshift(f)).real / (2 * m))[n:0:-1]


# over the sums' arguments 32 terms leave 3e-13 relative error, 36 under 1e-14
_W_N = 36
_W_L = math.sqrt(_W_N / math.sqrt(2.0))
_W_COEFFS = _weideman_coefficients(_W_N, _W_L)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _wofz(z: np.ndarray) -> np.ndarray:
    """The Faddeeva function w(z) on an array of z with Im z >= 0.

    Weideman's expansion: with Z = (L + iz)/(L - iz),
    w(z) = 2 p(Z)/(L - iz)^2 + pi^(-1/2)/(L - iz). p is evaluated as the
    powers of Z (np.vander) times its coefficients. An element's bits may
    depend on its neighbours, so a per-k value calls it on one element.
    """
    iz = 1j * z
    d = _W_L - iz
    p = np.vander((_W_L + iz) / d, _W_N) @ _W_COEFFS
    return 2.0 * p / (d * d) + _INV_SQRT_PI / d


def _erfc_spectral(x: np.ndarray) -> np.ndarray:
    """erfc(gamma/2E) over the spectral terms, element by element.

    An evanescent order has a real x = gamma/2E >= 0 (libm's erfc); a
    propagating one has x = -iy, y > 0, and erfc(-iy) = e^{y^2} w(y), one
    _wofz call per order.
    """
    ec = np.fromiter(map(math.erfc, x.real.tolist()), float,
                     len(x)).astype(complex)
    if x.imag.any():
        prop = np.flatnonzero(x.imag)
        ec[prop] = [math.exp(y * y) * _wofz(np.array([y]))[0]
                    for y in (-x.imag[prop]).tolist()]
    return ec


def _self_corrections(k0_eff: float, e: float,
                      w_b: complex) -> tuple[complex, complex]:
    """Coefficients (h0, h2) of the analytic part h(r) = h0 + h2 r^2 + ...

    h is the difference between the screened spatial kernel and the free
    kernel; adding h0 to S and 2 h2 to each diagonal of T implements the
    exclusion of the R = 0 term from same-site sums. w_b is w(k0/2E), which
    gives erfc(-i k0/2E) = e^{k0^2/4E^2} w(k0/2E).
    """
    gau0 = np.exp(k0_eff**2 / (4.0 * e**2))
    ec = gau0 * w_b if k0_eff != 0.0 else 1.0
    h0 = (-2j * k0_eff * ec - (4.0 * e / SQRT_PI) * gau0) / (8.0 * np.pi)
    h2 = (
        2j * k0_eff**3 * ec
        + (8.0 * e**3 + 4.0 * k0_eff**2 * e) * gau0 / SQRT_PI
    ) / (48.0 * np.pi)
    return complex(h0), complex(h2)


def _read_only(table):
    """The table, with every array field made read-only (tables are shared)."""
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return table


@dataclass(frozen=True)
class _CellTable:
    """The k-independent part of the spectral series on one lattice, and
    the offset-free part of the spatial one.

    Attributes:
        recip: Reciprocal lattice of (a1, a2).
        reach: Spectral disk radius sqrt(k0^2 + 4 E^2 _DEPTH).
        orders: (n, 2) reciprocal vectors g in "ij" order: every order of
            the spectral disk |k + g| <= reach about any zone-reduced k.
        area2: Twice the cell area.
        dual: inv([a1, a2]), whose columns are the dual vectors of the
            spatial disks' index boxes.
        spatial_reach: Spatial disk radius sqrt(_DEPTH + k0^2/4E^2) / E.
        frame: (n, 2) lattice vectors n @ [a1, a2] in "ij" order: every R
            of the spatial disk |R + rho| <= spatial_reach about any offset
            |rho| <= |a1| whose index box lies within the cap.
    """

    recip: ReciprocalSpec
    reach: float
    orders: np.ndarray
    area2: float
    dual: np.ndarray
    spatial_reach: float
    frame: np.ndarray


@dataclass(frozen=True)
class _SpatialTable:
    """The k-independent part of the spatial series for one offset rho.

    Row n belongs to the lattice vector R = lattice[n] with r = |R + rho|
    on the screened disk (R + rho = 0 left out). The series at k is
    sum_n e^{-i k.R_n} weights[n]; the Bloch phase has unit modulus, so
    its term magnitudes are those of the weights at every k.

    Attributes:
        lattice: (n, 2) lattice vectors R, which carry the Bloch phase.
        weights: (n, 5) the terms' k-free factors on (S, Txx, Txy, Tyy,
            Tzz): [phi, phi'/r + c2 ux^2, c2 ux uy, phi'/r + c2 uy^2,
            phi'/r] / 8 pi, with phi(r) the screened radial kernel, c2 =
            phi'' - phi'/r and (ux, uy) = (R + rho)/r.
        magnitudes: (5,) sum over n of |weights|, the spatial series'
            summed term magnitudes at any k.
        self_term: (5,) the R = 0 exclusion of a same-site (rho = 0)
            table; None for any other offset.
    """

    lattice: np.ndarray
    weights: np.ndarray
    magnitudes: np.ndarray
    self_term: np.ndarray | None


@dataclass(frozen=True)
class _PassHalf:
    """The part of a pass at N points k that no basis offset rho enters.

    Attributes:
        k: (N, 2) the points reduced to the first zone.
        counts: (N,) the run lengths.
        qv, kern, zker: Per term of those runs, k + g and its spectral
            kernels (_spectral_kernels); None in a pass that does not
            store its half, once it has read them.
        n_prop: (N,) propagating orders per point.
        total: (N, 5) D_same's columns (S, Txx, Txy, Tyy, Tzz): spectral,
            then spatial, then the self term; None until the pass that
            built the half has summed them (a stored half holds them).
        mags: (N, 5) their summed term magnitudes, or None.
        n_spectral, n_spatial: D_same's terms (0 while total is None).
    """

    k: np.ndarray
    counts: np.ndarray
    qv: np.ndarray | None
    kern: np.ndarray | None
    zker: np.ndarray | None
    n_prop: np.ndarray
    total: np.ndarray | None = None
    mags: np.ndarray | None = None
    n_spectral: int = 0
    n_spatial: int = 0


# Entries kept per cache; past it the least recently used one is dropped.
_CACHE_SIZE = 64
_CELL_TABLES: dict = {}
_SPATIAL_TABLES: dict = {}
# The beta-free halves of passes stored, and the keys of passes
# requested once (see _pass_done). The key record has its own bound:
# one-off passes fill it too, and a k-set asked for again is stored only
# while its key is still there.
_PASS_HALVES: dict = {}
_PASS_KEYS: dict = {}
_PASS_KEY_SIZE = 512
_CACHE_LOCK = threading.Lock()


def _touch(cache: dict, key):
    """The entry under key, made the most recently used; None if absent."""
    value = cache.pop(key, None)
    if value is not None:
        cache[key] = value
    return value


def _put(cache: dict, key, value, size: int) -> None:
    """Store value under key, dropping the least recently used entry past
    size entries."""
    if len(cache) >= size:
        del cache[next(iter(cache))]
    cache[key] = value


def _cached(cache: dict, key, build):
    """The table stored under key, built and stored on a miss.

    A build that raises stores nothing.
    """
    with _CACHE_LOCK:
        table = _touch(cache, key)
        if table is None:
            table = build()
            _put(cache, key, table, _CACHE_SIZE)
        return table


def _pass_lookup(key):
    """(the beta-free half stored under a pass key or None, whether the key
    is recorded): a pass that finds its key recorded stores its half."""
    with _CACHE_LOCK:
        return _touch(_PASS_HALVES, key), key in _PASS_KEYS


def _pass_done(key, half: _PassHalf | None) -> None:
    """After a pass has succeeded: store its half (read-only) under key,
    or, given None, record the key.

    A pass whose key was not recorded at lookup stores nothing, so a pass
    asked for once (a Newton stencil, classify's rays, a path point) keeps
    no arrays.
    """
    with _CACHE_LOCK:
        _PASS_KEYS.pop(key, None)
        if half is None:
            _put(_PASS_KEYS, key, True, _PASS_KEY_SIZE)
        else:
            _put(_PASS_HALVES, key, _read_only(half), _CACHE_SIZE)


def _cell_table(spec: LatticeSpec, k0_eff: float, e: float) -> _CellTable:
    """The order list covers every spectral disk about a zone-reduced k, and
    the frame every spatial disk about a basis offset.

    build_lattice puts the offset at |rho| <= 0.866 |a1| (at BETA_MAX), so a
    frame of radius spatial_reach + |a1| holds each offset's disk. Its index
    box is cut at the cap, which loses no vector of a disk that passes its
    own index-cap test.

    Raises:
        NonConvergent: the order list needs an index beyond _MAX_INDEX, so
            the spectral disk is out of reach at every k of this lattice; or
            the spatial prefactor exp(k0^2/4E^2) would overflow.
    """
    recip = reciprocal(spec)
    reach = np.sqrt(k0_eff**2 + 4.0 * e**2 * _DEPTH)
    # a zone-reduced k has |k| <= |K| < (|b1| + |b2|)/2; the difference
    # absorbs rounding at the disk edge
    kmax = 0.5 * (np.linalg.norm(recip.b1) + np.linalg.norm(recip.b2))
    orders = _disk(np.array([recip.b1, recip.b2]), np.zeros(2), reach + kmax)
    gau_cap = k0_eff**2 / (4.0 * e**2)
    if gau_cap > 650.0:
        raise NonConvergent(
            f"splitting {e:g} too small: spatial prefactor exp({gau_cap:.1f}) "
            "overflows"
        )
    basis = np.array([spec.a1, spec.a2])
    spatial_reach = np.sqrt(_DEPTH + gau_cap) / e
    frame = _disk(basis, np.zeros(2),
                  spatial_reach + np.linalg.norm(spec.a1), clip=True)
    return _read_only(_CellTable(recip=recip, reach=reach, orders=orders,
                                 area2=2.0 * spec.cell_area,
                                 dual=np.linalg.inv(basis),
                                 spatial_reach=spatial_reach, frame=frame))


def _spatial_table(cell: _CellTable, rho: np.ndarray, k0_eff: float,
                   e: float) -> _SpatialTable:
    """Kernels over |R + rho|^2 E^2 <= _DEPTH + k0^2/4E^2.

    The disk is the cell's frame filtered to it, bitwise the _disk about
    rho, in the same order.

    Raises:
        NonConvergent: the disk needs an index beyond _MAX_INDEX.
    """
    _index_box(cell.dual, rho, cell.spatial_reach)
    v = cell.frame + rho
    rvecs = v[np.einsum("ij,ij->i", v, v)
              <= cell.spatial_reach * cell.spatial_reach]
    rv = np.linalg.norm(rvecs, axis=1)
    keep = rv > 0.0
    rvecs, rv = rvecs[keep], rv[keep]
    gau_cap = k0_eff**2 / (4.0 * e**2)
    gau = np.exp(-(rv**2) * e**2 + gau_cap)
    # w(-conj z) = conj w(z) gives the kernels at i r E - k0/2E; the last
    # argument, k0/2E, is the self-corrections' (an element's bits may
    # depend on its neighbours, so every table passes it)
    b = k0_eff / (2.0 * e)
    w = _wofz(np.append(1j * rv * e + b, b))
    tp = gau * w[:-1]
    tm = gau * w[:-1].conj()
    f = tp + tm
    fp = 1j * k0_eff * (tm - tp) - (4.0 * e / SQRT_PI) * gau
    fpp = -(k0_eff**2) * f + (8.0 * rv * e**3 / SQRT_PI) * gau
    phip = fp / rv - f / rv**2
    phipp = fpp / rv - 2.0 * fp / rv**2 + 2.0 * f / rv**3
    c1 = phip / rv  # delta_ab coefficient; also the zz derivative
    c2 = phipp - c1  # rhat_a rhat_b coefficient (in-plane)
    ux, uy = rvecs[:, 0] / rv, rvecs[:, 1] / rv
    weights = np.stack([f / rv, c1 + c2 * ux * ux, c2 * ux * uy,
                        c1 + c2 * uy * uy, c1], axis=-1) / (8.0 * np.pi)
    self_term = None
    if not rho.any():
        h0, h2 = _self_corrections(k0_eff, e, w[-1])
        self_term = np.array([h0, 2.0 * h2, 0.0, 2.0 * h2, 2.0 * h2])
    return _read_only(_SpatialTable(
        lattice=rvecs - rho, weights=weights,
        magnitudes=np.abs(weights).sum(axis=0), self_term=self_term))


def _spectral_kernels(cell: _CellTable, k, k0_eff, e, lead):
    """Spectral kernels over |k+g|^2 <= k0^2 + 4 E^2 _DEPTH, per row of k.

    The orders of row n are the rows of the cell's order list g with
    k[n] + g in the disk: the _disk of (b1, b2) about k[n], in the same
    order. The terms are laid out as runs, row after row: run n holds row
    n's orders in that order. Nothing here depends on the offset rho;
    _spectral_terms weighs the kernels by a Bloch phase.

    Args:
        k: (N, 2) zone-reduced Bloch vectors.
        lead: The request k's leading shape, () for one point; it shapes
            RayleighAnomaly.direction like the request's k.

    Returns:
        (counts, qv, kern, zker, n_prop): per row its run length (0 where
        a small splitting override puts reach below |k|); per term k + g,
        the kernel erfc(gamma/2E)/gamma (0 at gamma = 0) and the z
        column's kernel; per row its propagating orders.

    Raises:
        RayleighAnomaly: an order of a row grazes the light line.
    """
    v = cell.orders + k[:, None, :]
    flat = v.reshape(-1, 2)
    disk = (np.einsum("ij,ij->i", flat, flat)
            <= cell.reach * cell.reach).reshape(v.shape[:2])
    qv = v[disk]
    q = np.linalg.norm(qv, axis=1)
    n_prop = np.zeros(len(k), dtype=int)
    if k0_eff != 0.0:
        row = np.nonzero(disk)[0]  # the k of each term
        grazing = np.abs(q - k0_eff) < RAYLEIGH_REL_THRESHOLD * k0_eff
        if np.any(grazing):
            # the first grazing order of each grazing row
            rows, first = np.unique(row[grazing], return_index=True)
            at = np.nonzero(grazing)[0][first]
            direction = np.zeros((len(k), 2))
            direction[rows] = qv[at] / q[at][:, None]
            raise RayleighAnomaly(
                f"|k+g| within {RAYLEIGH_REL_THRESHOLD:g}*k0 of the light "
                f"line at k={k[rows[0]]}",
                direction=direction.reshape(lead + (2,)))
        n_prop = np.bincount(row[q < k0_eff], minlength=len(k))
    d = k0_eff**2 - q**2  # -gamma^2, real for every order
    gamma = -1j * np.sqrt(d.astype(complex))
    ec = _erfc_spectral(gamma / (2.0 * e))
    kern = np.zeros_like(gamma)
    np.divide(ec, gamma, out=kern, where=gamma != 0.0)
    zker = 2.0 * gamma * ec - (4.0 * e / SQRT_PI) * np.exp(d / (4.0 * e**2))
    return np.count_nonzero(disk, axis=1), qv, kern, zker, n_prop


def _spectral_terms(qv, kern, zker, unit, area2):
    """The (terms, 5) spectral contributions to (S, Txx, Txy, Tyy, Tzz).

    The term at k + g = qv weighs its kernels by the Bloch phase unit =
    e^{i (k+g).rho}, over twice the cell area: [pk, -pk qx qx, -pk qx qy,
    -pk qy qy, phase zker / 2] with phase = unit/area2 and pk = phase kern.
    Every column is even in k + g. The terms keep the order of their
    arguments, runs included.

    Each column is computed into the output in place, in the order of
    operations above. The two complex-by-complex products (pk and the z
    column) read only whole arrays or their own output column: numpy
    computes them with a fused multiply-add unless an operand overlaps
    another column, so their bits depend on the layout. The products by
    the real qx and qy round the same either way.
    """
    out = np.empty((len(unit), 5), dtype=complex)
    s, txx, txy, tyy, tzz = out.T
    qx, qy = qv.T
    phase = unit / area2
    np.multiply(phase, kern, out=s)
    np.negative(s, out=tyy)
    np.multiply(tyy, qx, out=txx)
    np.multiply(txx, qy, out=txy)
    txx *= qx
    tyy *= qy
    tyy *= qy
    np.multiply(0.5, phase, out=tzz)
    tzz *= zker
    return out


def _bloch_phase(t: _SpatialTable, k):
    """The (N, n) phases e^{-i k.R} of a table's lattice vectors, k (N, 2).

    The phase is carried by the lattice vector R alone; one matrix-vector
    product per k, as for a single k.
    """
    kr = np.matmul(t.lattice[None], k[:, :, None])[..., 0]
    return np.exp(-1j * kr)


def _dyadic(v, retarded: bool) -> np.ndarray:
    """The (..., 3, 3) dyadics from (S, Txx, Txy, Tyy, Tzz) on v's last axis.

    T / k0^2, plus S on the diagonal (S times the identity's off-diagonal
    zeros would add nothing).
    """
    d = np.zeros(v.shape[:-1] + (9,), dtype=v.dtype)
    d[..., [0, 1, 3, 4, 8]] = v[..., [1, 2, 2, 3, 4]]
    d /= K0**2
    if retarded:
        d[..., ::4] += v[..., :1]
    return d.reshape(v.shape[:-1] + (3, 3))


def _norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each a[n], bit for bit: the same dot products."""
    x = a.reshape(len(a), 1, math.prod(a.shape[1:]))
    if x.dtype.kind != "c":
        return np.sqrt((x @ x.transpose(0, 2, 1))[:, 0, 0])
    re, im = x.real, x.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))
                   [:, 0, 0])


def ewald_sum(req: LatticeSumRequest) -> LatticeSumResult:
    """The three quasi-periodic dyadic lattice sums of a Bloch matrix at
    each point of k (..., 2), from one pass; the offset picks which of them
    D holds.

    The k-independent set-up comes from the per-lattice tables, and a batch
    is summed in one pass (see the module docstring); only the k-dependent
    terms are evaluated here, the offset-free spectral kernels once for
    the three sums.

    Args:
        req: Request; see LatticeSumRequest.

    Returns:
        LatticeSumResult. The result is independent of the splitting
        parameter within the truncation target; same-site sums
        subtract the screened R = 0 term analytically.

    Raises:
        ValueError: unknown mode or offset, k not of shape (..., 2), a k
            that reduce_to_bz refuses (not finite or too large), or a
            splitting that is not finite and positive.
        RayleighAnomaly: retarded mode with |k+g| on the light line.
        NonConvergent: truncation disk past the index cap (the spectral
            cap holds per lattice: past it every k fails), spatial
            prefactor overflow or a rounding bound past _MAX_ROUNDING (an
            extreme splitting override).
    """
    if req.mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {req.mode!r}")
    k = np.asarray(req.k, dtype=float)
    if k.shape[-1:] != (2,):
        raise ValueError(f"k must have shape (..., 2), got {k.shape}")
    lead = k.shape[:-1]
    k = k.reshape(-1, 2)
    spec = req.spec
    if req.offset != "bloch":
        _resolve_offset(spec, req.offset)  # an unknown offset raises
    rho = np.asarray(spec.basis_offset, dtype=float)
    e = (default_splitting(spec, req.mode) if req.splitting is None
         else float(req.splitting))
    if not (np.isfinite(e) and e > 0.0):
        raise ValueError(f"splitting must be finite and positive, got {e}")
    retarded = req.mode == "retarded"
    k0_eff = K0 if retarded else 0.0
    key = (np.array([spec.a1, spec.a2], dtype=float).tobytes(), retarded, e)
    cell = _cached(_CELL_TABLES, key, lambda: _cell_table(spec, k0_eff, e))

    def table(r):
        return _cached(_SPATIAL_TABLES, key + (r.tobytes(),),
                       lambda: _spatial_table(cell, r, k0_eff, e))

    # the spatial tables before the spectral kernels: a disk past the index
    # cap raises NonConvergent ahead of a RayleighAnomaly (the cell table
    # has already refused a prefactor e^{k0^2/4E^2} past overflow, before
    # e^{y^2} overflows in _spectral_kernels)
    t_rho = table(rho)
    # the pass's beta-free half, stored from its second request; a pass
    # that does not read one sums D_same against the same-site table
    pass_key = key + (k.tobytes(),)
    half, keep = _pass_lookup(pass_key)
    t_same = None
    if half is None:
        t_same = table(np.zeros(2))
        red = reduce_to_bz(cell.recip, k)
        half = _PassHalf(red, *_spectral_kernels(cell, red, k0_eff, e, lead))
    n, k, same = len(k), half.k, t_same is not None
    runs, qv, kern, zker = half.counts, half.qv, half.kern, half.zker
    if same and not keep:
        # a half this pass will not store lets its kernels go once they
        # are concatenated
        half = replace(half, qv=None, kern=None, zker=None)
    unit = np.exp(1j * (qv @ rho))
    # the runs of [same, a_to_b at k, a_to_b at -k], the first only where
    # D_same is summed here, the last only for the rows where an order
    # propagates (ba, last row first): the terms at -k are those at k
    # negated, each run reversed, under the conjugate phases, i.e. the
    # a_to_b runs of ba reversed as a whole (their k + g are left
    # unnegated: every term is even in k + g)
    ba = np.flatnonzero(half.n_prop)[::-1]
    t = int(runs.sum())
    ab = t if same else 0  # where the a_to_b terms start
    back = back_terms = None  # the rows of ba, and their terms
    if len(ba):
        back = np.zeros(n, dtype=bool)
        back[ba] = True
        back_terms = np.repeat(back, runs)

    def layout(a, pick):
        parts = [a] * (1 + same)
        if pick is not None:
            parts.append(a[pick][::-1])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    runs = layout(runs, back)
    qv, kern, zker, unit = (layout(a, back_terms)
                            for a in (qv, kern, zker, unit))
    unit[:ab] = 1.0  # e^{i (k+g).0} = 1
    phases = _bloch_phase(t_rho, k)
    if len(ba):
        unit[ab + t:] = unit[ab + t:].conj()
        phases = np.concatenate([phases, phases[ba].conj()])
    spatial = ([(t_same, _bloch_phase(t_same, k))] if same else []) \
        + [(t_rho, phases)]
    terms = _spectral_terms(qv, kern, zker, unit, cell.area2)
    del qv, kern, zker, unit  # unread from here: free them for the sums
    # one segment reduction over the non-empty runs, each summed as one k
    # alone; an empty run sums to zero (reduceat would read the next one's)
    full = runs > 0
    starts = (np.cumsum(runs) - runs)[full]
    sums = np.zeros((len(runs), 5), dtype=complex)
    mags = np.zeros((len(runs), 5))
    sums[full] = np.add.reduceat(terms, starts, axis=0)
    mags[full] = np.add.reduceat(np.abs(terms), starts, axis=0)
    n_spectral = len(terms)
    # the spatial series: per table, its Bloch phases against its weights
    total = sums + np.concatenate([np.einsum("nr,rc->nc", ph, t.weights)
                                   for t, ph in spatial])
    # each omitted term is below _TOLERANCE/10 of the leading scale, so the
    # tail is bounded by _TOLERANCE/10 times the summed magnitudes,
    # component-wise; a spatial term's is its weight's, the Bloch phase
    # having unit modulus
    mags += np.concatenate([np.broadcast_to(t.magnitudes, (len(ph), 5))
                            for t, ph in spatial])
    n_spatial = sum(ph.size for _, ph in spatial)
    if same:
        total[:n] += t_same.self_term
    else:
        # D_same's rows from the stored half
        total = np.concatenate([half.total, total])
        mags = np.concatenate([half.mags, mags])
        n_spectral += half.n_spectral
        n_spatial += half.n_spatial
    d = _dyadic(total, retarded)
    est = 0.1 * _TOLERANCE * _norms(_dyadic(mags, retarded)) / _norms(d)
    # and u = eps times them bound its rounding error
    rounding = est * (np.finfo(float).eps / (0.1 * _TOLERANCE))
    if rounding.max(initial=0.0) > _MAX_ROUNDING:
        at = int(np.argmax(rounding))
        row = ba[at - 2 * n] if at >= 2 * n else at % n  # the sum's k
        raise NonConvergent(
            f"rounding bound {rounding[at]:.3g} past {_MAX_ROUNDING:g} at "
            f"k={k[row]}: splitting {e:g} cancels too many digits")
    if same:
        _pass_done(pass_key, replace(
            half, total=total[:n].copy(), mags=mags[:n].copy(),
            n_spectral=t, n_spatial=n * len(t_same.lattice)) if keep
            else None)
    # D_ba = conj(D_ab), exactly, where no order propagates
    d_ba = d[n:2 * n].conj()
    if len(ba):
        d_ba[ba] = d[2 * n:]
    d = np.concatenate([d[:2 * n], d_ba]).reshape((3,) + lead + (3, 3))
    return LatticeSumResult(
        D=d if req.offset == "bloch" else d[_OFFSETS.index(req.offset)],
        n_spatial=n_spatial,
        n_spectral=n_spectral,
        est_error=float(est.max(initial=0.0)),
        # copies: the half's arrays may be stored and shared
        k_reduced=k.reshape(lead + (2,)).copy(),
        n_propagating=half.n_prop.reshape(lead).copy()[()],
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
    from scipy import integrate, special  # oracle only; off the solve path

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
    from scipy import integrate, special  # oracle only; off the solve path

    inner = integrate.quad(
        lambda r: (1.0 - _rolloff(r / cutoff))
        * special.jv(order, kn * r) / r**2,
        0.5 * cutoff, cutoff, limit=300)[0]
    if kn * cutoff < 1e-9:
        outer = 1.0 / cutoff if order == 0 else 0.0
    else:
        outer = kn * _bessel_tail(order, kn * cutoff)
    return inner + outer


def direct_sum_quasistatic(req: LatticeSumRequest) -> LatticeSumResult:
    """Real-space quasistatic sum over |R + rho| <= _ORACLE_CUTOFF |a1|
    (oracle).

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
        req: Request with mode 'quasistatic' and one k (2,).

    Returns:
        LatticeSumResult; est_error is the relative bare magnitude of the
        outermost one-|a1| annulus (a deliberate overestimate).

    Raises:
        ValueError: a mode other than 'quasistatic', k not (2,), or a k
            that reduce_to_bz refuses (not finite or too large).
    """
    if req.mode != "quasistatic":
        raise ValueError("direct summation is provided for quasistatic mode only")
    k = np.asarray(req.k, dtype=float)
    if k.shape != (2,):
        raise ValueError(f"k must have shape (2,), got {k.shape}")
    spec = req.spec
    k = reduce_to_bz(reciprocal(spec), k)
    rho = _resolve_offset(spec, req.offset)
    a1n = float(np.linalg.norm(spec.a1))
    cutoff = _ORACLE_CUTOFF * a1n

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
        D=d, n_spatial=int(np.count_nonzero(keep)), n_spectral=0,
        est_error=est, k_reduced=k)


# sum_diagnostics' splittings, in units of E, in the order they are tried.
# The retarded 2E needs indices past the cap from d0 ~ 6.2, 1.5E from ~ 8
# and 1.1E from ~ 10.5; 0.8E would already deviate by 1e-8.
_LEGS = (2.0, 0.5, 1.5, 1.1, 0.95, 0.9)


def sum_diagnostics(spec: LatticeSpec, k) -> dict:
    """Cross-checks of the Ewald engine at one k-point.

    Sums the three sums of a Bloch matrix (offset 'bloch') in both modes at
    the default splitting E and at the first two of 2E, E/2, 1.5E, 1.1E,
    0.95E and 0.9E that converge, E/2 left out where it breaks the cap
    k0^2/4E^2 <= _MAX_GAU: 2E and E/2 (or 1.5E) up to d0 ~ 6.2, 0.95E and
    0.9E at d0 11. It compares the quasistatic D_same and D_ab against the
    direct-sum oracle.

    Returns:
        Dict with the worst relative deviation per mode over the three sums
        ('retarded_splitting_dev', 'quasistatic_splitting_dev') and over
        D_same and D_ab ('quasistatic_direct_dev'), the term counts of the
        default-splitting passes, and 'rayleigh_anomaly' (None, or the
        message when the retarded series is singular at this k).
    """
    report: dict = {
        "k": np.asarray(k, dtype=float).tolist(),
        "splitting": default_splitting(spec),
        "rayleigh_anomaly": None,
    }

    def _dev(mode):
        e0 = default_splitting(spec, mode)
        k0_eff = K0 if mode == "retarded" else 0.0
        factors = [s for s in _LEGS
                   if s != 0.5 or k0_eff**2 / e0**2 <= _MAX_GAU]

        def at(s):
            return ewald_sum(LatticeSumRequest(spec=spec, k=k, offset="bloch",
                                               mode=mode, splitting=s * e0))

        res, legs = at(1.0), []
        for s in factors:
            try:
                legs.append(at(s))
            except NonConvergent:
                continue
            if len(legs) == 2:
                break
        return max(np.linalg.norm(leg.D[i] - res.D[i])
                   / np.linalg.norm(res.D[i])
                   for leg in legs for i in range(3)), res

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
    direct = [direct_sum_quasistatic(LatticeSumRequest(
        spec=spec, k=k, offset=offset, mode="quasistatic")).D
        for offset in ("same", "a_to_b")]
    report["quasistatic_direct_dev"] = max(
        float(np.linalg.norm(want - got) / np.linalg.norm(want))
        for want, got in zip(direct, res.D))
    return report
