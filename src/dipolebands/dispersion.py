"""Locating, classifying, and tracking band degeneracies.

A degeneracy of a band pair is located by a coarse gap scan over a k-region
followed by a deterministic, safeguarded Newton descent of gap(k)^2, which is
smooth with a zero minimum where the bands touch (see _refine_minimum).
Around a degeneracy the two bands behave like

    omega_+-(q) = m0 + w . q +- sqrt(q . A q)   (+ higher order)

and the classification reads off the local model: both principal-axis gap
exponents ~1 gives a (possibly tilted) Dirac cone whose type follows from
the tilt ratio t = sqrt(w . A^-1 w) (t < 1 type I, t = 1 critical type III,
t > 1 type II); exponents {1, 2} a semi-Dirac point; {2, 2} a quadratic
touching. A is fitted from (gap/2)^2 ~ q . A q so that t = 1 coincides with
one band going locally flat along some direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import SLOTS, bands_on_grid, solve_k
from .greens import K0
from .lattice import LatticeSpec, build_lattice, reciprocal, reduce_to_bz

EPS_DEG = 1e-3  # detuning-units gap threshold for "degenerate"
TILT_TOL = 0.05  # tau_t band around t = 1 for type III
EXP_TOL_LINEAR = 0.15  # window half-width around p = 1
EXP_TOL_QUAD = 0.25  # window half-width around p = 2
FIT_RADIUS_FRAC = 0.05  # default fit radius in units of |b1|
FIT_INNER_FRAC = 0.1  # inner fit radius relative to the outer
N_DIRECTIONS = 16
N_RADII = 12
GRID_N = 48
REFINE_FRAC = 1e-6  # refinement step tolerance in units of |b1|
NEWTON_MAX_ITER = 20  # Newton iterations per refinement
DROP_RTOL = 1e-3  # a step lowering gap^2 by less than this fraction ends it
STENCIL_FLOOR = 1e-3  # smallest stencil step relative to the step tolerance
DEDUP_FRAC = 1e-4  # merge radius in units of |b1|

KINDS = ("dirac_I", "dirac_II", "dirac_III", "semi_dirac", "quadratic",
         "gapped")


class NoClosure(ArithmeticError):
    """The gap never closed below threshold inside the given beta bracket."""


class FitDegenerate(ArithmeticError):
    """The local-fit design matrix is numerically degenerate."""


@dataclass(frozen=True)
class DegeneracyReport:
    """Location and local model of one band degeneracy.

    find_degeneracies fills location and gap only (kind None); classify
    fills the rest.

    Attributes:
        k_star: Degeneracy location (2,).
        band_pair: Indices of the two bands within their block, energy order.
        block: 'out_of_plane' or 'in_plane'.
        gap_min: Residual gap at k_star.
        kind: One of KINDS, or None before classification.
        tilt: Fitted tilt vector w (2,) of the band average.
        velocity_matrix: Fitted 2x2 symmetric A with (gap/2)^2 ~ q.Aq.
        tilt_ratio: t = sqrt(w . A^-1 w) (NaN when exponents are not both 1).
        exponents: Gap exponents along the principal axes of A.
        residuals: Dict of rms fit residuals.
        principal_axes: Columns are the principal directions of A.
        top_curvatures: Signed quadratic coefficients of the upper band
            along the two principal axes.
        beta, d0: Lattice parameters.
        mode: 'retarded' or 'quasistatic'.
    """

    k_star: np.ndarray
    band_pair: tuple
    block: str
    gap_min: float
    beta: float
    d0: float
    mode: str
    kind: str | None = None
    tilt: np.ndarray | None = None
    velocity_matrix: np.ndarray | None = None
    tilt_ratio: float = float("nan")
    exponents: tuple | None = None
    residuals: dict | None = None
    principal_axes: np.ndarray | None = None
    top_curvatures: tuple | None = None


@dataclass(frozen=True)
class ConeTrajectory:
    """A degeneracy tracked over an ordered beta sweep.

    Attributes:
        beta_values: Betas at which the cone was (or failed to be) located.
        reports: One DegeneracyReport per located beta.
        events: Dicts with keys 'event' ('classification_change', 'lost',
            'found', 'discontinuity'), 'beta_bracket', and details. A
            dirac_I <-> dirac_II change carries 'type_iii_bracket' narrowed
            to width 0.005.
    """

    beta_values: tuple
    reports: tuple
    events: tuple


def make_gap_function(spec: LatticeSpec, block: str, band_pair,
                      mode: str = "retarded"):
    """Return gap(k) for one band pair (energy-sorted within block)."""
    pair = tuple(band_pair)
    slots = SLOTS[block]

    def gap(k):
        det = solve_k(spec, k, mode).detuning[slots]
        return det[pair[1]] - det[pair[0]]

    return gap


def default_search_region(spec: LatticeSpec):
    """Half-zone rectangle (kx_min, kx_max, ky_min, ky_max)."""
    recip = reciprocal(spec)
    mx = abs(recip.M[0])
    ky = float(np.linalg.norm(recip.K))
    return (-mx, mx, 0.0, ky)


def _refine_minimum(gap, k0pt, scale, xatol):
    """Safeguarded Newton descent of f(k) = gap(k)^2; returns (k, gap(k)).

    Where two bands touch, gap^2 = 4|d(q)|^2 is smooth with a zero minimum:
    Newton converges quadratically at a Dirac point and linearly along the
    flat axis of a semi-Dirac point. f at k, k +- h x, k +- h y and
    k + h(x + y) gives gradient and Hessian, h being the last step length.
    The Newton step (steepest descent where the Hessian is not positive
    definite) is cut to `scale` and halved until f goes down; if no step
    longer than xatol does, a stencil wider than xatol narrows to xatol and
    the iteration repeats. The descent ends there on a narrower stencil, on
    a step below xatol from a stencil no wider, on a drop of f below
    DROP_RTOL of f (a kink of the gap, not a touching point), or after
    NEWTON_MAX_ITER iterations.
    """
    k = np.asarray(k0pt, dtype=float)
    g = gap(k)
    h = scale
    ex, ey = np.eye(2)
    for _ in range(NEWTON_MAX_ITER):
        f0 = g * g
        fpx, fmx, fpy, fmy, fxy = (gap(k + dk) ** 2 for dk in (
            h * ex, -h * ex, h * ey, -h * ey, h * (ex + ey)))
        grad = np.array([fpx - fmx, fpy - fmy]) / (2.0 * h)
        hxy = fxy - fpx - fpy + f0
        hess = np.array([[fpx - 2.0 * f0 + fmx, hxy],
                         [hxy, fpy - 2.0 * f0 + fmy]]) / h**2
        if np.linalg.eigvalsh(hess)[0] > 0.0:
            step = -np.linalg.solve(hess, grad)
        elif grad @ grad > 0.0:
            curv = grad @ hess @ grad
            step = -grad * min(grad @ grad / curv if curv > 0.0 else np.inf,
                               scale / np.linalg.norm(grad))
        else:
            break
        length = float(np.linalg.norm(step))
        if length > scale:
            step, length = step * (scale / length), scale
        g_new = gap(k + step)
        while not g_new * g_new < f0 and length >= 2.0 * xatol:
            step, length = 0.5 * step, 0.5 * length
            g_new = gap(k + step)
        if g_new * g_new < f0:
            k, g = k + step, g_new
            if length < xatol and h <= xatol or f0 - g * g <= DROP_RTOL * f0:
                break
            h = max(length, STENCIL_FLOOR * xatol)
        elif h > xatol:
            h = xatol
        else:
            break
    return k, float(g)


def find_degeneracies(spec: LatticeSpec, block: str, band_pair,
                      search_region=None, mode: str = "retarded",
                      eps_deg: float = EPS_DEG,
                      grid_n: int = GRID_N) -> list[DegeneracyReport]:
    """Locate gap closings of a band pair inside a k-region.

    Coarse grid scan (grid_n x grid_n) of search_region = (kx_min, kx_max,
    ky_min, ky_max), Newton refinement of gap^2 from every coarse local
    minimum (_refine_minimum, trust radius half a grid spacing), filtering
    at eps_deg, duplicate merging modulo reciprocal vectors, and
    reconstruction of the ky -> -ky mirror images.

    The coarse grid comes from bloch.bands_on_grid. With the default
    region in retarded mode, no seed is taken in the radiative neighborhood
    |k| < 1.1 k0 and refined points that end there are dropped: there the
    branch hugging the light line crosses the other bands, which would
    otherwise swamp the search with near-light-cone degeneracies. Grid
    points inside it are still solved and count as neighbors of the seeds
    around it. Pass an explicit search_region to probe that neighborhood.

    Returns:
        Location-and-gap reports sorted by (gap, kx, ky); empty if gapped.

    Raises:
        ValueError: search_region with kx_min >= kx_max or ky_min >= ky_max.
    """
    exclude_radiative = search_region is None and mode == "retarded"
    region = default_search_region(spec) if search_region is None else \
        tuple(float(v) for v in search_region)
    if not (region[0] < region[1] and region[2] < region[3]):
        raise ValueError(f"search_region {region} is empty or reversed")
    recip = reciprocal(spec)
    b1n = float(np.linalg.norm(recip.b1))

    def _excluded(kx, ky):
        return exclude_radiative & (np.hypot(kx, ky) < 1.1 * K0)

    grid = bands_on_grid(spec, np.linspace(region[0], region[1], grid_n),
                         np.linspace(region[2], region[3], grid_n), mode)
    det = grid.detuning[:, :, SLOTS[block]]
    vals = det[:, :, band_pair[1]] - det[:, :, band_pair[0]]

    spacing = max(region[1] - region[0], region[3] - region[2]) / (grid_n - 1)
    pad = np.pad(vals, 1, constant_values=np.inf)
    neigh = np.stack([pad[i0:i0 + grid_n, j0:j0 + grid_n]
                      for i0 in (0, 1, 2) for j0 in (0, 1, 2)
                      if (i0, j0) != (1, 1)])
    is_min = vals <= neigh.min(axis=0)
    is_min &= ~_excluded(*np.meshgrid(grid.kx, grid.ky, indexing="ij"))
    seeds = [np.array([grid.kx[i], grid.ky[j]])
             for i, j in zip(*np.nonzero(is_min))]

    gap = make_gap_function(spec, block, band_pair, mode)
    margin = 2.0 * spacing
    found = []
    for seed in seeds:
        k_star, g = _refine_minimum(gap, seed, 0.5 * spacing,
                                    REFINE_FRAC * b1n)
        if (g < eps_deg and not _excluded(*k_star)
                and region[0] - margin <= k_star[0] <= region[1] + margin
                and region[2] - margin <= k_star[1] <= region[3] + margin):
            found.append((k_star, g))

    def _is_new(k, kept):
        return all(np.linalg.norm(reduce_to_bz(recip, k - k2))
                   >= DEDUP_FRAC * b1n for k2, _ in kept)

    # Merge duplicates modulo the reciprocal lattice.
    merged = []
    for k_star, g in sorted(found, key=lambda t: (t[1], t[0][0], t[0][1])):
        if _is_new(k_star, merged):
            merged.append((k_star, g))

    # Mirror images: the default search region covers the upper half
    # zone only, so the ky -> -ky partners are reconstructed. An explicit
    # region is honored literally and gets no mirrors added.
    reports = list(merged)
    if search_region is None:
        mirrors = [(np.array([k[0], -k[1]]), g) for k, g in merged]
        reports += [(m, g) for m, g in mirrors if _is_new(m, merged)]
    reports.sort(key=lambda t: (t[1], t[0][0], t[0][1]))
    return [
        DegeneracyReport(
            k_star=k_star, band_pair=tuple(band_pair), block=block,
            gap_min=g, beta=spec.beta, d0=spec.d0, mode=mode,
        )
        for k_star, g in reports
    ]


def _exponent_class(p: float) -> int | None:
    if abs(p - 1.0) <= EXP_TOL_LINEAR:
        return 1
    if abs(p - 2.0) <= EXP_TOL_QUAD:
        return 2
    return None


def classify(spec: LatticeSpec, location, block: str, band_pair,
             mode: str = "retarded", fit_radius: float | None = None,
             eps_deg: float = EPS_DEG) -> DegeneracyReport:
    """Classify the band-pair behavior around a degeneracy location.

    Samples both bands on N_DIRECTIONS rays with N_RADII log-spaced radii
    out to fit_radius (default FIT_RADIUS_FRAC |b1|), fits
    the tilt vector from the band average, the quadratic form A from
    (gap/2)^2, and the gap exponents along A's principal axes, then applies
    the taxonomy thresholds.

    Returns:
        Full DegeneracyReport. kind='gapped' when the gap at the location
        exceeds eps_deg (no fits attempted).

    Raises:
        FitDegenerate: ill-conditioned fit design (cond > 1e8).
    """
    k_star = np.asarray(location, dtype=float)
    recip = reciprocal(spec)
    b1n = float(np.linalg.norm(recip.b1))
    r_out = FIT_RADIUS_FRAC * b1n if fit_radius is None else float(fit_radius)
    pair = tuple(band_pair)
    slots = SLOTS[block]

    def both(k):
        det = solve_k(spec, k, mode).detuning[slots]
        return det[pair[0]], det[pair[1]]

    lo0, hi0 = both(k_star)
    gap0 = hi0 - lo0
    base = dict(k_star=k_star, band_pair=pair, block=block,
                gap_min=float(gap0), beta=spec.beta, d0=spec.d0, mode=mode)
    if gap0 >= eps_deg:
        return DegeneracyReport(kind="gapped", **base)

    m0 = 0.5 * (lo0 + hi0)
    radii = np.geomspace(FIT_INNER_FRAC * r_out, r_out, N_RADII)
    thetas = 2.0 * np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
    qs, mids, halves = [], [], []
    for th in thetas:
        n = np.array([np.cos(th), np.sin(th)])
        for r in radii:
            lo, hi = both(k_star + r * n)
            qs.append(r * n)
            mids.append(0.5 * (lo + hi) - m0)
            halves.append(0.5 * (hi - lo))
    qs, mids, halves = np.array(qs), np.array(mids), np.array(halves)

    # Tilt: linear fit of the band average (even orders drop out on the
    # symmetric direction set).
    xt = qs
    if np.linalg.cond(xt.T @ xt) > 1e8:
        raise FitDegenerate("tilt design matrix ill-conditioned")
    w, *_ = np.linalg.lstsq(xt, mids, rcond=None)
    rms_t = float(np.sqrt(np.mean((xt @ w - mids) ** 2)))

    # Quadratic form of the half-gap squared.
    xa = np.stack([qs[:, 0] ** 2, 2.0 * qs[:, 0] * qs[:, 1],
                   qs[:, 1] ** 2], axis=1)
    if np.linalg.cond(xa.T @ xa) > 1e8:
        raise FitDegenerate("velocity design matrix ill-conditioned")
    coef, *_ = np.linalg.lstsq(xa, halves**2, rcond=None)
    a_mat = np.array([[coef[0], coef[1]], [coef[1], coef[2]]])
    rms_a = float(np.sqrt(np.mean((xa @ coef - halves**2) ** 2)))

    evals, evecs = np.linalg.eigh(a_mat)

    # Gap exponents and upper-band curvature along the principal axes.
    exps, rms_e, curvs = [], [], []
    for i in range(2):
        axis = evecs[:, i]
        gvals, upvals = [], []
        for r in radii:
            lo, hi = both(k_star + r * axis)
            gvals.append(max(hi - lo, 1e-300))
            upvals.append(hi - hi0)
        logr = np.log(radii)
        p, _b = np.polyfit(logr, np.log(gvals), 1)
        fit = np.polyval([p, _b], logr)
        exps.append(float(p))
        rms_e.append(float(np.sqrt(np.mean((fit - np.log(gvals)) ** 2))))
        cs = np.polyfit(radii, upvals, 2)  # curvature + tilt + offset drift
        curvs.append(float(cs[0]))

    p_classes = [_exponent_class(p) for p in exps]
    fallback = any(c is None for c in p_classes)
    p_classes = [
        c if c is not None else (1 if abs(p - 1.0) < abs(p - 2.0) else 2)
        for c, p in zip(p_classes, exps)
    ]

    tilt_ratio = float("nan")
    if sorted(p_classes) == [1, 2]:
        kind = "semi_dirac"
    elif p_classes == [2, 2]:
        kind = "quadratic"
    else:
        if np.all(evals > 0):
            tilt_ratio = float(np.sqrt(w @ np.linalg.solve(a_mat, w)))
            if tilt_ratio < 1.0 - TILT_TOL:
                kind = "dirac_I"
            elif tilt_ratio > 1.0 + TILT_TOL:
                kind = "dirac_II"
            else:
                kind = "dirac_III"
        else:
            # Indefinite fitted form: overtilted crossing.
            tilt_ratio = float(
                np.sqrt(abs(w @ np.linalg.pinv(a_mat) @ w)))
            kind = "dirac_II"

    residuals = {
        "tilt_rms": rms_t,
        "velocity_rms": rms_a,
        "exponent_rms": tuple(rms_e),
        "exponent_fallback": fallback,
    }
    return DegeneracyReport(
        kind=kind, tilt=w, velocity_matrix=a_mat, tilt_ratio=tilt_ratio,
        exponents=tuple(exps), residuals=residuals, principal_axes=evecs,
        top_curvatures=tuple(curvs), **base,
    )


def refine_degeneracy(spec: LatticeSpec, block: str, band_pair, k_warm,
                      mode: str = "retarded"):
    """Newton refinement of gap^2 from a warm start near a degeneracy.

    The trust radius is 0.01 |b1| and the step tolerance REFINE_FRAC |b1|
    (see _refine_minimum).

    Returns:
        (k, gap(k)); the caller decides whether the gap is closed.
    """
    b1n = float(np.linalg.norm(reciprocal(spec).b1))
    gap = make_gap_function(spec, block, band_pair, mode)
    return _refine_minimum(gap, k_warm, 0.01 * b1n, REFINE_FRAC * b1n)


def tilt_transition_scan(d0: float, beta_start: float, beta_stop: float,
                         block: str, band_pair, beta_step: float = 0.005,
                         mode: str = "retarded", search_region=None,
                         eps_deg: float = EPS_DEG,
                         start_point=None) -> ConeTrajectory:
    """Track one degeneracy over a beta sweep and record its changes.

    Every beta refines from the previous location (refine_degeneracy),
    retried once from the midpoint beta before the track is declared lost.
    The first beta, and any beta after a loss, refines from start_point
    instead, or runs a full region search (find_degeneracies) when there is
    none or it stays gapped. A dirac_I <-> dirac_II classification change
    is bisected in beta, with the same refinement at each midpoint, until
    the bracket is no wider than 0.005, which brackets the type-III point.

    Returns:
        ConeTrajectory over the betas beta_start + i beta_step, i = 0, 1,
        ..., up to beta_stop and never past it.

    Raises:
        ValueError: beta_step not positive and finite, or beta_stop below
            beta_start.
    """
    if not 0.0 < beta_step < np.inf:
        raise ValueError(
            f"beta_step must be positive and finite, got {beta_step}")
    if beta_stop < beta_start:
        raise ValueError(
            f"beta_stop={beta_stop} below beta_start={beta_start}")
    n_steps = int(np.floor((beta_stop - beta_start) / beta_step + 1e-9))
    betas = [beta_start + i * beta_step for i in range(n_steps + 1)]
    b1n = float(np.linalg.norm(reciprocal(build_lattice(d0, betas[0])).b1))
    coarse_scale = b1n / GRID_N

    reports: list[DegeneracyReport] = []
    events: list[dict] = []
    k_prev = None
    beta_prev = None

    def step(spec, warm):
        """Warm-start refinement at one lattice; None while gapped."""
        k, g = refine_degeneracy(spec, block, band_pair, warm, mode)
        return k if g < eps_deg else None

    def report(spec, k):
        return classify(spec, k, block, band_pair, mode, eps_deg=eps_deg)

    def bisect_type_iii(lo, hi, kind_lo, k_here):
        """Narrow a dirac_I <-> dirac_II change to a type-III bracket."""
        while hi - lo > 0.005:
            mid = 0.5 * (lo + hi)
            spec = build_lattice(d0, mid)
            k = step(spec, k_here)
            if k is None:
                break
            rep = report(spec, k)
            k_here = rep.k_star
            if rep.kind == "dirac_III":
                return (mid - 0.0025, mid + 0.0025)
            if rep.kind == kind_lo:
                lo = mid
            else:
                hi = mid
        return (lo, hi)

    for beta in betas:
        spec = build_lattice(d0, beta)
        warm = start_point if k_prev is None else k_prev
        k = None if warm is None else step(spec, warm)
        if k is None and k_prev is not None:
            # Retry from the midpoint beta before declaring the track lost.
            k_mid = step(build_lattice(d0, 0.5 * (beta_prev + beta)), k_prev)
            k = None if k_mid is None else step(spec, k_mid)
            if k is None:
                events.append({"event": "lost",
                               "beta_bracket": (beta_prev, beta)})
                k_prev = None
                continue
        if k is None:
            cands = find_degeneracies(spec, block, band_pair, search_region,
                                      mode, eps_deg)
            if not cands:
                continue
            k = cands[0].k_star
        rep = report(spec, k)
        if reports:
            prev = reports[-1]
            jump = float(np.linalg.norm(rep.k_star - prev.k_star))
            if k_prev is None:
                events.append({"event": "found",
                               "beta_bracket": (beta_prev, beta)})
            elif jump > 3.0 * coarse_scale:
                events.append({"event": "discontinuity",
                               "beta_bracket": (prev.beta, beta),
                               "jump": jump})
            if prev.kind != rep.kind:
                ev = {"event": "classification_change", "from": prev.kind,
                      "to": rep.kind, "beta_bracket": (prev.beta, beta)}
                if {prev.kind, rep.kind} == {"dirac_I", "dirac_II"}:
                    ev["type_iii_bracket"] = bisect_type_iii(
                        prev.beta, beta, prev.kind, prev.k_star)
                events.append(ev)
        reports.append(rep)
        k_prev = rep.k_star
        beta_prev = beta

    return ConeTrajectory(beta_values=tuple(betas), reports=tuple(reports),
                          events=tuple(events))


def critical_beta(d0: float, block: str, band_pair, target_point,
                  beta_bracket, mode: str = "retarded",
                  bracket_tol: float = 1e-4) -> float:
    """Beta at which a band pair closes its gap at a fixed k-point.

    Golden-section minimization of gap(beta) at target_point down to a
    beta bracket of width bracket_tol.

    Args:
        d0: Cell scale.
        block, band_pair: Which pair to watch.
        target_point: k-point (2,) or a high-symmetry label such as 'M'.
        beta_bracket: (beta_lo, beta_hi) search interval.
        mode: 'retarded' or 'quasistatic'.
        bracket_tol: Width of the final beta bracket.

    Returns:
        beta_c as a float.

    Raises:
        ValueError: bracket_tol not positive and finite, or an empty or
            reversed beta_bracket.
        NoClosure: the smallest gap found stayed at or above EPS_DEG.
    """
    if not 0.0 < bracket_tol < np.inf:
        raise ValueError(
            f"bracket_tol must be positive and finite, got {bracket_tol}")
    lo, hi = (float(beta_bracket[0]), float(beta_bracket[1]))
    if not lo < hi:
        raise ValueError(f"beta_bracket ({lo}, {hi}) is empty or reversed")
    if isinstance(target_point, str):
        recip = reciprocal(build_lattice(d0, 0.5 * (lo + hi)))
        k_t = recip.point(target_point)
    else:
        k_t = np.asarray(target_point, dtype=float)

    def gap_at(beta):
        spec = build_lattice(d0, beta)
        return make_gap_function(spec, block, band_pair, mode)(k_t)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = gap_at(c), gap_at(d)
    while (b - a) > bracket_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = gap_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = gap_at(d)
    beta_c = 0.5 * (a + b)
    if min(fc, fd) >= EPS_DEG:
        raise NoClosure(
            f"gap at {np.asarray(k_t)} stayed above {EPS_DEG:g} over "
            f"beta in [{lo}, {hi}] (best {min(fc, fd):.3e})"
        )
    return float(beta_c)


def dos_histogram(spec: LatticeSpec, block: str, energy_window,
                  k_grid: int = 60, n_bins: int = 80,
                  mode: str = "retarded"):
    """Normalized density-of-states histogram over the Brillouin zone.

    Equal-weight k sampling on a rectangular grid masked to the first zone:
    a grid point is kept when it is no farther from Gamma than its
    zone-reduced image (reduce_to_bz), within 1e-12 in |k|^2.

    Args:
        spec: Lattice.
        block: Which polarization block to histogram.
        energy_window: (lo, hi) detuning window.
        k_grid: Grid points per axis before masking.
        n_bins: Histogram bins across the window.

    Returns:
        (bin_centers, density) arrays; empty arrays for an empty window,
        zero density when no level falls inside the window.
    """
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not (hi > lo):
        return np.array([]), np.array([])
    kx_lo, kx_hi, _, ky = default_search_region(spec)
    kxy = np.array([[x, y] for x in np.linspace(kx_lo, kx_hi, k_grid)
                    for y in np.linspace(-ky, ky, k_grid)])
    red = reduce_to_bz(reciprocal(spec), kxy)
    kxy = kxy[np.einsum("ni,ni->n", kxy, kxy)
              <= np.einsum("ni,ni->n", red, red) + 1e-12]

    slots = SLOTS[block]
    energies = []
    for k in kxy:
        energies.extend(solve_k(spec, k, mode).detuning[slots])
    energies = np.asarray(energies)
    energies = energies[(energies >= lo) & (energies <= hi)]
    counts, edges = np.histogram(energies, bins=n_bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts / np.diff(edges) / max(counts.sum(), 1)
