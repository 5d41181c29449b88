"""Locating, classifying, and tracking band degeneracies.

A degeneracy of a band pair is located by a coarse gap scan over a k-region
followed by a deterministic, safeguarded Newton descent of gap(k)^2, which is
smooth with a zero minimum where the bands touch (see _refine_minimum). The
default region, the upper half zone, is scanned on its kx >= 0 half only:
the lattice's kx and ky mirrors give the rest (see find_degeneracies).
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

from .bloch import BLOCKS, SLOTS, bands_on_grid, solve_k
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


@dataclass(frozen=True, kw_only=True)
class DegeneracyReport:
    """Location and local model of one band degeneracy.

    find_degeneracies fills location and gap only (kind None); classify
    fills the rest. Every field is keyword-only, and the fields are
    declared in the order the CLI prints them as JSON.

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
    kind: str | None = None
    tilt: np.ndarray | None = None
    velocity_matrix: np.ndarray | None = None
    tilt_ratio: float = float("nan")
    exponents: tuple | None = None
    residuals: dict | None = None
    principal_axes: np.ndarray | None = None
    top_curvatures: tuple | None = None
    beta: float
    d0: float
    mode: str


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


def _check_block(block: str) -> None:
    if block not in SLOTS:
        raise ValueError(f"block must be one of {tuple(SLOTS)}, got {block!r}")


def _check_positive(name: str, value) -> None:
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_pair(block: str, band_pair) -> tuple:
    """band_pair as (i, j), 0 <= i < j < the block's band count, and the
    BandSet slots of bands i and j of the block; or raise."""
    _check_block(block)
    n_bands = BLOCKS.count(block)
    pair = tuple(band_pair)
    if not (len(pair) == 2 and 0 <= pair[0] < pair[1] < n_bands):
        raise ValueError(
            f"band_pair must be ascending indices below {n_bands} for the "
            f"{block} block, got {band_pair!r}")
    return pair, tuple(SLOTS[block].start + i for i in pair)


def make_gap_function(spec: LatticeSpec, block: str, band_pair,
                      mode: str = "retarded"):
    """Return gap(k) for one band pair (energy-sorted within block).

    gap takes one k (2,) and returns a scalar, or a batch (N, 2) and
    returns (N,) gaps, each bitwise the one-point gap of its row.

    Raises:
        ValueError: a bad block or band_pair.
    """
    _, (lower, upper) = _check_pair(block, band_pair)

    def gap(k):
        det = solve_k(spec, k, mode).detuning
        return det[..., upper] - det[..., lower]

    return gap


def default_search_region(spec: LatticeSpec):
    """Half-zone rectangle (kx_min, kx_max, ky_min, ky_max)."""
    recip = reciprocal(spec)
    mx = abs(recip.M[0])
    ky = float(np.linalg.norm(recip.K))
    return (-mx, mx, 0.0, ky)


def _in_box(k, box) -> bool:
    """Whether k lies in box = (kx_min, kx_max, ky_min, ky_max)."""
    return box[0] <= k[0] <= box[1] and box[2] <= k[1] <= box[3]


def _refine_minimum(gap, k0pt, scale, xatol, box=None):
    """Safeguarded Newton descent of f(k) = gap(k)^2; returns (k, gap(k)).

    Where two bands touch, gap^2 = 4|d(q)|^2 is smooth with a zero minimum:
    Newton converges quadratically at a Dirac point and linearly along the
    flat axis of a semi-Dirac point. f at k, k +- h x, k +- h y and
    k + h(s x + y) gives gradient and Hessian, h being the last step length
    and s the sign of the start point's kx (+1 at kx = 0): the descent from
    the kx mirror image of a start point is then the mirror image of the
    descent from it, to rounding. Those five points are one batched gap
    call, so an iteration costs one call plus one per trial step.
    The Newton step (steepest descent where the Hessian is not positive
    definite, or is singular to the solver) is cut to `scale` and halved
    until f goes down; if no step longer than xatol does, a stencil wider
    than xatol narrows to xatol and the iteration repeats. The descent ends
    there on a narrower stencil, on a step below xatol from a stencil no
    wider, on a drop of f below DROP_RTOL of f (a kink of the gap, not a
    touching point), on a step that lands outside box (kx_min, kx_max,
    ky_min, ky_max) when one is given, or after NEWTON_MAX_ITER iterations.
    """
    k = np.asarray(k0pt, dtype=float)
    g = gap(k)
    h = scale
    ex, ey = np.eye(2)
    s = 1.0 if k[0] >= 0.0 else -1.0
    for _ in range(NEWTON_MAX_ITER):
        f0 = g * g
        # each gap squared as a scalar, as for one point: the array
        # square can differ from it in the last bit
        fpx, fmx, fpy, fmy, fxy = (x ** 2 for x in gap(k + np.array([
            h * ex, -h * ex, h * ey, -h * ey, h * (s * ex + ey)])))
        grad = np.array([fpx - fmx, fpy - fmy]) / (2.0 * h)
        hxy = s * (fxy - (fpx if s > 0.0 else fmx) - fpy + f0)
        hess = np.array([[fpx - 2.0 * f0 + fmx, hxy],
                         [hxy, fpy - 2.0 * f0 + fmy]]) / h**2
        try:
            if not np.linalg.eigvalsh(hess)[0] > 0.0:
                raise np.linalg.LinAlgError("Hessian not positive definite")
            step = -np.linalg.solve(hess, grad)  # may still be singular
        except np.linalg.LinAlgError:
            if not grad @ grad > 0.0:
                break
            curv = grad @ hess @ grad
            step = -grad * min(grad @ grad / curv if curv > 0.0 else np.inf,
                               scale / np.linalg.norm(grad))
        length = float(np.linalg.norm(step))
        if length > scale:
            step, length = step * (scale / length), scale
        g_new = gap(k + step)
        while not g_new * g_new < f0 and length >= 2.0 * xatol:
            step, length = 0.5 * step, 0.5 * length
            g_new = gap(k + step)
        if g_new * g_new < f0:
            k, g = k + step, g_new
            if (length < xatol and h <= xatol or f0 - g * g <= DROP_RTOL * f0
                    or box is not None and not _in_box(k, box)):
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
    minimum (_refine_minimum, trust radius half a grid spacing; of two
    neighbouring grid points with exactly equal gaps only the first in
    grid order seeds), filtering at eps_deg, and duplicate merging modulo
    reciprocal vectors. A descent ends once it steps out of the region
    widened by two grid spacings, where its result would be dropped.

    The coarse grid comes from bloch.bands_on_grid. The default region is
    the upper half zone, which the lattice's two mirrors fill out: kx ->
    -kx maps the band structure onto itself as well as ky -> -ky. So only
    its columns with kx >= 0 are solved and seed (the centre column of an
    odd grid_n once), and the kx, ky and (kx, ky) mirror images of the
    merged points are added to the reports. With the default region in
    retarded mode, no seed is taken in the radiative neighborhood
    |k| < 1.1 k0 and refined points that end there are dropped: there the
    branch hugging the light line crosses the other bands, which would
    otherwise swamp the search with near-light-cone degeneracies. Grid
    points inside it are still solved and count as neighbors of the seeds
    around it. Pass an explicit search_region to probe that neighborhood;
    it is scanned literally, on the full grid and with no mirror added.

    Returns:
        Location-and-gap reports sorted by (gap, kx, ky); empty if gapped.

    Raises:
        ValueError: a bad block or band_pair, eps_deg not positive and
            finite, grid_n below 2, or a search_region with kx_min >= kx_max
            or ky_min >= ky_max.
    """
    pair, (lower, upper) = _check_pair(block, band_pair)
    _check_positive("eps_deg", eps_deg)
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    exclude_radiative = search_region is None and mode == "retarded"
    region = default_search_region(spec) if search_region is None else \
        tuple(float(v) for v in search_region)
    if not (region[0] < region[1] and region[2] < region[3]):
        raise ValueError(f"search_region {region} is empty or reversed")
    recip = reciprocal(spec)
    b1n = float(np.linalg.norm(recip.b1))

    def _excluded(kx, ky):
        return exclude_radiative & (np.hypot(kx, ky) < 1.1 * K0)

    # The default region is symmetric in kx: solve its columns from the
    # centre out. The +inf pad left of the first of them drops no seed
    # test: its left neighbours would be mirror twins of its own column
    # (even grid_n) or of the column to its right (odd), and the tests
    # against those columns already imply "at or below" the twins.
    first = grid_n // 2 if search_region is None else 0
    grid = bands_on_grid(
        spec, np.linspace(region[0], region[1], grid_n)[first:],
        np.linspace(region[2], region[3], grid_n), mode)
    vals = grid.detuning[:, :, upper] - grid.detuning[:, :, lower]

    spacing = max(region[1] - region[0], region[3] - region[2]) / (grid_n - 1)
    pad = np.pad(vals, 1, constant_values=np.inf)
    neigh = np.stack([pad[i0:i0 + vals.shape[0], j0:j0 + grid_n]
                      for i0 in (0, 1, 2) for j0 in (0, 1, 2)
                      if (i0, j0) != (1, 1)])
    # strictly below the four neighbours before it in grid order, at or
    # below the four after it: of two exactly tied minima, only the first
    # seeds
    is_min = (vals < neigh[:4].min(axis=0)) & (vals <= neigh[4:].min(axis=0))
    is_min &= ~_excluded(*np.meshgrid(grid.kx, grid.ky, indexing="ij"))
    seeds = [np.array([grid.kx[i], grid.ky[j]])
             for i, j in zip(*np.nonzero(is_min))]

    gap = make_gap_function(spec, block, band_pair, mode)
    margin = 2.0 * spacing
    box = (region[0] - margin, region[1] + margin,
           region[2] - margin, region[3] + margin)
    found = []
    for seed in seeds:
        k_star, g = _refine_minimum(gap, seed, 0.5 * spacing,
                                    REFINE_FRAC * b1n, box=box)
        if g < eps_deg and not _excluded(*k_star) and _in_box(k_star, box):
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
    # zone and was searched from kx >= 0, so the ky, kx and (kx, ky)
    # partners are reconstructed. An explicit region is honored literally
    # and gets no mirrors added.
    reports = list(merged)
    if search_region is None:
        for k, g in merged:
            for image in (k * [1.0, -1.0], k * [-1.0, 1.0], -k):
                if _is_new(image, reports):
                    reports.append((image, g))
    reports.sort(key=lambda t: (t[1], t[0][0], t[0][1]))
    return [
        DegeneracyReport(
            k_star=k_star, band_pair=pair, block=block,
            gap_min=g, beta=spec.beta, d0=spec.d0, mode=mode,
        )
        for k_star, g in reports
    ]


def classify(spec: LatticeSpec, location, block: str, band_pair,
             mode: str = "retarded", fit_radius: float | None = None,
             eps_deg: float = EPS_DEG) -> DegeneracyReport:
    """Classify the band-pair behavior around a degeneracy location.

    Samples both bands on N_DIRECTIONS rays with N_RADII log-spaced radii
    out to fit_radius (default FIT_RADIUS_FRAC |b1|), fits
    the tilt vector from the band average, the quadratic form A from
    (gap/2)^2, and the gap exponents along A's principal axes, then applies
    the taxonomy thresholds. The ray samples are one batched solve_k, the
    samples along both axes another.

    Returns:
        Full DegeneracyReport. kind='gapped' when the gap at the location
        exceeds eps_deg (no fits attempted).

    Raises:
        ValueError: a bad block or band_pair, eps_deg not positive and
            finite, or fit_radius neither None nor positive and finite.
        FitDegenerate: ill-conditioned fit design (cond > 1e8).
    """
    pair, (lower, upper) = _check_pair(block, band_pair)
    _check_positive("eps_deg", eps_deg)
    if fit_radius is not None:
        _check_positive("fit_radius", fit_radius)
    k_star = np.asarray(location, dtype=float)
    recip = reciprocal(spec)
    b1n = float(np.linalg.norm(recip.b1))
    r_out = FIT_RADIUS_FRAC * b1n if fit_radius is None else float(fit_radius)

    def both(k):
        """The pair's two bands at k (2,) or at each row of k (N, 2)."""
        det = solve_k(spec, k, mode).detuning
        return det[..., lower], det[..., upper]

    lo0, hi0 = both(k_star)
    gap0 = hi0 - lo0
    base = dict(k_star=k_star, band_pair=pair, block=block,
                gap_min=float(gap0), beta=spec.beta, d0=spec.d0, mode=mode)
    if gap0 >= eps_deg:
        return DegeneracyReport(kind="gapped", **base)

    m0 = 0.5 * (lo0 + hi0)
    radii = np.geomspace(FIT_INNER_FRAC * r_out, r_out, N_RADII)
    thetas = 2.0 * np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
    # every radius on every ray, ray by ray, in one batch
    rays = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    qs = (radii[None, :, None] * rays[:, None, :]).reshape(-1, 2)
    lo, hi = both(k_star + qs)
    mids = 0.5 * (lo + hi) - m0
    halves = 0.5 * (hi - lo)

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

    # Gap exponents and upper-band curvature along the principal axes,
    # both axes in one batch.
    lo, hi = both(k_star + (radii[None, :, None] * evecs.T[:, None, :])
                  .reshape(-1, 2))
    gaps = np.maximum(hi - lo, 1e-300).reshape(2, N_RADII)
    ups = (hi - hi0).reshape(2, N_RADII)
    exps, rms_e, curvs = [], [], []
    for gvals, upvals in zip(gaps, ups):
        logr = np.log(radii)
        p, _b = np.polyfit(logr, np.log(gvals), 1)
        fit = np.polyval([p, _b], logr)
        exps.append(float(p))
        rms_e.append(float(np.sqrt(np.mean((fit - np.log(gvals)) ** 2))))
        cs = np.polyfit(radii, upvals, 2)  # curvature + tilt + offset drift
        curvs.append(float(cs[0]))

    # The nearer class; fallback marks an exponent outside both windows.
    p_classes = [1 if abs(p - 1.0) < abs(p - 2.0) else 2 for p in exps]
    fallback = any(not (abs(p - 1.0) <= EXP_TOL_LINEAR
                        or abs(p - 2.0) <= EXP_TOL_QUAD) for p in exps)

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
                         eps_deg: float = EPS_DEG, start_point=None,
                         fit_radius: float | None = None) -> ConeTrajectory:
    """Track one degeneracy over a beta sweep and record its changes.

    Every beta refines from the previous location (refine_degeneracy),
    retried once from the midpoint beta before the track is declared lost.
    The first beta, and any beta after a loss, refines from start_point
    instead, or runs a full region search (find_degeneracies) when there is
    none or it stays gapped. A dirac_I <-> dirac_II classification change
    is bisected in beta, with the same refinement at each midpoint, until
    the bracket is no wider than 0.005, which brackets the type-III point.
    Every classification, those of the bisection included, samples out to
    fit_radius (classify's default when None).

    Returns:
        ConeTrajectory over the betas beta_start + i beta_step, i = 0, 1,
        ..., up to beta_stop and never past it.

    Raises:
        ValueError: beta_step or eps_deg not positive and finite, or
            beta_stop below beta_start.
    """
    _check_positive("beta_step", beta_step)
    _check_positive("eps_deg", eps_deg)
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
        return classify(spec, k, block, band_pair, mode,
                        fit_radius=fit_radius, eps_deg=eps_deg)

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
    _check_positive("bracket_tol", bracket_tol)
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
    zone-reduced image (reduce_to_bz), within 1e-12 in |k|^2. The kept
    points are one batched solve_k.

    Args:
        spec: Lattice.
        block: Which polarization block to histogram.
        energy_window: (lo, hi) detuning window.
        k_grid: Grid points per axis before masking.
        n_bins: Histogram bins across the window.

    Returns:
        (bin_centers, density) arrays; empty arrays for an empty window,
        zero density when no level falls inside the window.

    Raises:
        ValueError: an unknown block.
    """
    _check_block(block)
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not (hi > lo):
        return np.array([]), np.array([])
    kx_lo, kx_hi, _, ky = default_search_region(spec)
    kxy = np.array([[x, y] for x in np.linspace(kx_lo, kx_hi, k_grid)
                    for y in np.linspace(-ky, ky, k_grid)])
    red = reduce_to_bz(reciprocal(spec), kxy)
    kxy = kxy[np.einsum("ni,ni->n", kxy, kxy)
              <= np.einsum("ni,ni->n", red, red) + 1e-12]

    energies = solve_k(spec, kxy, mode).detuning[:, SLOTS[block]].ravel()
    energies = energies[(energies >= lo) & (energies <= hi)]
    counts, edges = np.histogram(energies, bins=n_bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts / np.diff(edges) / max(counts.sum(), 1)
