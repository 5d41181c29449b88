"""Locating, classifying, and tracking band degeneracies.

A degeneracy of a band pair is located by a coarse gap scan over a k-region
followed by deterministic, safeguarded Newton descents of gap(k)^2, which is
smooth with a zero minimum where the bands touch (see _descent). The
descents from all seeds run in lockstep, one gap call per round for all of
them (_refine_minima). The default region, the upper half zone, is scanned
on its kx >= 0 half only: the lattice's kx and ky mirrors give the rest
(see find_degeneracies). The same mirrors carry a classification over to
the mirror images of a cone, so classify_all classifies each mirror orbit
once.
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

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .bloch import BLOCKS, MIRROR_S, MIRROR_U, SLOTS, solve_k
from .greens import K0
from .lattice import LatticeSpec, build_lattice, reciprocal, reduce_to_bz

EPS_DEG = 1e-3  # detuning-units gap threshold for "degenerate"
TILT_TOL = 0.05  # tau_t band around t = 1 for type III
EXP_TOL_LINEAR = 0.15  # window half-width around p = 1
EXP_TOL_QUAD = 0.25  # window half-width around p = 2
FIT_RADIUS_FRAC = 0.05  # default fit radius in units of |b1|
FIT_INNER_FRAC = 0.1  # inner fit radius relative to the outer
ISO_RTOL = 1e-9  # A's eigenvalues this close: isotropic, axes kx and ky
N_DIRECTIONS = 16
N_RADII = 12
GRID_N = 48
REFINE_FRAC = 1e-6  # refinement step tolerance in units of |b1|
NEWTON_MAX_ITER = 20  # Newton iterations per refinement
DROP_RTOL = 1e-3  # a step lowering gap^2 by less than this fraction ends it
STENCIL_FLOOR = 1e-3  # smallest stencil step relative to the step tolerance
DEDUP_FRAC = 1e-4  # merge radius in units of |b1|
GOLDEN_STEP = 0.5 * (3.0 - np.sqrt(5.0))  # golden-section fraction of a side
PARITY_TOL = 1e-6  # |<v|P|v>| this close to 1: v has the mirror parity +-1

# diag(s) of the ky, kx and (kx, ky) mirrors: m(kx, -ky) = U m U and
# m(-kx, ky) = S m S
_MIRRORS = (np.array([1.0, -1.0]), np.array([-1.0, 1.0]),
            np.array([-1.0, -1.0]))

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
        exponents: Gap exponents along the principal axes of A, each
            fitted on both halves of its axis.
        residuals: Dict of rms fit residuals.
        principal_axes: Columns are the principal directions of A; kx
            and ky where its eigenvalues agree within ISO_RTOL.
        top_curvatures: Signed quadratic coefficients of the upper band
            along the two principal axes, each one quadratic over both
            halves of its axis; along an axis where the gap is linear it
            also takes up the cone's |q| term.
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
    """band_pair as (i, j), 0 <= i < j < the block's band count (the slots
    of a block-only BandSet); or raise."""
    _check_block(block)
    n_bands = BLOCKS.count(block)
    pair = tuple(band_pair)
    if not (len(pair) == 2 and 0 <= pair[0] < pair[1] < n_bands):
        raise ValueError(
            f"band_pair must be ascending indices below {n_bands} for the "
            f"{block} block, got {band_pair!r}")
    return pair


def make_gap_function(spec: LatticeSpec, block: str, band_pair,
                      mode: str = "retarded"):
    """Return gap(k) for one band pair (energy-sorted within block).

    gap takes k of any shape (..., 2) and returns the gaps in k's leading
    shape (a scalar for one k), each bitwise the one-point gap at its k.
    Each call is one solve_k of block alone.

    Raises:
        ValueError: a bad block or band_pair.
    """
    lower, upper = _check_pair(block, band_pair)

    def gap(k):
        det = solve_k(spec, k, mode, block).detuning
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


def _box_fraction(k, step, box) -> float:
    """The largest t <= 1 with k + t step inside box (k inside it)."""
    t = 1.0
    for axis in (0, 1):
        lo, hi = box[2 * axis], box[2 * axis + 1]
        end = k[axis] + step[axis]
        if end > hi and step[axis] > 0.0:
            t = min(t, (hi - k[axis]) / step[axis])
        elif end < lo and step[axis] < 0.0:
            t = min(t, (lo - k[axis]) / step[axis])
    return max(t, 0.0)


def _descent(k0pt, scale, xatol, box=None):
    """One safeguarded Newton descent of f(k) = gap(k)^2, as a generator.

    It yields each batch of points whose gaps it needs, is sent back those
    gaps (each row bitwise its one-point gap), and returns (k, gap(k)).
    Where two bands touch, gap^2 = 4|d(q)|^2 is smooth with a zero minimum:
    Newton converges quadratically at a Dirac point and linearly along the
    flat axis of a semi-Dirac point. f at k, k +- h x, k +- h y and
    k + h(s x + y) gives gradient and Hessian, h being the last step length
    and s the sign of the start point's kx (+1 at kx = 0): the descent from
    the kx mirror image of a start point is then the mirror image of the
    descent from it, to rounding. The batches are the start point with its
    stencil, each trial step, halved ones included, with the stencil it
    would use next, and a stencil narrowed at the same k. So an iteration
    asks for one batch plus one per halving.
    The Newton step (steepest descent where the Hessian is not positive
    definite, or is singular to the solver) is cut to `scale` and halved
    until f goes down; if no step longer than xatol does, a stencil wider
    than xatol narrows to xatol and the iteration repeats. When a box
    (kx_min, kx_max, ky_min, ky_max) is given, a step that would leave it
    is first cut to end on its edge, so a descent that overshoots a
    touching inside the box near its edge still comes back to it. The
    descent ends there on a narrower stencil; on a step below xatol or a
    drop of f below DROP_RTOL of f (a kink of the gap, not a touching
    point) from a stencil no wider, since a wider one's Newton step can
    fall short of a touching; on a step cut below xatol at the box edge
    (the descent heads out of the box); or after NEWTON_MAX_ITER iterations.
    """
    k = np.asarray(k0pt, dtype=float)
    h = scale
    ex, ey = np.eye(2)
    s = 1.0 if k[0] >= 0.0 else -1.0
    floor = STENCIL_FLOOR * xatol

    def stencil(p, h):
        return p + np.array([h * ex, -h * ex, h * ey, -h * ey,
                             h * (s * ex + ey)])

    def squares(gaps):
        # each gap squared as a scalar, as for one point: the array
        # square can differ from it in the last bit
        return tuple(x ** 2 for x in gaps)

    def probe(p, h):
        """gap(p), and f on p's stencil of step h, from one batch."""
        gaps = yield np.vstack([p, stencil(p, h)])
        return gaps[0], squares(gaps[1:])

    g, fs = yield from probe(k, h)
    for _ in range(NEWTON_MAX_ITER):
        f0 = g * g
        fpx, fmx, fpy, fmy, fxy = fs
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
        if box is not None:
            cut = _box_fraction(k, step, box)
            if cut < 1.0:
                step, length = step * cut, length * cut
                if length < xatol:
                    break
        g_new, fs_new = yield from probe(k + step, max(length, floor))
        while not g_new * g_new < f0 and length >= 2.0 * xatol:
            step, length = 0.5 * step, 0.5 * length
            g_new, fs_new = yield from probe(k + step, max(length, floor))
        if g_new * g_new < f0:
            k, g = k + step, g_new
            if h <= xatol and (length < xatol or f0 - g * g <= DROP_RTOL * f0):
                break
            h = max(length, floor)
            fs = fs_new
        elif h > xatol:
            h = xatol
            fs = squares((yield stencil(k, h)))
        else:
            break
    return k, float(g)


def _refine_minima(gap, seeds, scale, xatol, box=None) -> list:
    """Newton descents of gap^2 from every seed in lockstep (_descent).

    Each round is one gap call on the batches that the live descents ask
    for, stacked in seed order. Every row is bitwise its one-point gap, so
    each descent takes the steps it takes alone, to the bit, and the
    descents cost as many calls as the longest asks for batches.

    Returns:
        [(k, gap(k))], one per seed, in seed order.
    """
    descents = [_descent(seed, scale, xatol, box) for seed in seeds]
    ends = [None] * len(descents)
    sent = [None] * len(descents)  # what each live descent is sent next
    live = range(len(descents))
    while live:
        asks = []
        for i in live:
            try:
                asks.append((i, descents[i].send(sent[i])))
            except StopIteration as stop:
                ends[i] = stop.value
        if asks:
            gaps = gap(np.concatenate([points for _, points in asks]))
            cuts = np.cumsum([len(points) for _, points in asks])[:-1]
            for (i, _), part in zip(asks, np.split(gaps, cuts)):
                sent[i] = part
        live = [i for i, _ in asks]
    return ends


def _neighbours(a: np.ndarray, fill) -> np.ndarray:
    """The 8 neighbours of each point of a 2-D grid a, stacked in grid
    order (the four before the point, then the four after it), with fill
    past the grid's edges."""
    pad = np.pad(a, 1, constant_values=fill)
    return np.stack([pad[i0:i0 + a.shape[0], j0:j0 + a.shape[1]]
                     for i0 in (0, 1, 2) for j0 in (0, 1, 2)
                     if (i0, j0) != (1, 1)])


def find_degeneracies(spec: LatticeSpec, block: str, band_pair,
                      search_region=None, mode: str = "retarded",
                      eps_deg: float = EPS_DEG,
                      grid_n: int = GRID_N) -> list[DegeneracyReport]:
    """Locate gap closings of a band pair inside a k-region.

    Coarse grid scan (grid_n x grid_n) of search_region = (kx_min, kx_max,
    ky_min, ky_max), Newton refinement of gap^2 from every coarse local
    minimum (trust radius half a grid spacing; of two neighbouring grid
    points with exactly equal gaps only the first in grid order seeds),
    filtering at eps_deg, and duplicate merging modulo reciprocal vectors.
    The descents run in lockstep (_refine_minima): each round of all of
    them is one gap call. A descent stays inside the region widened by two
    grid spacings, outside which its result would be dropped: its steps are
    cut at that edge, and it ends there once it heads out.

    The coarse grid is one call of the refinement's gap function
    (make_gap_function). The default region is the upper half zone, which
    the lattice's two mirrors fill out: kx -> -kx maps the band structure
    onto itself as well as ky -> -ky. So only its columns with kx >= 0 are
    solved and seed (the centre column of an odd grid_n once), and the kx,
    ky and (kx, ky) mirror images of the merged points, diag(s) k for s
    in _MIRRORS, are added to the reports (classify_all maps a
    classification onto them). With the default region in retarded
    mode, no seed is taken in the radiative neighborhood, where the
    zone-reduced k (reduce_to_bz, as assemble reads the light cone) has
    |k| < 1.1 k0, and refined points that end there are dropped: there the
    branch hugging the light line crosses the other bands, which would
    otherwise swamp the search with near-light-cone degeneracies. A grid
    point inside it is solved only where one of its 8 neighbours lies
    outside, since it is read only as a neighbour of a seed candidate.
    Pass an explicit search_region to probe that neighborhood; it is
    scanned literally, on the full grid and with no mirror added.

    Returns:
        Location-and-gap reports sorted by (gap, kx, ky); empty if gapped.

    Raises:
        ValueError: a bad block or band_pair, eps_deg not positive and
            finite, grid_n below 2, or a search_region with kx_min >= kx_max
            or ky_min >= ky_max.
    """
    pair = _check_pair(block, band_pair)
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

    def _excluded(k):
        red = reduce_to_bz(recip, k)
        return exclude_radiative & (np.hypot(red[..., 0], red[..., 1])
                                    < 1.1 * K0)

    # The default region is symmetric in kx: solve its columns from the
    # centre out. The +inf pad left of the first of them drops no seed
    # test: its left neighbours would be mirror twins of its own column
    # (even grid_n) or of the column to its right (odd), and the tests
    # against those columns already imply "at or below" the twins. For
    # the same reason, taking the points left of it as non-seeding loses
    # no point that a seed test reads.
    first = grid_n // 2 if search_region is None else 0
    kx = np.linspace(region[0], region[1], grid_n)[first:]
    ky = np.linspace(region[2], region[3], grid_n)
    grid = np.stack(np.meshgrid(kx, ky, indexing="ij"), axis=-1)
    seeding = ~_excluded(grid)
    # a point that cannot seed is read only as a neighbour of one that can
    read = seeding | _neighbours(seeding, False).any(axis=0)
    gap = make_gap_function(spec, block, band_pair, mode)
    vals = np.full(read.shape, np.inf)
    vals[read] = gap(grid[read])

    spacing = max(region[1] - region[0], region[3] - region[2]) / (grid_n - 1)
    neigh = _neighbours(vals, np.inf)
    # strictly below the four neighbours before it in grid order, at or
    # below the four after it: of two exactly tied minima, only the first
    # seeds
    is_min = (vals < neigh[:4].min(axis=0)) & (vals <= neigh[4:].min(axis=0))
    seeds = list(grid[is_min & seeding])

    margin = 2.0 * spacing
    box = (region[0] - margin, region[1] + margin,
           region[2] - margin, region[3] + margin)
    found = [(k_star, g) for k_star, g in _refine_minima(
        gap, seeds, 0.5 * spacing, REFINE_FRAC * b1n, box=box)
        if g < eps_deg and not _excluded(k_star) and _in_box(k_star, box)]

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
            for image in (s * k for s in _MIRRORS):
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
    the taxonomy thresholds. Every sample is a solve_k of block alone: the
    location and the ray samples one batch (the location its first row),
    and the samples along both axes another. Each axis e is sampled on
    both halves, at +-r e for every other radius (radii[1::2]): each
    exponent is one fit over both halves, and each upper-band curvature one
    quadratic over the signed radii. So neither depends on the sign that
    eigh gives e, and a direct classify of two mirror images of one cone
    agrees to rounding.

    Returns:
        Full DegeneracyReport. kind='gapped' when the gap at the location
        exceeds eps_deg (no fits attempted).

    Raises:
        ValueError: a bad block or band_pair, eps_deg not positive and
            finite, or fit_radius neither None nor positive and finite.
        FitDegenerate: ill-conditioned fit design (cond > 1e8).
    """
    pair = lower, upper = _check_pair(block, band_pair)
    _check_positive("eps_deg", eps_deg)
    if fit_radius is not None:
        _check_positive("fit_radius", fit_radius)
    k_star = np.asarray(location, dtype=float)
    recip = reciprocal(spec)
    b1n = float(np.linalg.norm(recip.b1))
    r_out = FIT_RADIUS_FRAC * b1n if fit_radius is None else float(fit_radius)

    def both(k):
        """The pair's two bands at each point of k (..., 2)."""
        det = solve_k(spec, k, mode, block).detuning
        return det[..., lower], det[..., upper]

    radii = np.geomspace(FIT_INNER_FRAC * r_out, r_out, N_RADII)
    thetas = 2.0 * np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
    # the location, then every radius on every ray, ray by ray, in one batch
    rays = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    qs = (radii[None, :, None] * rays[:, None, :]).reshape(-1, 2)
    lo, hi = both(np.vstack([k_star, k_star + qs]))
    (lo0, lo), (hi0, hi) = (lo[0], lo[1:]), (hi[0], hi[1:])
    gap0 = hi0 - lo0
    base = dict(k_star=k_star, band_pair=pair, block=block,
                gap_min=float(gap0), beta=spec.beta, d0=spec.d0, mode=mode)
    if gap0 >= eps_deg:
        return DegeneracyReport(kind="gapped", **base)

    m0 = 0.5 * (lo0 + hi0)
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
    if evals[1] - evals[0] <= ISO_RTOL * np.abs(evals).max():
        evecs = np.eye(2)  # every direction is principal: eigh's are arbitrary

    # Gap exponents and upper-band curvature along the principal axes, on
    # both halves of each, both axes in one batch.
    signed = np.concatenate([radii[1::2], -radii[1::2]])
    lo, hi = both(k_star + (signed[None, :, None] * evecs.T[:, None, :])
                  .reshape(-1, 2))
    gaps = np.maximum(hi - lo, 1e-300).reshape(2, len(signed))
    ups = (hi - hi0).reshape(2, len(signed))
    logr = np.log(np.abs(signed))
    exps, rms_e, curvs = [], [], []
    for gvals, upvals in zip(gaps, ups):
        p, _b = np.polyfit(logr, np.log(gvals), 1)
        fit = np.polyval([p, _b], logr)
        exps.append(float(p))
        rms_e.append(float(np.sqrt(np.mean((fit - np.log(gvals)) ** 2))))
        cs = np.polyfit(signed, upvals, 2)  # curvature + tilt + offset drift
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


def _mirrored(rep: DegeneracyReport, s: np.ndarray,
              k_star: np.ndarray) -> DegeneracyReport:
    """rep's classification at its mirror image k_star = diag(s) rep.k_star.

    With P = diag(s) the tilt becomes P w, the velocity matrix P A P and
    the principal axes P times rep's; the rest is copied. Flipping signs
    is exact, so the image is the mirror of rep to the bit.
    """
    if rep.tilt is None:  # gapped: no fits
        return replace(rep, k_star=k_star)
    return replace(rep, k_star=k_star, tilt=s * rep.tilt,
                   velocity_matrix=np.outer(s, s) * rep.velocity_matrix,
                   principal_axes=s[:, None] * rep.principal_axes,
                   residuals=dict(rep.residuals))


def classify_all(spec: LatticeSpec, reports, mode: str = "retarded",
                 fit_radius: float | None = None,
                 eps_deg: float = EPS_DEG) -> list[DegeneracyReport]:
    """Classify find_degeneracies' reports, one classify per mirror orbit.

    The lattice's mirrors map the bands about k onto those about k's
    mirror image, so the local model there is the mirror image of the
    model at k. A report whose k_star is, bit for bit, diag(s) times the
    k_star of an earlier report of the same block and pair, with s one of
    (1, -1), (-1, 1) and (-1, -1) (the images find_degeneracies adds), gets
    that report's classification mirrored: its own k_star, the tilt P w,
    the velocity matrix P A P and the principal axes P times the axes,
    with P = diag(s); kind, gap_min, tilt_ratio, exponents, residuals and
    top_curvatures are copied. Every other report is classified (classify,
    with mode, fit_radius and eps_deg).

    Returns:
        The classified reports, in the order of reports.

    Raises:
        As classify.
    """
    done: list[DegeneracyReport] = []
    for rep in reports:
        bits = rep.k_star.tobytes()
        image = next(((prev, s) for prev in done for s in _MIRRORS
                      if prev.block == rep.block
                      and prev.band_pair == rep.band_pair
                      and (s * prev.k_star).tobytes() == bits), None)
        done.append(
            classify(spec, rep.k_star, rep.block, rep.band_pair, mode,
                     fit_radius, eps_deg) if image is None
            else _mirrored(*image, rep.k_star))
    return done


def refine_degeneracy(spec: LatticeSpec, block: str, band_pair, k_warm,
                      mode: str = "retarded"):
    """Newton refinement of gap^2 from a warm start near a degeneracy.

    The one-seed case of the search's descents (_refine_minima): trust
    radius 0.01 |b1| and step tolerance REFINE_FRAC |b1|.

    Returns:
        (k, gap(k)); the caller decides whether the gap is closed.
    """
    b1n = float(np.linalg.norm(reciprocal(spec).b1))
    gap = make_gap_function(spec, block, band_pair, mode)
    return _refine_minima(gap, [k_warm], 0.01 * b1n, REFINE_FRAC * b1n)[0]


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


def _min_gap_beta(gap_at, lo: float, hi: float, tol: float):
    """Smallest gap_at(beta) over [lo, hi] by a safeguarded secant search.

    Where two cones merge at a fixed k the gap closes linearly in beta, so
    gap(beta) = |s(beta)| is a V around a simple root of a smooth s. Every
    beta evaluated is kept, sorted, starting with lo and hi; j is the one
    with the smallest gap, and (beta_{j-1}, beta_{j+1}) is the bracket, an
    end of [lo, hi] closing its own side. The lines through (j-1, j) and
    (j, j+1) reach zero gap beyond beta_j; of those zeros strictly inside
    the bracket, the one nearest beta_j is evaluated next. Once that zero
    lies within tol/2 of beta_j, beta_j +- tol/2 are evaluated instead, to
    close the bracket. A golden-section step into the wider side replaces
    the secant step when no zero lies inside, or when the bracket has not
    halved over the last two steps. The search needs no sign of s, so it
    also finds a quadratic touching or a smooth gapped minimum, in at most
    about twice golden section's evaluations.

    A tol below 8 float spacings at the ends of [lo, hi] acts as 8
    spacings: every new beta then differs from those evaluated.

    Returns:
        (beta, gap): the middle of the first bracket no wider than tol, and
        the smallest gap evaluated, gap(beta_j).
    """
    tol = max(tol, 8.0 * np.spacing(max(abs(lo), abs(hi))))
    beta, gap = [lo, hi], [gap_at(lo), gap_at(hi)]
    widths = []
    while True:
        j = int(np.argmin(gap))
        bj, gj = beta[j], gap[j]
        a, b = beta[max(j - 1, 0)], beta[min(j + 1, len(beta) - 1)]
        if b - a <= tol:
            return 0.5 * (a + b), gj
        widths.append(b - a)
        new = []
        if len(widths) < 3 or widths[-1] <= 0.5 * widths[-3]:
            zeros = [bj - gj * (beta[i] - bj) / (gap[i] - gj)
                     for i in (j - 1, j + 1)
                     if 0 <= i < len(beta) and gap[i] > gj]
            zeros = [z for z in zeros if a < z < b]
            if zeros:
                z = min(zeros, key=lambda z: abs(z - bj))
                # one spacing short of tol/2, so that the rounded pair is
                # no wider than tol
                h = 0.5 * tol - np.spacing(bj)
                new = ([x for x in (bj - h, bj + h) if a < x < b]
                       if abs(z - bj) <= 0.5 * tol else [z])
        if not new:
            far = a if bj - a > b - bj else b
            new = [bj + GOLDEN_STEP * (far - bj)]
        for x in new:
            i = bisect.bisect(beta, x)
            beta.insert(i, x)
            gap.insert(i, gap_at(x))


def _signed_root(s_at, a: float, b: float, fa: float, fb: float,
                 tol: float, floor: float = math.inf):
    """A root of s in [a, b], s(a) = fa and s(b) = fb of opposite signs, by
    bracketing inverse quadratic interpolation (Chandrupatla's method).

    Each step evaluates a point x inside the bracket and keeps the part of
    it whose ends differ in sign; x becomes the newest end, and the end the
    step dropped becomes c, on the side of x. The first step takes the zero
    of the line through the two ends. Each later step fits beta(s) as a
    quadratic through the newest end, the other end and c, and takes its
    value at s = 0 where Chandrupatla's test finds that fit monotone over
    the bracket; elsewhere it bisects (Chandrupatla, Adv. Eng. Softw. 28,
    145 (1997)). Where x lies within tol/2 of an end, it is moved tol/2 away
    from that end before it is evaluated: one evaluation just past the root
    then closes a bracket no wider than tol (the straddle finish). A
    bisection replaces the step when the bracket has not halved over the
    last three steps, and a tol below 8 float spacings at the ends acts as
    8 spacings.

    The search ends at the first bracket no wider than tol once an |s|
    evaluated is below floor (the default, inf, admits any). Until then it
    narrows the bracket on, to a sixteenth of its width per round, for as
    long as each round after the first at least halves the larger |s| at
    the bracket ends and the bracket is wider than 8 float spacings: a
    simple root's |s| shrinks with its bracket, a pole's or a jump's does
    not.

    Returns:
        (root, smallest |s| evaluated): root is the zero of the line
        through the ends of the last bracket, on their own values.
    """
    tiny = 8.0 * np.spacing(max(abs(a), abs(b)))
    span = tol = max(tol, tiny)  # tol: the width that ends this round
    best = min(abs(fa), abs(fb))
    last = math.inf  # the larger end |s| when the last round began
    x = c = fc = None  # the newest end; the end the last step dropped
    widths = [b - a]
    while not (b - a <= span and best < floor):
        if b - a <= tol:
            ends = max(abs(fa), abs(fb))
            if tol == tiny or not ends <= 0.5 * last:
                break
            last, tol = ends, max((b - a) / 16.0, tiny)
        if len(widths) > 3 and widths[-1] > 0.5 * widths[-4]:
            x = 0.5 * (a + b)
        else:
            x = _interpolated_step(a, b, fa, fb, x, c, fc)
            # one spacing short of tol/2, so that the rounded bracket is no
            # wider than tol
            h = 0.5 * tol - np.spacing(x)
            if x - a <= h:
                x += h
            elif b - x <= h:
                x -= h
        fx = s_at(x)
        best = min(best, abs(fx))
        if fx == 0.0:
            return x, best
        if (fx < 0.0) == (fb < 0.0):
            c, fc, b, fb = b, fb, x, fx
        else:
            c, fc, a, fa = a, fa, x, fx
        widths.append(b - a)
    return a - fa * (b - a) / (fb - fa), best


def _interpolated_step(a, b, fa, fb, x, c, fc):
    """_signed_root's next point in [a, b] given the newest end x and the
    dropped end c: the secant zero before there is a c, the inverse
    quadratic zero through x, the other end and c where Chandrupatla's test
    accepts it, the middle of the bracket where it does not."""
    if c is None:
        return min(max(a - fa * (b - a) / (fb - fa), a), b)
    (x1, f1), (x2, f2) = ((a, fa), (b, fb)) if x == a else ((b, fb), (a, fa))
    xi, phi = (x1 - x2) / (c - x2), (f1 - f2) / (fc - f2)
    # phi^2 < xi and (1 - phi)^2 < 1 - xi, without squaring phi: the test
    # fails where s(x) = s(c), so no quotient below divides by zero
    if not 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
        return 0.5 * (a + b)
    t = (f1 / (f2 - f1) * fc / (f2 - fc)
         + (c - x1) / (x2 - x1) * f1 / (fc - f1) * f2 / (fc - f2))
    return min(max(x1 + t * (x2 - x1), a), b)


def _pair_at(spec: LatticeSpec, k, block: str, band_pair, mode: str):
    """The pair's gap at one k and the parities <v|P|v> of its upper band v
    under the mirrors P = S and U, from one block solve.

    The gap is bitwise make_gap_function's. The vectors have unit norm, so
    a parity is +-1 where P maps k onto itself and the band is simple.
    """
    lower, upper = band_pair
    bs = solve_k(spec, k, mode, block)
    v = bs.vectors[:, upper]
    return (bs.detuning[upper] - bs.detuning[lower],
            tuple(float(np.vdot(v, op @ v).real)
                  for op in (MIRROR_S, MIRROR_U)))


def critical_beta(d0: float, block: str, band_pair, target_point,
                  beta_bracket, mode: str = "retarded",
                  bracket_tol: float = 1e-4) -> float:
    """Beta at which a band pair closes its gap at a fixed k-point.

    At a target that a mirror P maps onto itself (M is fixed by both S and
    U), the block commutes with P, so each simple band has the parity
    <v|P|v> = +-1, and two bands of opposite parity cross without a gap
    opening. The gap times the sign of the upper band's parity, s(beta),
    then changes sign at the crossing. When S or U (tried in that order)
    gives the upper band a parity +-1 at both ends of beta_bracket, and
    opposite ones, beta_c is the root of s (_signed_root), found by
    inverse quadratic steps with a straddle finish: about 6 Bloch solves,
    both ends included and each on its own lattice, at bracket_tol 1e-6.
    Where no gap evaluated in a bracket no wider than bracket_tol is below
    EPS_DEG (a coarse bracket_tol), the same sign-change bracket is narrowed
    on, while the gaps at its ends keep halving, until one is.

    Otherwise, or where the gaps at the ends stop halving first (the sign
    change is a pole, or a jump where a third band crosses), gap(beta)
    is minimized over beta_bracket by a safeguarded secant search on the V
    the closing gap makes (_min_gap_beta), which reuses the solves made; the
    result is the middle of a final bracket no wider than bracket_tol around
    the smallest gap found.

    Args:
        d0: Cell scale.
        block, band_pair: Which pair to watch.
        target_point: k-point (2,) or a high-symmetry label such as 'M'.
        beta_bracket: (beta_lo, beta_hi) search interval; both ends are
            evaluated.
        mode: 'retarded' or 'quasistatic'.
        bracket_tol: Width of the final beta bracket.

    Returns:
        beta_c as a float.

    Raises:
        ValueError: a bad block or band_pair, bracket_tol not positive and
            finite, or an empty or reversed beta_bracket.
        NoClosure: the smallest gap found stayed at or above EPS_DEG.
    """
    pair = _check_pair(block, band_pair)
    _check_positive("bracket_tol", bracket_tol)
    lo, hi = (float(beta_bracket[0]), float(beta_bracket[1]))
    if not lo < hi:
        raise ValueError(f"beta_bracket ({lo}, {hi}) is empty or reversed")
    if isinstance(target_point, str):
        recip = reciprocal(build_lattice(d0, 0.5 * (lo + hi)))
        k_t = recip.point(target_point)
    else:
        k_t = np.asarray(target_point, dtype=float)
    solved = {}

    def at(beta):
        """(gap, parities) at beta, solved once."""
        if beta not in solved:
            solved[beta] = _pair_at(build_lattice(d0, beta), k_t, block,
                                    pair, mode)
        return solved[beta]

    def gap_at(beta):
        return at(beta)[0]

    def signed(beta, i):
        """s(beta) under mirror i: the gap with the sign of the parity."""
        g, parity = at(beta)
        return math.copysign(g, parity[i])

    def definite(parity):
        return abs(abs(parity) - 1.0) <= PARITY_TOL

    (_, p_lo), (_, p_hi) = at(lo), at(hi)
    for i, (a, b) in enumerate(zip(p_lo, p_hi)):
        if definite(a) and definite(b) and a * b < 0.0:
            root, best = _signed_root(lambda beta: signed(beta, i), lo, hi,
                                      signed(lo, i), signed(hi, i),
                                      bracket_tol, EPS_DEG)
            if best < EPS_DEG:
                return float(root)
            break
    beta_c, best = _min_gap_beta(gap_at, lo, hi, bracket_tol)
    if best >= EPS_DEG:
        raise NoClosure(
            f"gap at {np.asarray(k_t)} stayed above {EPS_DEG:g} over "
            f"beta in [{lo}, {hi}] (best {best:.3e})"
        )
    return float(beta_c)


def dos_histogram(spec: LatticeSpec, block: str, energy_window,
                  k_grid: int = 52, n_bins: int = 80,
                  mode: str = "retarded"):
    """Normalized density-of-states histogram over the Brillouin zone.

    Equal-weight k sampling of one primitive reciprocal cell: the k_grid^2
    points k = (i b1 + j b2)/k_grid, i, j = 0 .. k_grid - 1, hold each k
    once modulo the reciprocal lattice (uniform zone sampling; the lattice
    sums reduce each k to the first zone). They are one solve_k batch of
    block alone.

    Args:
        spec: Lattice.
        block: Which polarization block to histogram.
        energy_window: (lo, hi) detuning window.
        k_grid: Grid points along each reciprocal vector.
        n_bins: Histogram bins across the window.

    Returns:
        (bin_centers, density) arrays; empty arrays for an empty or
        reversed window, zero density when no level falls inside the
        window.

    Raises:
        ValueError: an unknown block, k_grid or n_bins below 1, or an
            energy_window bound that is not finite.
    """
    _check_block(block)
    for name, value in (("k_grid", k_grid), ("n_bins", n_bins)):
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"energy_window must be finite, got {(lo, hi)}")
    if not (hi > lo):
        return np.array([]), np.array([])
    recip = reciprocal(spec)
    n = np.arange(k_grid)
    k = (n[:, None, None] * recip.b1 + n[:, None] * recip.b2) / k_grid

    energies = solve_k(spec, k, mode, block).detuning.ravel()
    energies = energies[(energies >= lo) & (energies <= hi)]
    counts, edges = np.histogram(energies, bins=n_bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts / np.diff(edges) / max(counts.sum(), 1)
