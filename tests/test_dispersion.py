"""Degeneracy location, classification, and beta sweeps."""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from dipolebands import (
    FitDegenerate,
    NoClosure,
    OUT_OF_PLANE,
    IN_PLANE,
    bloch,
    build_lattice,
    classify,
    critical_beta,
    dispersion,
    dos_histogram,
    find_degeneracies,
    latticesums,
    reciprocal,
    reduce_to_bz,
    tilt_transition_scan,
)
from dipolebands.greens import K0
from tests.conftest import dist_mod_g
from tests.test_latticesums import _clear_tables

# gap-closing betas measured with critical_beta at bracket 1e-4; the
# acceptance suite re-derives them, unit tests reuse them for speed
BETA_C_OOP_M = 0.840599
BETA_C_IP01_M = 0.587086


# Bloch solves (k-points) of find_degeneracies(build_lattice(0.1, 0.9),
# OUT_OF_PLANE, (0, 1)): the kx >= 0 half of the 48 x 48 grid less the 65
# points inside the radiative disk that no seed test reads (1,087), plus
# the Newton refinement of its 2 seeds (66). The whole half grid, with
# stencils and trial steps solved in calls of their own, made it 1,213 in
# 22 calls, the whole grid and 3 seeds 2,433, seeding inside the
# radiative disk 3,202 (13 seeds), the Nelder-Mead refinement 6,032. They
# take 7 solve_k calls: one for the grid and 6 rounds of the two Newton
# descents in lockstep, each solving a trial step with the five stencil
# points it would use next (11 calls with the descents one after the other).
FIND_SOLVES_09 = 1153
FIND_CALLS_09 = 7
# solve_k calls of the same search at d0 0.15, beta 1.2, where descents to
# kinks of the gap take up to 136 rounds (137 calls; 458 one descent after
# the other)
FIND_CALLS_015 = 140


def _nelder_mead(gap, k0pt, scale, xatol):
    """The simplex refinement the Newton descent replaced (reference)."""
    simplex = np.array([k0pt, k0pt + [scale, 0.0], k0pt + [0.0, scale]])
    res = minimize(gap, k0pt, method="Nelder-Mead", options={
        "initial_simplex": simplex, "xatol": xatol, "fatol": 1e-14,
        "maxiter": 400, "maxfev": 800})
    return np.asarray(res.x, dtype=float), float(res.fun)


def _sequential_descent(gap, k0pt, scale, xatol, box=None):
    """The Newton descent of _refine_minima with every stencil and every
    trial step a gap call of its own (reference)."""
    k = np.asarray(k0pt, dtype=float)
    g = gap(k)
    h = scale
    ex, ey = np.eye(2)
    s = 1.0 if k[0] >= 0.0 else -1.0
    for _ in range(dispersion.NEWTON_MAX_ITER):
        f0 = g * g
        fpx, fmx, fpy, fmy, fxy = (x ** 2 for x in gap(k + np.array([
            h * ex, -h * ex, h * ey, -h * ey, h * (s * ex + ey)])))
        grad = np.array([fpx - fmx, fpy - fmy]) / (2.0 * h)
        hxy = s * (fxy - (fpx if s > 0.0 else fmx) - fpy + f0)
        hess = np.array([[fpx - 2.0 * f0 + fmx, hxy],
                         [hxy, fpy - 2.0 * f0 + fmy]]) / h**2
        try:
            if not np.linalg.eigvalsh(hess)[0] > 0.0:
                raise np.linalg.LinAlgError("Hessian not positive definite")
            step = -np.linalg.solve(hess, grad)
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
            cut = dispersion._box_fraction(k, step, box)
            if cut < 1.0:
                step, length = step * cut, length * cut
                if length < xatol:
                    break
        g_new = gap(k + step)
        while not g_new * g_new < f0 and length >= 2.0 * xatol:
            step, length = 0.5 * step, 0.5 * length
            g_new = gap(k + step)
        if g_new * g_new < f0:
            k, g = k + step, g_new
            if h <= xatol and (length < xatol
                               or f0 - g * g <= dispersion.DROP_RTOL * f0):
                break
            h = max(length, dispersion.STENCIL_FLOOR * xatol)
        elif h > xatol:
            h = xatol
        else:
            break
    return k, float(g)


class _Search(tuple):
    """(found, k-points solved, refinements) of _recorded_search, with the
    number of solve_k calls as .calls."""

    calls: int


def _recording_descent(mp, gap, refinements):
    """Patch the per-descent step so that each descent is recorded as (gap,
    seed, scale, xatol, (k, gap(k)), k-points asked for, box, batches)."""
    descent = dispersion._descent

    def recording(seed, scale, xatol, box=None):
        kpoints = batches = 0
        steps = descent(seed, scale, xatol, box)
        try:
            points = next(steps)
            while True:
                kpoints += len(points)
                batches += 1
                points = steps.send((yield points))
        except StopIteration as stop:
            out = stop.value
        refinements.append((gap, np.array(seed), scale, xatol, out, kpoints,
                            box, batches))
        return out

    mp.setattr(dispersion, "_descent", recording)


def _recorded_search(spec, block, pair):
    """find_degeneracies, counting its Bloch solves (the k-points of the
    coarse grid's batch in bloch and of the refinement in dispersion) and
    the solve_k calls, and recording each descent as _recording_descent
    does."""
    solves = [0, 0]
    refinements = []
    solve_k = bloch.solve_k

    def counting_solve(spec, k, *args, **kwargs):
        solves[0] += len(np.atleast_2d(k))
        solves[1] += 1
        return solve_k(spec, k, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bloch, "solve_k", counting_solve)
        mp.setattr(dispersion, "solve_k", counting_solve)
        _recording_descent(
            mp, dispersion.make_gap_function(spec, block, pair), refinements)
        found = find_degeneracies(spec, block, pair)
    search = _Search((found, solves[0], refinements))
    search.calls = solves[1]
    return search


def _full_grid_scan(spec, block, pair, mode, grid_n, eps_deg):
    """The default-region scan the kx-mirror half replaced (reference): it
    solves and seeds the whole grid, refines without a region box and adds
    only the ky mirror images. Its radiative exclusion is the search's:
    |k| < 1.1 k0 on the zone-reduced k."""
    lower, upper = (bloch.SLOTS[block].start + i
                    for i in dispersion._check_pair(block, pair))
    region = dispersion.default_search_region(spec)
    recip = reciprocal(spec)
    b1n = float(np.linalg.norm(recip.b1))

    def excluded(k):
        red = reduce_to_bz(recip, k)
        return (mode == "retarded") & (np.hypot(red[..., 0], red[..., 1])
                                       < 1.1 * K0)

    kx = np.linspace(*region[:2], grid_n)
    ky = np.linspace(*region[2:], grid_n)
    grid = bloch.bands_on_grid(spec, kx, ky, mode)
    vals = grid.detuning[:, :, upper] - grid.detuning[:, :, lower]
    pad = np.pad(vals, 1, constant_values=np.inf)
    neigh = np.stack([pad[i0:i0 + grid_n, j0:j0 + grid_n]
                      for i0 in (0, 1, 2) for j0 in (0, 1, 2)
                      if (i0, j0) != (1, 1)])
    is_min = (vals < neigh[:4].min(axis=0)) & (vals <= neigh[4:].min(axis=0))
    is_min &= ~excluded(grid.k)
    spacing = max(region[1] - region[0], region[3] - region[2]) / (grid_n - 1)
    margin = 2.0 * spacing
    gap = dispersion.make_gap_function(spec, block, pair, mode)
    found = []
    for i, j in zip(*np.nonzero(is_min)):
        (k, g), = dispersion._refine_minima(
            gap, [np.array([kx[i], ky[j]])], 0.5 * spacing,
            dispersion.REFINE_FRAC * b1n)
        if (g < eps_deg and not excluded(k)
                and region[0] - margin <= k[0] <= region[1] + margin
                and region[2] - margin <= k[1] <= region[3] + margin):
            found.append((k, g))

    def is_new(k, kept):
        return all(np.linalg.norm(reduce_to_bz(recip, k - k2))
                   >= dispersion.DEDUP_FRAC * b1n for k2, _ in kept)

    merged = []
    for k, g in sorted(found, key=lambda t: (t[1], t[0][0], t[0][1])):
        if is_new(k, merged):
            merged.append((k, g))
    mirrors = [(np.array([k[0], -k[1]]), g) for k, g in merged]
    return merged + [(m, g) for m, g in mirrors if is_new(m, merged)]


def _seeds_near(spec, refinements, targets):
    """Refinements seeded within one coarse spacing (mod G) of a target."""
    recip = reciprocal(spec)
    return [r for r in refinements
            if min(dist_mod_g(recip, r[1], t) for t in targets) <= 2 * r[2]]


def _check_against_nelder_mead(spec, refinements):
    """Refine again by Nelder-Mead from each seed: both must reach the
    same point, and the Newton descent a gap of at most 1e-10."""
    recip = reciprocal(spec)
    b1n = np.linalg.norm(recip.b1)
    for gap, seed, scale, xatol, (k_new, g_new), *_ in refinements:
        k_ref, _ = _nelder_mead(gap, seed, scale, xatol)
        assert g_new <= 1e-10, (seed, g_new)
        assert dist_mod_g(recip, k_new, k_ref) <= 1e-8 * b1n, (seed, k_new)
    return len(refinements)


def _forbid_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(dispersion, "solve_k", no_solve)


@pytest.fixture(scope="module")
def iso():
    return build_lattice(0.1, 1.0)


@pytest.fixture(scope="module")
def iso_cones(iso):
    return find_degeneracies(iso, OUT_OF_PLANE, (0, 1))


@pytest.fixture(scope="module")
def iso_in_plane_search(iso):
    return _recorded_search(iso, IN_PLANE, (1, 2))


@pytest.fixture(scope="module")
def search_09():
    return _recorded_search(build_lattice(0.1, 0.9), OUT_OF_PLANE, (0, 1))


@pytest.fixture(scope="module")
def search_093():
    return _recorded_search(build_lattice(0.1, 0.93), OUT_OF_PLANE, (0, 1))


@pytest.fixture(scope="module")
def search_015():
    return _recorded_search(build_lattice(0.15, 1.2), OUT_OF_PLANE, (0, 1))


@pytest.fixture(scope="module")
def search_065():
    return _recorded_search(build_lattice(0.1, 0.65), IN_PLANE, (0, 1))


def test_unit_beta_cones_sit_at_zone_corners(iso, iso_cones):
    recip = reciprocal(iso)
    assert len(iso_cones) == 2
    dk = min(dist_mod_g(recip, r.k_star, recip.K) for r in iso_cones)
    dkp = min(dist_mod_g(recip, r.k_star, recip.Kprime) for r in iso_cones)
    tol = 1e-4 * np.linalg.norm(recip.b1)
    assert dk < tol
    assert dkp < tol
    for r in iso_cones:
        assert r.gap_min < 1e-6


def test_unit_beta_in_plane_cones_at_corners(iso, iso_in_plane_search):
    recip = reciprocal(iso)
    found = iso_in_plane_search[0]
    assert len(found) == 2
    tol = 1e-4 * np.linalg.norm(recip.b1)
    ds = sorted(dist_mod_g(recip, r.k_star, recip.K) for r in found)
    assert ds[0] < tol


def test_classify_dirac_point_at_corner(iso, iso_cones):
    rep = classify(iso, iso_cones[0].k_star, OUT_OF_PLANE, (0, 1))
    assert rep.kind == "dirac_I"
    assert rep.tilt_ratio < 0.05
    assert rep.exponents[0] == pytest.approx(1.0, abs=0.15)
    assert rep.exponents[1] == pytest.approx(1.0, abs=0.15)
    # isotropic cone: equal principal velocities
    evals = np.linalg.eigvalsh(rep.velocity_matrix)
    assert evals[0] == pytest.approx(evals[1], rel=0.05)
    assert rep.residuals["velocity_rms"] < 0.05


@pytest.mark.parametrize("delta", [None, (1, 0, -1), (0, 1, 0), (-1, 1, 1)])
def test_isotropic_cone_axes_are_kx_ky(iso, monkeypatch, delta):
    # at beta 1, A is a multiple of the identity to rounding, where eigh's
    # axes are arbitrary: kx and ky are reported, also with A's fitted
    # entries (xx, xy, yy) moved by 1e-15 of their scale
    if delta is not None:
        lstsq = np.linalg.lstsq

        def perturbed(a, b, **kwargs):
            x, *rest = lstsq(a, b, **kwargs)
            if a.shape[1] == 3:  # the quadratic form's design
                x = x + 1e-15 * np.abs(x).max() * np.array(delta)
            return (x, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", perturbed)
    rep = classify(iso, reciprocal(iso).K, OUT_OF_PLANE, (0, 1))
    assert rep.kind == "dirac_I"
    assert np.array_equal(rep.principal_axes, np.eye(2))


def test_semi_dirac_at_merging_beta():
    spec = build_lattice(0.1, BETA_C_OOP_M)
    recip = reciprocal(spec)
    found = find_degeneracies(spec, OUT_OF_PLANE, (0, 1))
    assert found, "no degeneracy at the measured merging beta"
    dm = min(dist_mod_g(recip, r.k_star, recip.M) for r in found)
    assert dm < 1e-3 * np.linalg.norm(recip.b1)
    rep = classify(spec, found[0].k_star, OUT_OF_PLANE, (0, 1))
    assert rep.kind == "semi_dirac"
    ex = sorted(rep.exponents)
    assert ex[0] == pytest.approx(1.0, abs=0.15)
    assert ex[1] == pytest.approx(2.0, abs=0.25)
    # quadratic axis along the zone edge (y), linear axis toward Gamma (x)
    i_quad = int(np.argmax(rep.exponents))
    quad_axis = rep.principal_axes[:, i_quad]
    assert abs(quad_axis[1]) > 0.97
    lin_axis = rep.principal_axes[:, 1 - i_quad]
    assert abs(lin_axis[0]) > 0.97


def test_gapped_below_merging():
    spec = build_lattice(0.1, 0.7)
    recip = reciprocal(spec)
    region = (recip.M[0] - 3.0, recip.M[0] + 3.0, -3.0, 3.0)
    found = find_degeneracies(spec, OUT_OF_PLANE, (0, 1),
                              search_region=region)
    assert found == []


@pytest.mark.parametrize("region", [
    (20.94, -20.94, 24.18, 0.0),  # both axes reversed
    (0.0, 0.0, 0.0, 0.0),  # empty
    pytest.param(None, id="grid_n1"),  # default region, one grid line
])
def test_find_rejects_empty_or_reversed_region(monkeypatch, region):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the region was checked")

    monkeypatch.setattr(dispersion, "solve_k", no_solve)
    grid_n = 1 if region is None else dispersion.GRID_N
    with pytest.raises(ValueError,
                       match="grid_n" if region is None else "search_region"):
        find_degeneracies(build_lattice(0.1, 0.9), OUT_OF_PLANE, (0, 1),
                          search_region=region, grid_n=grid_n)


def test_classify_gapped_kind():
    spec = build_lattice(0.1, 0.7)
    rep = classify(spec, reciprocal(spec).M, OUT_OF_PLANE, (0, 1))
    assert rep.kind == "gapped"
    assert rep.gap_min > 1e-3
    assert rep.tilt is None


def test_reports_come_in_mirror_pairs(search_09):
    # anisotropy preserves the ky -> -ky mirror, so off-axis degeneracies
    # appear in pairs with mirrored locations
    found = search_09[0]
    assert len(found) == 2
    k0s = sorted(r.k_star[1] for r in found)
    assert k0s[0] == pytest.approx(-k0s[1], rel=1e-6)
    assert found[0].k_star[0] == pytest.approx(found[1].k_star[0], abs=1e-6)


def test_find_solve_count_bounded(search_09):
    # a refinement that falls back to a simplex search fails this
    _, solves, refinements = search_09
    assert len(refinements) == 2
    assert solves <= 1.1 * FIND_SOLVES_09


def test_find_solve_calls_bounded(search_09, search_015):
    # one call for the grid, then one per round of the lockstep descents:
    # as many as the longest descent asks for batches
    assert search_09.calls <= FIND_CALLS_09
    assert search_015.calls <= FIND_CALLS_015
    for search in (search_09, search_015):
        assert search.calls == 1 + max(r[7] for r in search[2])


# the region of the faked grids below whose coordinates are grid indices
_INDEX_REGION = (0.0, 5.0, 0.0, 5.0)


@pytest.mark.parametrize("field, seed, region, n", [
    (lambda x, y: (x - 2.5) ** 2 + (y - 2) ** 2, (2, 2), _INDEX_REGION, 6),
    (lambda x, y: (x - 2) ** 2 + (y - 2.5) ** 2, (2, 2), _INDEX_REGION, 6),
    (lambda x, y: (x - 2.5) ** 2 + (y - 2.5) ** 2 + (x + y - 5) ** 2,
     (2, 3), _INDEX_REGION, 6),
    (lambda x, y: (x - 2) ** 2 + (y - 3) ** 2, (2, 3), _INDEX_REGION, 6),
    # the default region at beta 0.9 (ky grid 0, 4.84, ..., 24.18, or 0,
    # 4.03, ..., 24.18), its minimum on the kx = 0 seam: between two
    # mirror-twin columns, or on the centre column
    (lambda x, y: x ** 2 + (y - 14.5) ** 2, (3, 3), None, 6),
    (lambda x, y: x ** 2 + (y - 12.0) ** 2, (3, 3), None, 7),
], ids=["kx_tie", "ky_tie", "diagonal_tie", "strict", "seam_even",
        "seam_odd"])
def test_tied_grid_minima_seed_once(monkeypatch, field, seed, region, n):
    # a faked coarse grid whose gap has one minimum, or two exactly tied
    # neighbouring ones: one refinement, from the first in grid order;
    # the default region's grid is solved for kx >= 0 only
    spec = build_lattice(0.1, 0.9)
    solved_kx = []

    def fake_grid(spec, k, mode, block):
        # the grid's points, one batch; solved_kx holds its columns
        solved_kx.extend(np.unique(k[:, 0]))
        n_k = len(k)
        detuning = np.zeros((n_k, 2))
        detuning[:, 1] = field(k[:, 0], k[:, 1])
        return bloch.BandSet(k=k, detuning=detuning,
                             decay=np.zeros_like(detuning),
                             vectors=np.zeros((n_k, 6, 2), complex),
                             block=(block,) * 2,
                             in_light_cone=np.zeros(n_k, bool),
                             anomalous=np.zeros(n_k, bool))

    seeds = []

    def recording_descent(k0pt, scale, xatol, box=None):
        seeds.append(tuple(k0pt))
        return k0pt, 1.0  # gapped: nothing is reported
        yield  # a descent that asks for no point

    monkeypatch.setattr(dispersion, "solve_k", fake_grid)
    monkeypatch.setattr(dispersion, "_descent", recording_descent)
    found = find_degeneracies(spec, OUT_OF_PLANE, (0, 1),
                              search_region=region, grid_n=n)
    assert found == []
    box = dispersion.default_search_region(spec) if region is None else \
        region
    assert seeds == [(np.linspace(*box[:2], n)[seed[0]],
                      np.linspace(*box[2:], n)[seed[1]])]
    if region is None:
        assert len(solved_kx) == (n + 1) // 2 and min(solved_kx) >= 0.0
    else:
        assert len(solved_kx) == n


@settings(max_examples=10, deadline=None)
@given(d0=st.floats(0.08, 0.2), beta=st.floats(0.55, 1.3),
       target=st.sampled_from([(OUT_OF_PLANE, (0, 1)), (IN_PLANE, (0, 1)),
                               (IN_PLANE, (1, 2)), (IN_PLANE, (2, 3))]),
       mode=st.sampled_from(["retarded", "quasistatic"]),
       grid_n=st.sampled_from([23, dispersion.GRID_N]))
# a descent that overshoots the margin on its way to a touching just
# inside it, at (-+M_x, 22.36); that touching's zone-reduced k, (0, -+6.66),
# lies at 1.06 k0, so both scans then drop it
@example(d0=0.125, beta=1.078125, target=(IN_PLANE, (2, 3)),
         mode="retarded", grid_n=23)
# from the seed (0, ky_max) the descent heads up out of the region, a step
# is cut at the box edge two grid spacings above it, and it ends on the
# bound-mode touching (0, 19.87) just inside that edge (reduced k at
# 2.55 k0), which both scans report
@example(d0=0.1408, beta=0.9066, target=(OUT_OF_PLANE, (0, 1)),
         mode="retarded", grid_n=23)
def test_mirror_half_scan_matches_full_grid_scan(d0, beta, target, mode,
                                                 grid_n):
    # The default region's scan seeds the kx >= 0 half of the grid and adds
    # mirror images; the full-grid scan seeds both halves. They report the
    # same touchings once the full scan's are closed under kx -> -kx: two
    # cones either side of the kx = 0 seam can share one seed there, and of
    # two touchings closer than the merge radius either can be the one
    # kept. Only touchings are compared (gap below 1e-8): where a descent
    # ends at a kink of the gap, its end point depends on the path taken.
    eps_deg = 1e-8
    spec = build_lattice(d0, beta)
    recip = reciprocal(spec)
    b1n = np.linalg.norm(recip.b1)
    ref = [k for k, _ in _full_grid_scan(spec, *target, mode, grid_n,
                                         eps_deg)]
    images = ref + [k * [-1.0, 1.0] for k in ref]
    merged = []
    for k in images:
        if all(dist_mod_g(recip, k, m) >= dispersion.DEDUP_FRAC * b1n
               for m in merged):
            merged.append(k)
    found = find_degeneracies(spec, *target, mode=mode, eps_deg=eps_deg,
                              grid_n=grid_n)
    assert len(found) == len(merged)
    for r in found:
        assert min(dist_mod_g(recip, r.k_star, k) for k in images) \
            <= 1e-8 * b1n


def _report_bits(reports):
    """The reports' fields, every float and array to the bit."""
    return [pickle.dumps(r) for r in reports]


@pytest.mark.parametrize("beta, block, pair", [
    (0.9, OUT_OF_PLANE, (0, 1)), (0.75, IN_PLANE, (2, 3))])
def test_search_and_classify_do_not_depend_on_pass_size(monkeypatch, beta,
                                                         block, pair):
    # every batch row is its one-point solve, so how solve_k splits the
    # grid, the stencils and classify's samples into passes moves no bit
    spec = build_lattice(0.1, beta)

    def reports():
        found = find_degeneracies(spec, block, pair)
        return _report_bits(
            found + [classify(spec, r.k_star, block, pair) for r in found])

    default = reports()
    assert len(default) >= 4
    monkeypatch.setattr(bloch, "_PASS_SIZE", 5)
    assert reports() == default


def test_search_solves_only_grid_points_it_reads(monkeypatch):
    # a grid point in the radiative disk with all 8 neighbours in it too
    # neither seeds nor borders a seed test, so it is not solved; every
    # other point of the kx >= 0 half is, in one batch
    spec = build_lattice(0.1, 0.9)
    batches = []
    solve_k = dispersion.solve_k

    def recording(spec, k, *args):
        batches.append(np.array(k))
        return solve_k(spec, k, *args)

    monkeypatch.setattr(dispersion, "solve_k", recording)
    find_degeneracies(spec, OUT_OF_PLANE, (0, 1))
    n = dispersion.GRID_N
    region = dispersion.default_search_region(spec)
    kx, ky = (np.linspace(*region[2 * a:2 * a + 2], n) for a in (0, 1))
    # one more grid line past each edge
    kx_ext, ky_ext = (np.concatenate([[v[0] - (v[1] - v[0])], v,
                                      [v[-1] + (v[1] - v[0])]])
                      for v in (kx, ky))
    inside = np.hypot(*np.meshgrid(kx_ext, ky_ext, indexing="ij")) \
        < 1.1 * K0
    unread = np.all([inside[i0:i0 + n, j0:j0 + n] for i0 in (0, 1, 2)
                     for j0 in (0, 1, 2)], axis=0)
    half = np.zeros((n, n), bool)
    half[n // 2:] = True
    want = np.stack(np.meshgrid(kx, ky, indexing="ij"), axis=-1)[
        half & ~unread]
    assert np.count_nonzero(half & unread) == 65
    assert np.array_equal(batches[0], want)


def _count_kernel_rows(mp):
    """The row count of every _spectral_kernels call from here on."""
    rows = []
    kernels = latticesums._spectral_kernels

    def counting(cell, k, *args):
        rows.append(len(k))
        return kernels(cell, k, *args)

    mp.setattr(latticesums, "_spectral_kernels", counting)
    return rows


def test_cone_searches_reuse_the_grid_not_the_rays(monkeypatch):
    # beta moves only the basis offset: the search grid is one k-set at
    # every beta, whose passes are stored on the second search and read on
    # the third. Classify's batch of the location and its rays moves with
    # the cone: asked for once, it is never stored
    _clear_tables()
    rows = _count_kernel_rows(monkeypatch)
    calls = []
    solve_k = dispersion.solve_k

    def recording(spec, k, *args):
        before = sum(rows)
        out = solve_k(spec, k, *args)
        calls.append((np.array(k).reshape(-1, 2), sum(rows) - before))
        return out

    monkeypatch.setattr(dispersion, "solve_k", recording)
    grid_rows, rays = [], []
    for beta in (0.9, 0.93, 0.95):
        spec = build_lattice(0.1, beta)
        calls.clear()
        reports = find_degeneracies(spec, OUT_OF_PLANE, (0, 1))
        grid, computed = calls[0]
        assert len(grid) == 1087
        grid_rows.append(computed)
        for r in reports:
            calls.clear()
            classify(spec, r.k_star, OUT_OF_PLANE, (0, 1))
            assert len(calls) == 2  # location and rays, then both axes
            rays.append(calls[0][0])
    assert grid_rows[0] >= 1087 and grid_rows[1] >= 1087
    assert grid_rows[2] == 0
    size = bloch._PASS_SIZE
    ray_passes = {r[i:i + size].tobytes() for r in rays
                  for i in range(0, len(r), size)}
    assert {len(r) for r in rays} == {193}
    assert not ray_passes & {key[-1] for key in latticesums._PASS_HALVES}
    assert ray_passes & {key[-1] for key in latticesums._PASS_KEYS}


def test_refinement_matches_sequential_descent(search_09, search_093,
                                               search_065):
    # each trial step solved with the stencil it would use next takes the
    # same steps as the descent that solved them apart, to the bit
    checked = 0
    for _, _, refinements in (search_09, search_093, search_065):
        for gap, seed, scale, xatol, (k, g), _, box, _ in refinements:
            k_ref, g_ref = _sequential_descent(gap, seed, scale, xatol,
                                               box=box)
            assert k.tobytes() == k_ref.tobytes() and g == g_ref, seed
            checked += 1
    assert checked >= 7


# seed fractions of the default region at d0 0.1, beta 0.9: descents that
# end on the box's top edge after 6 and 10 batches and on a cone after 19
_STAGGERED = [(0.0, 1.0), (-0.943, 0.124), (0.087, 0.935)]


@settings(max_examples=8, deadline=None)
@given(fracs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=4),
       staggered=st.just(False))
@example(fracs=_STAGGERED, staggered=True)
def test_lockstep_descents_end_where_each_ends_alone(fracs, staggered):
    # the descents of one search share each round's gap call, stacked in
    # seed order; each still ends where it ends alone, to the bit, and the
    # rounds are as many as the longest descent's batches
    spec = build_lattice(0.1, 0.9)
    region = dispersion.default_search_region(spec)
    spacing = max(region[1] - region[0], region[3] - region[2]) / (
        dispersion.GRID_N - 1)
    box = (region[0] - 2 * spacing, region[1] + 2 * spacing,
           region[2] - 2 * spacing, region[3] + 2 * spacing)
    scale = 0.5 * spacing
    xatol = dispersion.REFINE_FRAC * np.linalg.norm(reciprocal(spec).b1)
    seeds = [np.array([fx * region[1], fy * region[3]]) for fx, fy in fracs]
    gap = dispersion.make_gap_function(spec, OUT_OF_PLANE, (0, 1))
    calls, descents = [0], []

    def counting_gap(k):
        calls[0] += 1
        return gap(k)

    with pytest.MonkeyPatch.context() as mp:
        _recording_descent(mp, gap, descents)
        ends = dispersion._refine_minima(counting_gap, seeds, scale, xatol,
                                         box=box)
    batches = [d[7] for d in descents]
    assert calls[0] == max(batches)
    for seed, (k, g) in zip(seeds, ends):
        k_ref, g_ref = _sequential_descent(gap, seed, scale, xatol, box=box)
        assert k.tobytes() == k_ref.tobytes() and g == g_ref, seed
    if staggered:
        assert len(set(batches)) == len(batches)
        assert any(k[1] == pytest.approx(box[3], rel=1e-12) for k, _ in ends)


def _mirror_source(reports, i):
    """(earlier report, s) with reports[i].k_star = diag(s) its k_star,
    bit for bit; None if there is none."""
    bits = reports[i].k_star.tobytes()
    return next(((r, s) for r in reports[:i] for s in dispersion._MIRRORS
                 if (s * r.k_star).tobytes() == bits), None)


def _assert_close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    a, b = np.nan_to_num(a), np.nan_to_num(b)
    assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


@pytest.mark.parametrize("search, mapped", [("search_09", 1),
                                            ("search_015", 3)])
def test_mirror_images_take_their_orbit_classification(request, monkeypatch,
                                                       search, mapped):
    # classify_all classifies the first report of each mirror orbit and
    # maps it onto the others. A mapped report reads its source's kind,
    # exponents and curvatures, and agrees with a direct classify of its
    # image in what the mirror-symmetric ray set fits (tilt, velocity
    # matrix, tilt ratio). The direct classify samples both half-axes, so
    # it reads the same kind, exponents and curvatures to rounding, though
    # eigh may give its axes the opposite sign
    found = request.getfixturevalue(search)[0]
    spec = build_lattice(found[0].d0, found[0].beta)
    direct = [classify(spec, r.k_star, OUT_OF_PLANE, (0, 1)) for r in found]
    classified = []
    classify_one = dispersion.classify

    def recording(spec, k, *args, **kwargs):
        classified.append(np.asarray(k).tobytes())
        return classify_one(spec, k, *args, **kwargs)

    monkeypatch.setattr(dispersion, "classify", recording)
    reports = dispersion.classify_all(spec, found)
    assert [r.k_star.tobytes() for r in reports] == \
        [r.k_star.tobytes() for r in found]
    assert len(classified) == len(found) - mapped
    for i, rep in enumerate(reports):
        source = _mirror_source(reports, i)
        if source is None:
            assert _report_bits([rep]) == _report_bits([direct[i]])
            continue
        src, s = source
        assert rep.k_star.tobytes() not in classified
        assert (rep.kind, rep.exponents, rep.top_curvatures, rep.gap_min,
                rep.residuals) == (src.kind, src.exponents,
                                   src.top_curvatures, src.gap_min,
                                   src.residuals)
        assert np.array_equal(rep.principal_axes,
                              s[:, None] * src.principal_axes)
        assert direct[i].kind == src.kind
        for field in ("tilt", "velocity_matrix", "tilt_ratio", "exponents",
                      "top_curvatures"):
            _assert_close(getattr(rep, field), getattr(direct[i], field))


def test_gap_batch_rows_match_one_point_calls():
    # a zone vertex, a point moved by a reciprocal vector, a light-line
    # point and generic ones, in both blocks
    spec = build_lattice(0.1, 0.9)
    recip = reciprocal(spec)
    ks = np.array([recip.K, recip.M + recip.b1, [2.0 * np.pi, 0.0],
                   [3.0, 17.0], [-20.0, 8.0]])
    for block, pair in ((OUT_OF_PLANE, (0, 1)), (IN_PLANE, (1, 2))):
        gap = dispersion.make_gap_function(spec, block, pair)
        batch = gap(ks)
        assert batch.shape == (len(ks),)
        for n, k in enumerate(ks):
            assert batch[n] == gap(k)


def test_refinement_matches_nelder_mead_at_cones(search_09, search_093):
    checked = 0
    for beta, (found, _, refinements) in ((0.9, search_09),
                                          (0.93, search_093)):
        spec = build_lattice(0.1, beta)
        near = _seeds_near(spec, refinements, [r.k_star for r in found])
        checked += _check_against_nelder_mead(spec, near)
    assert checked >= 2


def test_refinement_matches_nelder_mead_at_corners(iso, iso_in_plane_search):
    recip = reciprocal(iso)
    near = _seeds_near(iso, iso_in_plane_search[2], [recip.K, recip.Kprime])
    assert _check_against_nelder_mead(iso, near) >= 2


def test_refinement_matches_nelder_mead_on_gamma_m(search_065):
    # the tilted in-plane cones of the type-III window sit on Gamma-M (ky=0)
    spec = build_lattice(0.1, 0.65)
    on_line = [r for r in search_065[2] if r[1][1] == 0.0]
    assert _check_against_nelder_mead(spec, on_line) >= 2


def test_descent_leaving_the_region_stops(search_065):
    # the seed on the top edge ky = |K| descends out of the region, where
    # its result is dropped (unstopped, it took 121 k-points to end at gap
    # 4.8 near ky = 32.9): its step is cut at the margin, two grid spacings
    # out (scale is half one), and it ends on that edge
    spec = build_lattice(0.1, 0.65)
    top = dispersion.default_search_region(spec)[3]
    (edge,) = [r for r in search_065[2] if r[1][1] == top]
    (k, _), kpoints = edge[4:6]
    assert kpoints <= 40
    assert k[1] == pytest.approx(top + 4.0 * edge[2], rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(beta=st.floats(0.86, 0.95), angle=st.floats(0.0, 2.0 * np.pi),
       frac=st.floats(0.0, 0.5))
# the first step lands 0.0076 from the cone; the next stencil, as wide as
# that step, gives Newton steps that barely lower f
@example(beta=0.9375, angle=3.0625, frac=0.48828125)
def test_refinement_converges_from_displaced_seed(beta, angle, frac):
    spec = build_lattice(0.1, beta)
    recip = reciprocal(spec)
    b1n = np.linalg.norm(recip.b1)
    mx = abs(recip.M[0])
    ky = np.linalg.norm(recip.K)
    gap = dispersion.make_gap_function(spec, OUT_OF_PLANE, (0, 1))
    # the cone sits on the zone edge kx = mx between M and the corner
    edge = minimize_scalar(lambda y: gap(np.array([mx, y])),
                           bounds=(0.3, 0.5 * ky - 0.3), method="bounded",
                           options={"xatol": 1e-10})
    cone = np.array([mx, edge.x])
    assert edge.fun < 1e-6
    # coarse spacing and refinement scales as in find_degeneracies
    spacing = max(2.0 * mx, ky) / (dispersion.GRID_N - 1)
    seed = cone + frac * spacing * np.array([np.cos(angle), np.sin(angle)])
    (k, g), = dispersion._refine_minima(gap, [seed], 0.5 * spacing,
                                        dispersion.REFINE_FRAC * b1n)
    assert g <= 1e-10
    assert np.linalg.norm(k - cone) <= 1e-6 * b1n


def test_classification_stable_under_fit_radius_halving(iso, iso_cones):
    b1n = np.linalg.norm(reciprocal(iso).b1)
    full = classify(iso, iso_cones[0].k_star, OUT_OF_PLANE, (0, 1))
    half = classify(iso, iso_cones[0].k_star, OUT_OF_PLANE, (0, 1),
                    fit_radius=0.025 * b1n)
    assert full.kind == half.kind == "dirac_I"
    v_full = np.linalg.eigvalsh(full.velocity_matrix)
    v_half = np.linalg.eigvalsh(half.velocity_matrix)
    np.testing.assert_allclose(v_half, v_full, rtol=0.1)


def test_tilt_ratio_matches_directional_maximum(iso, iso_cones):
    # t = sqrt(w . A^-1 w) equals the maximum of |w . n| / sqrt(n . A n)
    rep = classify(iso, iso_cones[0].k_star, OUT_OF_PLANE, (0, 1))
    w = rep.tilt
    a = rep.velocity_matrix
    t_closed = np.sqrt(w @ np.linalg.solve(a, w))
    angles = np.linspace(0, 2 * np.pi, 721)
    ns = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    t_scan = max(abs(n @ w) / np.sqrt(n @ a @ n) for n in ns)
    assert rep.tilt_ratio == pytest.approx(t_closed, rel=1e-9)
    assert t_closed == pytest.approx(t_scan, rel=1e-3, abs=1e-12)


def test_critical_beta_out_of_plane_at_m():
    bc = critical_beta(0.1, OUT_OF_PLANE, (0, 1), "M", (0.80, 0.88))
    assert bc == pytest.approx(0.84, abs=0.02)
    assert bc == pytest.approx(BETA_C_OOP_M, abs=2e-4)


def test_critical_beta_in_plane_at_m():
    bc = critical_beta(0.1, IN_PLANE, (0, 1), "M", (0.55, 0.63))
    assert bc == pytest.approx(0.587, abs=0.02)
    assert bc == pytest.approx(BETA_C_IP01_M, abs=2e-4)


def test_critical_beta_no_closure():
    with pytest.raises(NoClosure):
        critical_beta(0.1, OUT_OF_PLANE, (0, 1), "M", (0.60, 0.70))


def _golden_section(gap_at, lo, hi, tol):
    """The golden-section search the secant search of critical_beta
    replaced (reference): (beta, smallest gap) for a bracket of width tol."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = gap_at(c), gap_at(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = gap_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = gap_at(d)
    return 0.5 * (a + b), min(fc, fd)


@pytest.mark.parametrize("d0,block,bracket", [
    (0.1, OUT_OF_PLANE, (0.80, 0.88)),
    (0.1, IN_PLANE, (0.55, 0.63)),
    (0.15, OUT_OF_PLANE, (0.81, 0.89)),
])
def test_critical_beta_lattice_builds_at_anchors(monkeypatch, d0, block,
                                                 bracket):
    # the acceptance anchors; golden section built 27 lattices (26 gap
    # evaluations and the M lookup), the V search 10 and the Illinois
    # signed root 8
    betas = []
    build = dispersion.build_lattice

    def counting_build(d0, beta):
        betas.append(beta)
        return build(d0, beta)

    monkeypatch.setattr(dispersion, "build_lattice", counting_build)
    bc = critical_beta(d0, block, (0, 1), "M", bracket, bracket_tol=1e-6)
    # the M lookup, both bracket ends and four steps: the secant, two
    # inverse quadratic steps and the straddle finish
    assert len(betas) <= 7

    k_m = reciprocal(build(d0, 0.5 * sum(bracket))).M
    ref, _ = _golden_section(
        lambda beta: dispersion.make_gap_function(
            build(d0, beta), block, (0, 1))(k_m), *bracket, 1e-6)
    assert bc == pytest.approx(ref, abs=1e-6)


def test_critical_beta_builds_two_disks_per_cell(monkeypatch):
    # every lattice of one d0 shares a cell table: its order list and its
    # frame are the only _disk calls, each offset table a filtered frame
    # (the V search made one _disk per gap evaluation, 11 here)
    _clear_tables()
    calls = []
    disk = latticesums._disk

    def counting_disk(*args, **kwargs):
        calls.append(args[2])
        return disk(*args, **kwargs)

    monkeypatch.setattr(latticesums, "_disk", counting_disk)
    critical_beta(0.1, OUT_OF_PLANE, (0, 1), "M", (0.80, 0.88),
                  bracket_tol=1e-6)
    assert len(latticesums._CELL_TABLES) == 1
    assert len(calls) <= 2 * len(latticesums._CELL_TABLES)


@settings(max_examples=12, deadline=None)
@given(d0=st.floats(0.08, 0.2),
       block=st.sampled_from((OUT_OF_PLANE, IN_PLANE)))
def test_signed_root_matches_v_search(d0, block):
    # at M the pair has opposite parity under S (out-of-plane) or U
    # (in-plane) at both bracket ends, so critical_beta takes the signed
    # root, never the V search; it lands within bracket_tol of the V
    # search on the same gap function, on a closed gap
    bracket, tol = {OUT_OF_PLANE: (0.80, 0.94), IN_PLANE: (0.52, 0.66)}[
        block], 1e-6

    def no_v_search(*args):
        raise AssertionError("the V search ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispersion, "_min_gap_beta", no_v_search)
        got = critical_beta(d0, block, (0, 1), "M", bracket,
                            bracket_tol=tol)
    k_m = reciprocal(build_lattice(d0, bracket[0])).M

    def gap_at(beta):
        return dispersion.make_gap_function(build_lattice(d0, beta), block,
                                            (0, 1))(k_m)

    want, _ = dispersion._min_gap_beta(gap_at, *bracket, tol)
    assert abs(got - want) <= tol
    assert gap_at(got) < dispersion.EPS_DEG


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["smooth", "pole", "jump"]),
       lo=st.floats(0.3, 1.2), log_width=st.floats(-3.0, -0.5),
       root_frac=st.floats(0.001, 0.999), log_tol=st.floats(-14.0, -3.0),
       log_slope=st.floats(-2.0, 2.0), falling=st.booleans(),
       curv_frac=st.floats(-0.3, 3.0), log_g0=st.floats(-3.0, 1.0))
def test_signed_root_closes_on_the_sign_change(shape, lo, log_width,
                                               root_frac, log_tol,
                                               log_slope, falling,
                                               curv_frac, log_g0):
    # a simple root with curvature, a pole and a jump: each sign change is
    # bracketed to within tol (or 8 float spacings), in at most four
    # evaluations per halving of the bracket (three steps that do not halve
    # it are followed by a bisection)
    width, tol = 10.0 ** log_width, 10.0 ** log_tol
    hi, root = lo + width, lo + root_frac * width
    slope = (-1.0 if falling else 1.0) * 10.0 ** log_slope
    seen = []  # |s| at each beta evaluated

    def s(beta):
        x = beta - root
        if shape == "smooth":
            value = slope * x * (1.0 + curv_frac * abs(x) / width)
        elif shape == "pole":
            value = slope / x if x else np.copysign(1e300, slope)
        else:
            value = np.copysign(10.0 ** log_g0 + abs(x), slope * x)
        seen.append(abs(value))
        return value

    got, best = dispersion._signed_root(s, lo, hi, s(lo), s(hi), tol)
    tol = max(tol, 8.0 * np.spacing(hi))
    assert abs(got - root) <= tol
    assert best == min(seen)
    assert len(seen) - 2 <= 4 * max(np.ceil(np.log2(width / tol)), 1)


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(0.3, 1.2), log_width=st.floats(-3.0, -0.5),
       root_frac=st.floats(0.001, 0.999), log_tol=st.floats(-14.0, -3.0),
       log_slope=st.floats(-2.0, 2.0), falling=st.booleans(),
       curv_frac=st.floats(-0.3, 3.0))
# Illinois regula falsi took 12 evaluations here, past the bound of 11
@example(lo=0.5, log_width=-2.0, root_frac=0.125, log_tol=-6.0,
         log_slope=0.0, falling=False, curv_frac=3.0)
def test_signed_root_steps_on_a_smooth_root(lo, log_width, root_frac,
                                            log_tol, log_slope, falling,
                                            curv_frac):
    # the smooth shape of test_signed_root_closes_on_the_sign_change: where
    # bisection takes n = ceil(log2(width / tol)) evaluations, the inverse
    # quadratic steps take at most 3 + 2 ceil(log2 n)
    width, tol = 10.0 ** log_width, 10.0 ** log_tol
    hi, root = lo + width, lo + root_frac * width
    slope = (-1.0 if falling else 1.0) * 10.0 ** log_slope
    calls = []

    def s(beta):
        calls.append(beta)
        x = beta - root
        return slope * x * (1.0 + curv_frac * abs(x) / width)

    got, _ = dispersion._signed_root(s, lo, hi, s(lo), s(hi), tol)
    tol = max(tol, 8.0 * np.spacing(hi))
    assert abs(got - root) <= tol
    n = max(np.ceil(np.log2(width / tol)), 1)
    assert len(calls) - 2 <= 3 + 2 * np.ceil(np.log2(n))


@pytest.mark.parametrize("shape", ["smooth", "pole", "jump"])
def test_signed_root_narrows_on_while_the_ends_fall(shape):
    # at tol 1e-2 no |s| evaluated is below the floor 1e-3. A root's |s|
    # shrinks with its bracket, so the narrowing finds one below it; a
    # pole's and a jump's end values do not halve, so the narrowing stops
    # after one round, here of four evaluations
    root, tol, floor = 0.8406, 1e-2, 1e-3
    f = {"smooth": lambda x: 3.0 * x * (1.0 + 10.0 * abs(x)),
         "pole": lambda x: -1e-3 / x,
         "jump": lambda x: np.copysign(0.05 + abs(x), x)}[shape]

    def search(floor):
        seen = []

        def s(beta):
            seen.append(beta)
            return f(beta - root)

        got, best = dispersion._signed_root(s, 0.80, 0.90, s(0.80), s(0.90),
                                            tol, floor)
        assert abs(got - root) <= tol
        return best, len(seen)

    coarse, n_coarse = search(np.inf)
    best, n = search(floor)
    assert coarse >= floor
    assert (best < floor) == (shape == "smooth")
    assert n <= n_coarse + 4


def _capped(s, calls: int = 200):
    """s, raising once it is called more than calls times: a search that
    does not end fails the test instead of hanging."""
    seen = []

    def capped(x):
        seen.append(x)
        if len(seen) > calls:
            raise AssertionError(f"{calls} evaluations and no end")
        return s(x)

    return capped


@pytest.mark.parametrize("ends, step", [
    ((-np.inf, np.inf), lambda x: np.copysign(np.inf, x - 0.85)),
    ((-1.0, 1.0), lambda x: np.nan),
    ((-0.05, 0.05), lambda x: np.inf),
])
def test_signed_root_ends_at_a_non_finite_s(ends, step):
    # s infinite at both ends, or not finite at the first step: the search
    # ends there, with no root and its smallest |s| inf
    root, best = dispersion._signed_root(_capped(step), 0.80, 0.90, *ends,
                                         1e-6, dispersion.EPS_DEG)
    assert np.isnan(root) and best == np.inf


@pytest.mark.parametrize("gap", [np.inf, np.nan])
def test_critical_beta_falls_back_on_non_finite_gaps(monkeypatch, gap):
    # gaps that are not finite, with opposite parities at the bracket ends:
    # the signed root ends at once, and the V search finds no closure
    parities = iter([(1.0, 1.0), (-1.0, -1.0)])
    pair_at = _capped(lambda x: (gap, next(parities, (1.0, 1.0))))
    monkeypatch.setattr(dispersion, "_pair_at",
                        lambda spec, *args: pair_at(spec.beta))
    with pytest.raises(NoClosure):
        critical_beta(0.1, OUT_OF_PLANE, (0, 1), "M", (0.80, 0.88),
                      bracket_tol=1e-6)


@pytest.mark.parametrize("block,bracket,bracket_tol,beta_c", [
    (IN_PLANE, (0.55, 0.63), 3e-2, 0.5870762089),
    (IN_PLANE, (0.55, 0.63), 2e-2, 0.5870762089),
    (IN_PLANE, (0.55, 0.63), 1e-2, 0.5870762089),
    (OUT_OF_PLANE, (0.80, 0.88), 3e-2, 0.8406030864),
])
def test_critical_beta_closes_at_a_coarse_tolerance(block, bracket,
                                                    bracket_tol, beta_c):
    # the first bracket no wider than bracket_tol holds no gap below
    # EPS_DEG, so the signed root narrows it on while the gaps at its ends
    # halve; regula falsi, which tried only the root interpolated in that
    # bracket before the V search, raised NoClosure at all four (beta_c is
    # brentq's on s, xtol 1e-12)
    got = critical_beta(0.1, block, (0, 1), "M", bracket,
                        bracket_tol=bracket_tol)
    assert abs(got - beta_c) <= bracket_tol


def test_critical_beta_computes_m_kernels_twice(monkeypatch):
    # every gap evaluation solves M on a lattice of its own: the first
    # records the pass, the second stores its beta-free half and the rest
    # read it. M's -k is a zone-boundary tie, but at d0 0.1 M lies outside
    # the light cone, so D_ba is conj(D_ab) and the tie needs no row
    _clear_tables()
    rows = _count_kernel_rows(monkeypatch)
    betas = []
    build = dispersion.build_lattice

    def counting_build(d0, beta):
        betas.append(beta)
        return build(d0, beta)

    monkeypatch.setattr(dispersion, "build_lattice", counting_build)
    beta_c = critical_beta(0.1, OUT_OF_PLANE, (0, 1), "M", (0.80, 0.88),
                           bracket_tol=1e-6)
    assert round(beta_c, 6) == 0.840603
    assert len(betas) > 5
    assert rows == [1, 1]


def _fake_lattices(mp, gap):
    """Let the lattice critical_beta builds at beta be beta itself, and its
    Bloch solve gap(beta) with no mirror parities, which turns the signed
    root off: the search is the V search alone."""
    mp.setattr(dispersion, "build_lattice", lambda d0, beta: beta)
    mp.setattr(dispersion, "_pair_at",
               lambda beta, k, block, pair, mode: (gap(beta), ()))


def _synthetic_gap(shape, root, slopes, curvatures, g0):
    """gap(beta) of one of three shapes with its minimum at root: a V
    |s(beta)| with unequal slopes and curvature on its two sides, a
    quadratic touching, or a smooth gapped (avoided-crossing) minimum."""
    def gap(beta):
        x = beta - root
        if shape == "vee":
            side = 1 if x >= 0.0 else 0
            return abs(x) * (slopes[side] + curvatures[side] * abs(x))
        if shape == "touching":
            return slopes[0] * x * x
        return float(np.hypot(g0, slopes[0] * x))

    return gap


def _closure_width(gap, root, lo, hi):
    """Width of the part of [lo, hi] where gap < EPS_DEG (0 where it never
    dips below), gap being monotone either side of its minimum at root."""
    eps = dispersion.EPS_DEG
    if not gap(root) < eps:
        return 0.0

    def edge(end):
        inner, outer = root, end
        if gap(outer) < eps:
            return outer
        for _ in range(60):
            mid = 0.5 * (inner + outer)
            inner, outer = (mid, outer) if gap(mid) < eps else (inner, mid)
        return inner

    return edge(hi) - edge(lo)


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(["vee", "touching", "gapped"]),
       lo=st.floats(0.3, 1.2), width=st.floats(1e-3, 0.3),
       root_frac=st.floats(0.0, 1.0), log_tol=st.floats(-7.0, -4.0),
       log_slopes=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
       curv_fracs=st.tuples(st.floats(-0.3, 3.0), st.floats(-0.3, 3.0)),
       log_g0=st.floats(0.05, 3.0), g0_below=st.booleans())
# a V that closes at the lower bracket end, which golden section never
# evaluates
@example(shape="vee", lo=1.0, width=0.25, root_frac=0.0, log_tol=-4.0,
         log_slopes=(0.0, 2.0), curv_fracs=(0.0, 0.0), log_g0=1.0,
         g0_below=False)
# closures about 1e-5 and 2e-5 wide, narrower than tol: either search can
# miss them
@example(shape="gapped", lo=1.0, width=0.25, root_frac=0.5, log_tol=-4.0,
         log_slopes=(2.0, 0.0), curv_fracs=(0.0, 0.0), log_g0=0.0625,
         g0_below=True)
@example(shape="gapped", lo=1.0, width=0.125, root_frac=0.0078125,
         log_tol=-4.0, log_slopes=(2.0, 0.0), curv_fracs=(0.0, 0.0),
         log_g0=1.0, g0_below=True)
@example(shape="gapped", lo=1.0, width=0.125, root_frac=0.5, log_tol=-4.0,
         log_slopes=(2.0, 0.0), curv_fracs=(0.0, 0.0), log_g0=1.0,
         g0_below=True)
def test_critical_beta_search_matches_golden_section(
        shape, lo, width, root_frac, log_tol, log_slopes, curv_fracs,
        log_g0, g0_below):
    hi, tol = lo + width, 10.0 ** log_tol
    root = lo + root_frac * width
    slopes = tuple(10.0 ** s for s in log_slopes)
    # each side stays monotone over the bracket
    curvatures = tuple(f * m / width for f, m in zip(curv_fracs, slopes))
    g0 = dispersion.EPS_DEG * 10.0 ** (-log_g0 if g0_below else log_g0)
    gap = _synthetic_gap(shape, root, slopes, curvatures, g0)
    n_ref, n_new = [0], [0]

    def counted(n):
        def gap_at(beta):
            n[0] += 1
            return gap(beta)
        return gap_at

    _, ref_gap = _golden_section(counted(n_ref), lo, hi, tol)
    # critical_beta evaluates both bracket ends, so a closure there counts
    ref_gap = min(ref_gap, gap(lo), gap(hi))
    with pytest.MonkeyPatch.context() as mp:
        _fake_lattices(mp, counted(n_new))
        try:
            got = critical_beta(0.1, OUT_OF_PLANE, (0, 1), np.zeros(2),
                                (lo, hi), bracket_tol=tol)
        except NoClosure:
            got = None
    assert n_new[0] <= 2 * n_ref[0]
    if 0.0 < _closure_width(gap, root, lo, hi) < tol:
        # the gap does close, but over less than tol: either search may
        # step over it, so the oracle's outcome is luck; a beta returned
        # must still be the root's
        assert got is None or abs(got - root) <= tol
    elif ref_gap >= dispersion.EPS_DEG:
        assert got is None
    else:
        assert got is not None and abs(got - root) <= tol


def test_critical_beta_tolerance_below_float_spacing(monkeypatch):
    # a bracket_tol no bracket of floats near beta can meet acts as 8
    # float spacings; golden section never ended here
    root, calls = 0.8406, []

    def gap(beta):
        calls.append(beta)
        assert len(calls) <= 200, "the search does not end"
        return abs(3.0 * (beta - root))

    _fake_lattices(monkeypatch, gap)
    got = critical_beta(0.1, OUT_OF_PLANE, (0, 1), np.zeros(2),
                        (0.80, 0.88), bracket_tol=1e-20)
    assert abs(got - root) <= 8.0 * np.spacing(0.88)


@pytest.mark.parametrize("bracket,bracket_tol", [
    ((0.80, 0.88), 0.0),
    ((0.80, 0.88), -1e-4),
    ((0.80, 0.88), float("nan")),
    ((0.80, 0.88), float("inf")),
    ((0.88, 0.80), 1e-4),
    ((0.84, 0.84), 1e-4),
])
def test_critical_beta_rejects_bad_bracket(bracket, bracket_tol):
    with pytest.raises(ValueError, match="bracket"):
        critical_beta(0.1, OUT_OF_PLANE, (0, 1), "M", bracket,
                      bracket_tol=bracket_tol)


@pytest.mark.parametrize("block,pair", [
    (OUT_OF_PLANE, (1, 0)),  # descending: the "gap" is negative
    (OUT_OF_PLANE, (-1, 0)),  # a negative index wraps around
    (OUT_OF_PLANE, (0, 5)),  # past the two-band block
    (IN_PLANE, (0, 1, 2)),  # not a pair
    ("all", (0, 1)),  # not a block
])
@pytest.mark.parametrize("call", [
    "make_gap_function", "find_degeneracies", "classify",
    "refine_degeneracy", "critical_beta", "tilt_transition_scan"])
def test_rejects_bad_band_pair(monkeypatch, call, block, pair):
    _forbid_solves(monkeypatch)
    spec = build_lattice(0.1, 0.9)
    m = reciprocal(spec).M
    calls = {
        "make_gap_function": lambda: dispersion.make_gap_function(
            spec, block, pair),
        "find_degeneracies": lambda: find_degeneracies(spec, block, pair),
        "classify": lambda: classify(spec, m, block, pair),
        "refine_degeneracy": lambda: dispersion.refine_degeneracy(
            spec, block, pair, m),
        "critical_beta": lambda: critical_beta(0.1, block, pair, "M",
                                               (0.80, 0.88)),
        "tilt_transition_scan": lambda: tilt_transition_scan(
            0.1, 0.9, 0.9, block, pair),
    }
    with pytest.raises(ValueError, match="band_pair|block"):
        calls[call]()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("call,name", [
    ("find_degeneracies", "eps_deg"), ("classify", "eps_deg"),
    ("tilt_transition_scan", "eps_deg"), ("classify", "fit_radius")])
def test_rejects_bad_eps_deg_or_fit_radius(monkeypatch, call, name, bad):
    _forbid_solves(monkeypatch)
    spec = build_lattice(0.1, 1.0)
    k = reciprocal(spec).K
    calls = {
        "find_degeneracies": lambda kw: find_degeneracies(
            spec, IN_PLANE, (1, 2), **kw),
        "classify": lambda kw: classify(spec, k, IN_PLANE, (1, 2), **kw),
        "tilt_transition_scan": lambda kw: tilt_transition_scan(
            0.1, 1.0, 1.0, IN_PLANE, (1, 2), start_point=k, **kw),
    }
    with pytest.raises(ValueError, match=name):
        calls[call]({name: bad})


@pytest.mark.parametrize("block", ["bogus", "all"])
def test_dos_rejects_unknown_block(monkeypatch, block):
    _forbid_solves(monkeypatch)
    with pytest.raises(ValueError, match="block"):
        dos_histogram(build_lattice(0.1, 1.0), block, (-1.0, 1.0))


@pytest.mark.parametrize("bad, name", [
    ({"k_grid": 0}, "k_grid"),
    ({"n_bins": 0}, "n_bins"),
    ({"energy_window": (-np.inf, 1.0)}, "energy_window"),
    ({"energy_window": (-1.0, np.inf)}, "energy_window"),
    ({"energy_window": (np.nan, 1.0)}, "energy_window"),
    ({"energy_window": (-1.0, np.nan)}, "energy_window"),
])
def test_dos_rejects_bad_grid_bins_and_window(monkeypatch, bad, name):
    # each is named before any solve; a NaN window is not an empty one
    _forbid_solves(monkeypatch)
    args = {"energy_window": (-1.0, 1.0)} | bad
    with pytest.raises(ValueError, match=name):
        dos_histogram(build_lattice(0.1, 0.9), OUT_OF_PLANE, **args)


def test_dos_reversed_window_is_empty(monkeypatch):
    _forbid_solves(monkeypatch)
    centers, dens = dos_histogram(build_lattice(0.1, 0.9), OUT_OF_PLANE,
                                  (1.0, -1.0))
    assert centers.size == 0 and dens.size == 0


def test_dos_dip_at_dirac_energy(iso, iso_cones):
    # the untilted cone carries a vanishing density of states at the
    # contact energy (the band average at k_star)
    from dipolebands import solve_k

    bs = solve_k(iso, iso_cones[0].k_star, "retarded")
    lo_b, hi_b = bs.detuning[np.array(bs.block) == OUT_OF_PLANE]
    e_cone = 0.5 * (lo_b + hi_b)
    centers, dens = dos_histogram(
        iso, OUT_OF_PLANE, (e_cone - 0.6, e_cone + 0.6), k_grid=70,
        n_bins=15)
    assert centers.size == 15
    mid = int(np.argmin(np.abs(centers - e_cone)))
    assert dens[mid] == np.min(dens)
    assert dens[mid] < 0.5 * np.median(dens)
    # density climbs on both sides of the contact
    assert dens[mid - 3] > dens[mid]
    assert dens[mid + 3] > dens[mid]


def test_dos_window_without_levels_has_zero_density():
    # every out-of-plane level lies far below detuning 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        centers, dens = dos_histogram(build_lattice(0.1, 1.0), OUT_OF_PLANE,
                                      (100, 101), k_grid=6, n_bins=4)
    np.testing.assert_allclose(centers, [100.125, 100.375, 100.625,
                                         100.875])
    assert dens.dtype == float
    assert np.array_equal(dens, np.zeros(4))


def test_tilt_scan_finds_type_iii_window():
    traj = tilt_transition_scan(
        0.1, 0.63, 0.66, IN_PLANE, (0, 1), beta_step=0.005,
        start_point=(13.3831, 0.0))
    kinds = [r.kind for r in traj.reports]
    assert kinds[0] == "dirac_I"
    assert kinds[-1] == "dirac_II"
    assert "dirac_III" in kinds or any(
        e["event"] == "classification_change" for e in traj.events)
    changes = [e for e in traj.events
               if e["event"] == "classification_change"]
    assert changes
    for e in changes:
        lo, hi = e["beta_bracket"]
        assert hi - lo <= 0.005 + 1e-12
    tilts = [r.tilt_ratio for r in traj.reports
             if r.kind in ("dirac_I", "dirac_II", "dirac_III")]
    assert tilts[0] < 1.0
    assert tilts[-1] > 1.0


def _scripted_scan(monkeypatch, refine_at, kind_at, cones_at, **scan):
    """tilt_transition_scan on fakes keyed on beta; returns the trajectory,
    the betas at which a full search ran and the fit_radius of each
    classification.

    refine_at(beta, k0) gives the warm-start refinement (k, gap) from k0,
    kind_at(beta) the classification and cones_at(beta) the k* of a full
    search. Lattices are real but nothing is solved.
    """
    searched, radii = [], []

    def fake_search(spec, block, pair, *args, **kwargs):
        searched.append(round(spec.beta, 6))
        k = cones_at(round(spec.beta, 6))
        return [] if k is None else [dispersion.DegeneracyReport(
            k_star=np.asarray(k, dtype=float), band_pair=tuple(pair),
            block=block, gap_min=0.0, beta=spec.beta, d0=spec.d0,
            mode="retarded")]

    def fake_classify(spec, k, block, pair, *args, **kwargs):
        radii.append(kwargs.get("fit_radius"))
        return dispersion.DegeneracyReport(
            k_star=np.asarray(k, dtype=float), band_pair=tuple(pair),
            block=block, gap_min=0.0, beta=spec.beta, d0=spec.d0,
            mode="retarded", kind=kind_at(spec.beta))

    def fake_refine(spec, block, pair, k0, *args):
        k, g = refine_at(round(spec.beta, 6),
                         tuple(np.asarray(k0, dtype=float)))
        return np.asarray(k, dtype=float), g

    monkeypatch.setattr(dispersion, "refine_degeneracy", fake_refine)
    monkeypatch.setattr(dispersion, "find_degeneracies", fake_search)
    monkeypatch.setattr(dispersion, "classify", fake_classify)
    traj = tilt_transition_scan(0.1, block=IN_PLANE, band_pair=(0, 1),
                                **scan)
    return traj, searched, radii


def test_tilt_scan_events_on_scripted_track(monkeypatch):
    start = (10.0, 0.0)
    # warm starts that reach the cone; every other refinement stays gapped
    moves = {
        (0.805, (10.1, 0.0)): (10.2, 0.0),  # midpoint retry for 0.81
        (0.81, (10.2, 0.0)): (10.3, 0.0),
        (0.84, (10.4, 0.0)): (15.0, 0.0),  # jump of 4.6 > 3 coarse steps
        (0.85, (15.0, 0.0)): (15.1, 0.0),
    }

    def refine_at(beta, k0):
        k = moves.get((beta, k0))
        return (k0, 1.0) if k is None else (k, 0.0)

    traj, searched, _ = _scripted_scan(
        monkeypatch, refine_at, lambda beta: "dirac_I",
        {0.8: (10.1, 0.0), 0.83: (10.4, 0.0)}.get,
        beta_start=0.8, beta_stop=0.85, beta_step=0.01, start_point=start)

    # start_point stays gapped at 0.80 and 0.83, so both fall back to a
    # full search; 0.82 is lost after its midpoint retry also fails
    assert searched == [0.8, 0.83]
    assert traj.beta_values == pytest.approx([0.8, 0.81, 0.82, 0.83, 0.84,
                                              0.85])
    assert [r.beta for r in traj.reports] == pytest.approx(
        [0.8, 0.81, 0.83, 0.84, 0.85])
    assert [tuple(r.k_star) for r in traj.reports] == [
        (10.1, 0.0), (10.3, 0.0), (10.4, 0.0), (15.0, 0.0), (15.1, 0.0)]
    assert [e["event"] for e in traj.events] == ["lost", "found",
                                                 "discontinuity"]
    lost, found, jump = traj.events
    assert lost["beta_bracket"] == pytest.approx((0.81, 0.82))
    assert found["beta_bracket"] == pytest.approx((0.81, 0.83))
    assert jump["beta_bracket"] == pytest.approx((0.83, 0.84))
    assert jump["jump"] == pytest.approx(4.6)


def test_tilt_scan_stops_at_beta_stop(monkeypatch):
    # 0.0321 / 0.02 = 1.6 steps: rounding it up would step to 1.74 > BETA_MAX
    traj, searched, _ = _scripted_scan(
        monkeypatch, lambda beta, k0: (k0, 0.0), lambda beta: "dirac_I",
        lambda beta: None, beta_start=1.70, beta_stop=1.7321,
        beta_step=0.02, start_point=(13.0, 0.0))
    assert traj.beta_values == pytest.approx([1.70, 1.72])
    assert searched == []


@pytest.mark.parametrize("kind_at,bracket", [
    # narrowing: the bracket halves until it is at most 0.005 wide
    (lambda beta: "dirac_I" if beta < 0.6437 else "dirac_II",
     (0.6425, 0.645)),
    # a dirac_III midpoint ends it with a bracket of 0.005 around that beta
    (lambda beta: ("dirac_I" if beta < 0.643 else
                   "dirac_III" if beta < 0.647 else "dirac_II"),
     (0.6425, 0.6475)),
])
def test_tilt_scan_brackets_type_iii_on_script(monkeypatch, kind_at,
                                               bracket):
    def refine_at(beta, k0):
        return (k0[0] + 0.01, k0[1]), 0.0

    traj, searched, radii = _scripted_scan(
        monkeypatch, refine_at, kind_at, lambda beta: None,
        beta_start=0.63, beta_stop=0.65, beta_step=0.02,
        start_point=(13.0, 0.0), fit_radius=0.5)
    assert searched == []
    assert [r.kind for r in traj.reports] == ["dirac_I", "dirac_II"]
    (event,) = traj.events
    assert event["event"] == "classification_change"
    assert (event["from"], event["to"]) == ("dirac_I", "dirac_II")
    assert event["beta_bracket"] == pytest.approx((0.63, 0.65))
    assert event["type_iii_bracket"] == pytest.approx(bracket)
    # the two swept betas and every bisection midpoint use fit_radius
    assert len(radii) > 2
    assert radii == [0.5] * len(radii)


@pytest.mark.parametrize("start,stop,step", [
    (0.63, 0.66, 0.0),
    (0.63, 0.66, -0.005),
    (0.63, 0.66, float("nan")),
    (0.63, 0.66, float("inf")),
    (0.66, 0.63, 0.005),
])
def test_tilt_scan_rejects_bad_beta_range(start, stop, step):
    with pytest.raises(ValueError, match="beta_st"):
        tilt_transition_scan(0.1, start, stop, IN_PLANE, (0, 1),
                             beta_step=step)


def test_fit_degenerate_on_collinear_directions(iso, iso_cones,
                                                monkeypatch):
    # two antipodal rays cannot determine the 2d quadratic form
    monkeypatch.setattr(dispersion, "N_DIRECTIONS", 2)
    with pytest.raises(FitDegenerate):
        classify(iso, iso_cones[0].k_star, OUT_OF_PLANE, (0, 1))
