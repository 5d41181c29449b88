"""Degeneracy location, classification, and beta sweeps."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    reciprocal,
    reduce_to_bz,
    tilt_transition_scan,
)
from dipolebands.greens import K0
from tests.conftest import dist_mod_g

# gap-closing betas measured with critical_beta at bracket 1e-4; the
# acceptance suite re-derives them, unit tests reuse them for speed
BETA_C_OOP_M = 0.840599
BETA_C_IP01_M = 0.587086


# Bloch solves (k-points) of find_degeneracies(build_lattice(0.1, 0.9),
# OUT_OF_PLANE, (0, 1)): the kx >= 0 half of the 48 x 48 grid (1,152) plus
# the Newton refinement of its 2 seeds (56). The whole grid and 3 seeds
# made it 2,433, seeding inside the radiative disk 3,202 (13 seeds), the
# Nelder-Mead refinement 6,032. They take 21 solve_k calls: one for the
# grid and 20 for the refinement, which solves the five stencil points of
# an iteration in one call (46 calls on the whole grid).
FIND_SOLVES_09 = 1208
FIND_CALLS_09 = 23


def _nelder_mead(gap, k0pt, scale, xatol):
    """The simplex refinement the Newton descent replaced (reference)."""
    simplex = np.array([k0pt, k0pt + [scale, 0.0], k0pt + [0.0, scale]])
    res = minimize(gap, k0pt, method="Nelder-Mead", options={
        "initial_simplex": simplex, "xatol": xatol, "fatol": 1e-14,
        "maxiter": 400, "maxfev": 800})
    return np.asarray(res.x, dtype=float), float(res.fun)


class _Search(tuple):
    """(found, k-points solved, refinements) of _recorded_search, with the
    number of solve_k calls as .calls."""

    calls: int


def _recorded_search(spec, block, pair):
    """find_degeneracies, counting its Bloch solves (the k-points of the
    coarse grid's batch in bloch and of the refinement in dispersion) and
    the solve_k calls, and recording each refinement as (gap, seed, scale,
    xatol, (k, gap(k)), k-points solved)."""
    solves = [0, 0]
    refinements = []
    solve_k = bloch.solve_k
    refine = dispersion._refine_minimum

    def counting_solve(spec, k, *args, **kwargs):
        solves[0] += len(np.atleast_2d(k))
        solves[1] += 1
        return solve_k(spec, k, *args, **kwargs)

    def recording_refine(gap, seed, scale, xatol, box=None):
        kpoints = [0]

        def counting_gap(k):
            kpoints[0] += len(np.atleast_2d(k))
            return gap(k)

        out = refine(counting_gap, seed, scale, xatol, box=box)
        refinements.append((gap, np.array(seed), scale, xatol, out,
                            kpoints[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bloch, "solve_k", counting_solve)
        mp.setattr(dispersion, "solve_k", counting_solve)
        mp.setattr(dispersion, "_refine_minimum", recording_refine)
        found = find_degeneracies(spec, block, pair)
    search = _Search((found, solves[0], refinements))
    search.calls = solves[1]
    return search


def _full_grid_scan(spec, block, pair, mode, grid_n, eps_deg):
    """The default-region scan the kx-mirror half replaced (reference): it
    solves and seeds the whole grid, refines without a region box and adds
    only the ky mirror images."""
    _, (lower, upper) = dispersion._check_pair(block, pair)
    region = dispersion.default_search_region(spec)
    recip = reciprocal(spec)
    b1n = float(np.linalg.norm(recip.b1))

    def excluded(kx, ky):
        return (mode == "retarded") & (np.hypot(kx, ky) < 1.1 * K0)

    grid = bloch.bands_on_grid(spec, np.linspace(*region[:2], grid_n),
                               np.linspace(*region[2:], grid_n), mode)
    vals = grid.detuning[:, :, upper] - grid.detuning[:, :, lower]
    pad = np.pad(vals, 1, constant_values=np.inf)
    neigh = np.stack([pad[i0:i0 + grid_n, j0:j0 + grid_n]
                      for i0 in (0, 1, 2) for j0 in (0, 1, 2)
                      if (i0, j0) != (1, 1)])
    is_min = (vals < neigh[:4].min(axis=0)) & (vals <= neigh[4:].min(axis=0))
    is_min &= ~excluded(*np.meshgrid(grid.kx, grid.ky, indexing="ij"))
    spacing = max(region[1] - region[0], region[3] - region[2]) / (grid_n - 1)
    margin = 2.0 * spacing
    gap = dispersion.make_gap_function(spec, block, pair, mode)
    found = []
    for i, j in zip(*np.nonzero(is_min)):
        k, g = dispersion._refine_minimum(
            gap, np.array([grid.kx[i], grid.ky[j]]), 0.5 * spacing,
            dispersion.REFINE_FRAC * b1n)
        if (g < eps_deg and not excluded(*k)
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
    for gap, seed, scale, xatol, (k_new, g_new), _ in refinements:
        k_ref, _ = _nelder_mead(gap, seed, scale, xatol)
        assert g_new <= 1e-10, (seed, g_new)
        assert dist_mod_g(recip, k_new, k_ref) <= 1e-8 * b1n, (seed, k_new)
    return len(refinements)


def _forbid_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(dispersion, "solve_k", no_solve)
    monkeypatch.setattr(dispersion, "bands_on_grid", no_solve)


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

    monkeypatch.setattr(dispersion, "bands_on_grid", no_solve)
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


def test_find_solve_calls_bounded(search_09):
    # one call for the grid, then one per Newton stencil and per trial step
    assert search_09.calls <= FIND_CALLS_09


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

    def fake_grid(spec, gx, gy, mode):
        solved_kx.extend(gx)
        detuning = np.zeros((len(gx), len(gy), 6))
        detuning[:, :, 5] = field(*np.meshgrid(gx, gy, indexing="ij"))
        return bloch.BandGrid(kx=gx, ky=gy, detuning=detuning,
                              decay=np.zeros_like(detuning),
                              block=bloch.BLOCKS,
                              in_light_cone=np.zeros(detuning.shape[:2], bool),
                              anomalous=np.zeros(detuning.shape[:2], bool))

    seeds = []

    def recording_refine(gap, k0pt, scale, xatol, box=None):
        seeds.append(tuple(k0pt))
        return k0pt, 1.0  # gapped: nothing is reported

    monkeypatch.setattr(dispersion, "bands_on_grid", fake_grid)
    monkeypatch.setattr(dispersion, "_refine_minimum", recording_refine)
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
    # 4.8 near ky = 32.9): it ends at its first step past the margin
    spec = build_lattice(0.1, 0.65)
    top = dispersion.default_search_region(spec)[3]
    (edge,) = [r for r in search_065[2] if r[1][1] == top]
    (k, _), kpoints = edge[4:]
    assert kpoints <= 40
    assert k[1] > top + 4.0 * edge[2]  # two grid spacings, scale is half one


@settings(max_examples=10, deadline=None)
@given(beta=st.floats(0.86, 0.95), angle=st.floats(0.0, 2.0 * np.pi),
       frac=st.floats(0.0, 0.5))
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
    k, g = dispersion._refine_minimum(gap, seed, 0.5 * spacing,
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


def test_dos_dip_at_dirac_energy(iso, iso_cones):
    # the untilted cone carries a vanishing density of states at the
    # contact energy (the band average at k_star)
    from dipolebands import solve_k

    bs = solve_k(iso, iso_cones[0].k_star, "retarded")
    lo_b, hi_b = bs.detuning[np.array(bs.block) == OUT_OF_PLANE]
    e_cone = 0.5 * (lo_b + hi_b)
    centers, dens = dos_histogram(
        iso, OUT_OF_PLANE, (e_cone - 0.6, e_cone + 0.6), k_grid=80,
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

    def fake_refine(beta, k0, scale, xatol):
        k, g = refine_at(round(beta, 6), tuple(np.asarray(k0, dtype=float)))
        return np.asarray(k, dtype=float), g

    # the fake gap function is the lattice's beta, which the fake
    # refinement reads back
    monkeypatch.setattr(dispersion, "make_gap_function",
                        lambda spec, *args, **kwargs: spec.beta)
    monkeypatch.setattr(dispersion, "_refine_minimum", fake_refine)
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
