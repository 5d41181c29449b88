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
    tilt_transition_scan,
)
from tests.conftest import dist_mod_g

# gap-closing betas measured with critical_beta at bracket 1e-4; the
# acceptance suite re-derives them, unit tests reuse them for speed
BETA_C_OOP_M = 0.840599
BETA_C_IP01_M = 0.587086


# Bloch solves of find_degeneracies(build_lattice(0.1, 0.9), OUT_OF_PLANE,
# (0, 1)): the whole 48 x 48 grid (2,304) plus the Newton refinement of its
# 3 seeds (129). Seeding inside the radiative disk made it 3,202 (13 seeds),
# the Nelder-Mead refinement 6,032.
FIND_SOLVES_09 = 2433


def _nelder_mead(gap, k0pt, scale, xatol):
    """The simplex refinement the Newton descent replaced (reference)."""
    simplex = np.array([k0pt, k0pt + [scale, 0.0], k0pt + [0.0, scale]])
    res = minimize(gap, k0pt, method="Nelder-Mead", options={
        "initial_simplex": simplex, "xatol": xatol, "fatol": 1e-14,
        "maxiter": 400, "maxfev": 800})
    return np.asarray(res.x, dtype=float), float(res.fun)


def _recorded_search(spec, block, pair):
    """find_degeneracies, counting its Bloch solves (the coarse grid's in
    bloch and the refinement's in dispersion) and recording each refinement
    as (gap, seed, scale, xatol, (k, gap(k)))."""
    solves = [0]
    refinements = []
    solve_k = bloch.solve_k
    refine = dispersion._refine_minimum

    def counting_solve(*args, **kwargs):
        solves[0] += 1
        return solve_k(*args, **kwargs)

    def recording_refine(gap, seed, scale, xatol):
        out = refine(gap, seed, scale, xatol)
        refinements.append((gap, np.array(seed), scale, xatol, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bloch, "solve_k", counting_solve)
        mp.setattr(dispersion, "solve_k", counting_solve)
        mp.setattr(dispersion, "_refine_minimum", recording_refine)
        found = find_degeneracies(spec, block, pair)
    return found, solves[0], refinements


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
    for gap, seed, scale, xatol, (k_new, g_new) in refinements:
        k_ref, _ = _nelder_mead(gap, seed, scale, xatol)
        assert g_new <= 1e-10, (seed, g_new)
        assert dist_mod_g(recip, k_new, k_ref) <= 1e-8 * b1n, (seed, k_new)
    return len(refinements)


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
])
def test_find_rejects_empty_or_reversed_region(monkeypatch, region):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the region was checked")

    monkeypatch.setattr(dispersion, "bands_on_grid", no_solve)
    with pytest.raises(ValueError, match="search_region"):
        find_degeneracies(build_lattice(0.1, 0.9), OUT_OF_PLANE, (0, 1),
                          search_region=region)


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
    assert len(refinements) == 3
    assert solves <= 1.1 * FIND_SOLVES_09


def test_refinement_matches_nelder_mead_at_cones(search_09):
    found, _, refinements = search_09
    spec = build_lattice(0.1, 0.9)
    near = _seeds_near(spec, refinements, [r.k_star for r in found])
    assert _check_against_nelder_mead(spec, near) >= 2


def test_refinement_matches_nelder_mead_at_corners(iso, iso_in_plane_search):
    recip = reciprocal(iso)
    near = _seeds_near(iso, iso_in_plane_search[2], [recip.K, recip.Kprime])
    assert _check_against_nelder_mead(iso, near) >= 2


def test_refinement_matches_nelder_mead_on_gamma_m():
    # the tilted in-plane cones of the type-III window sit on Gamma-M (ky=0)
    spec = build_lattice(0.1, 0.65)
    _, _, refinements = _recorded_search(spec, IN_PLANE, (0, 1))
    on_line = [r for r in refinements if r[1][1] == 0.0]
    assert _check_against_nelder_mead(spec, on_line) >= 2


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
    """tilt_transition_scan on fakes keyed on beta; returns the trajectory
    and the betas at which a full search ran.

    refine_at(beta, k0) gives the warm-start refinement (k, gap) from k0,
    kind_at(beta) the classification and cones_at(beta) the k* of a full
    search. Lattices are real but nothing is solved.
    """
    searched = []

    def fake_search(spec, block, pair, *args, **kwargs):
        searched.append(round(spec.beta, 6))
        k = cones_at(round(spec.beta, 6))
        return [] if k is None else [dispersion.DegeneracyReport(
            k_star=np.asarray(k, dtype=float), band_pair=tuple(pair),
            block=block, gap_min=0.0, beta=spec.beta, d0=spec.d0,
            mode="retarded")]

    def fake_classify(spec, k, block, pair, *args, **kwargs):
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
    return traj, searched


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

    traj, searched = _scripted_scan(
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
    traj, searched = _scripted_scan(
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

    traj, searched = _scripted_scan(
        monkeypatch, refine_at, kind_at, lambda beta: None,
        beta_start=0.63, beta_stop=0.65, beta_step=0.02,
        start_point=(13.0, 0.0))
    assert searched == []
    assert [r.kind for r in traj.reports] == ["dirac_I", "dirac_II"]
    (event,) = traj.events
    assert event["event"] == "classification_change"
    assert (event["from"], event["to"]) == ("dirac_I", "dirac_II")
    assert event["beta_bracket"] == pytest.approx((0.63, 0.65))
    assert event["type_iii_bracket"] == pytest.approx(bracket)


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
