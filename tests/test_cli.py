"""Command-line interface: config handling, formats, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dipolebands import cli, dispersion
from dipolebands.cli import ConfigError, load_config_file, main, resolve_config
from dipolebands.dispersion import DegeneracyReport
from dipolebands.greens import K0
from dipolebands.lattice import (BETA_MAX, BETA_MIN, D0_MIN, build_lattice,
                                 reciprocal, reduce_to_bz)
from tests.conftest import dist_mod_g


SRC = Path(__file__).resolve().parents[1] / "src"
# a JSON report prints the DegeneracyReport fields in declaration order
REPORT_KEYS = [f.name for f in dataclasses.fields(DegeneracyReport)]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- config layer ------------------------------------------------------------

def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment\n"
        "beta = 0.9\n"
        "d0=0.1\n"
        "\n"
        "block = out_of_plane  # trailing comment\n"
    )
    got = load_config_file(p)
    assert got == {"beta": "0.9", "d0": "0.1", "block": "out_of_plane"}


def test_load_config_rejects_malformed(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("beta 0.9\n")
    with pytest.raises(ConfigError):
        load_config_file(p)


def test_resolve_config_unknown_key():
    with pytest.raises(ConfigError):
        resolve_config({}, {"bandwidth": "3"})


def test_resolve_config_precedence():
    cfg = resolve_config({"beta": "0.8", "d0": "0.2"}, {"beta": "1.2"})
    assert cfg.beta == 1.2
    assert cfg.d0 == 0.2


def test_resolve_config_validates_ranges():
    with pytest.raises(Exception) as exc_info:
        resolve_config({}, {"beta": "3.0"})
    assert exc_info.type.__name__ in ("BetaOutOfRange", "ConfigError")
    with pytest.raises(ConfigError):
        resolve_config({}, {"d0": "-0.1"})
    with pytest.raises(ConfigError):
        resolve_config({}, {"mode": "psychic"})
    with pytest.raises(ConfigError):
        resolve_config({}, {"pair": "2,1"})


@pytest.mark.parametrize("updates", [
    {"d0": "1000.5"}, {"d0": "1000", "k_point": "0,4.2e3"},
    {"grid": "-4.2e7,0,0,1,2,2"}, {"region": "0,1,0,4.2e7"},
])
def test_resolve_config_bounds_d0_and_k(updates):
    # decided with the config, before a command solves anything: d0 at
    # most D0_MAX, k coordinates at most K_MAX_FRAC |b1| (4.19e7 at the
    # default d0 0.1, 4.19e3 at d0 1000)
    with pytest.raises(ConfigError):
        resolve_config({}, updates)


def test_resolve_config_accepts_d0_and_k_at_their_bounds():
    cfg = resolve_config({}, {"d0": "1000", "k_point": "4.1e3,-4.1e3",
                              "region": "-4.1e3,4.1e3,0,1"})
    assert cfg.d0 == 1000.0
    assert resolve_config({}, {"k_point": "Kprime"}).k_point == "Kprime"


# -- subcommands -------------------------------------------------------------

def test_bands_csv_structure(capsys):
    code, out = run_cli(
        ["bands", "--set", "path=Gamma,K", "--set", "n_per_segment=4",
         "--block", "out_of_plane"], capsys)
    assert code == 0
    lines = out.splitlines()
    config_lines = [ln for ln in lines if ln.startswith("# ")]
    # defaults are embedded alongside explicit settings
    joined = "\n".join(config_lines)
    assert "# beta = 1.0" in joined
    assert "# d0 = 0.1" in joined
    assert "# n_per_segment = 4" in joined
    assert "# mode = retarded" in joined
    header = next(ln for ln in lines if not ln.startswith("#"))
    cols = header.split(",")
    assert cols[:5] == ["arclength", "kx", "ky", "band_index", "block"]
    assert "detuning" in cols
    assert "decay" in cols
    rows = [ln for ln in lines if not ln.startswith("#") and ln != header]
    # 4 path points x 2 out-of-plane bands
    assert len(rows) == 8


def test_bands_float_fidelity(capsys):
    code, out = run_cli(
        ["bands", "--set", "path=K,M_top", "--set", "n_per_segment=2",
         "--block", "out_of_plane"], capsys)
    assert code == 0
    header_seen = False
    for ln in out.splitlines():
        if ln.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            cols = ln.split(",")
            continue
        row = dict(zip(cols, ln.split(",")))
        val = float(row["detuning"])
        # 17 significant digits survive the round trip
        assert f"%.17g" % val == row["detuning"]


def test_bands_both_modes_columns(capsys):
    code, out = run_cli(
        ["bands", "--mode", "both", "--set", "path=K,M_top",
         "--set", "n_per_segment=2", "--block", "out_of_plane"], capsys)
    assert code == 0
    header = next(ln for ln in out.splitlines() if not ln.startswith("#"))
    for name in ("detuning_retarded", "decay_retarded",
                 "detuning_quasistatic", "decay_quasistatic"):
        assert name in header.split(",")


def test_bands_both_modes_pairs_slots_by_block(capsys):
    # at beta = 1.15 the retarded and quasistatic energy orders at M_bottom
    # differ; the quasistatic columns must still be the quasistatic run's
    # out-of-plane bands, row for row
    argv = ["bands", "--beta", "1.15", "--block", "out_of_plane",
            "--set", "path=M_bottom,Kprime", "--set", "n_per_segment=2"]

    def rows(mode):
        code, out = run_cli(argv + ["--mode", mode], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        cols = lines[0].split(",")
        return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]

    both, quasi = rows("both"), rows("quasistatic")
    assert len(both) == len(quasi) == 4
    for rb, rq in zip(both, quasi):
        for key in ("kx", "ky", "band_index", "block"):
            assert rb[key] == rq[key]
        assert rb["detuning_quasistatic"] == rq["detuning"]
        assert rb["decay_quasistatic"] == rq["decay"]


def test_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("path = Gamma,K\nn_per_segment = 3\nblock = out_of_plane\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    # identical invocations must produce byte-identical payloads; the
    # output path itself is config, so strip its header line
    assert main(["bands", str(cfg), "--out", str(out1)]) == 0
    assert main(["bands", str(cfg), "--out", str(out1)]) == 0
    first = out1.read_bytes()
    assert main(["bands", str(cfg), "--out", str(out2)]) == 0

    def payload(p):
        return [ln for ln in p.read_text().splitlines()
                if not ln.startswith("# out")]

    assert payload(out1) == payload(out2)
    assert out1.read_bytes() == first


def test_surface_requires_grid(capsys):
    code, _ = run_cli(["surface"], capsys)
    assert code == 2


def test_surface_row_count(capsys):
    code, out = run_cli(
        ["surface", "--set", "grid=-1,1,0,2,3,4",
         "--block", "out_of_plane"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert header.split(",")[:4] == ["ix", "iy", "kx", "ky"]
    # 3 x 4 grid x 2 out-of-plane bands
    assert len(rows) == 24
    assert {r.split(",")[5] for r in rows} == {"out_of_plane"}


def test_find_cones_json(capsys):
    code, out = run_cli(
        ["find-cones", "--block", "out_of_plane", "--format", "json",
         "--set", "region=-1,1,23,25"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["beta"] == 1.0
    reports = doc["reports"]
    assert len(reports) == 1
    rep = reports[0]
    assert list(rep) == REPORT_KEYS
    assert rep["kind"] == "dirac_I"
    assert rep["block"] == "out_of_plane"
    np.testing.assert_allclose(rep["k_star"][1], 24.1839915, rtol=1e-4)
    assert rep["tilt_ratio"] < 0.05


def test_find_cones_searches_every_pair_by_default(capsys, monkeypatch):
    # block=all searches the out-of-plane pair, then the in-plane pairs in
    # band order; a 12 x 12 grid keeps the four searches fast
    searched = []
    find = dispersion.find_degeneracies

    def recording_find(spec, block, pair, *args):
        searched.append((block, pair))
        return find(spec, block, pair, *args, grid_n=12)

    monkeypatch.setattr(dispersion, "find_degeneracies", recording_find)
    code, out = run_cli(["find-cones", "--set", "region=-1,1,23,25"], capsys)
    assert code == 0
    assert searched == [("out_of_plane", (0, 1)), ("in_plane", (0, 1)),
                        ("in_plane", (1, 2)), ("in_plane", (2, 3))]
    # the Dirac points at K of the out-of-plane and the middle in-plane pair
    reports = json.loads(out)["reports"]
    assert [(r["block"], r["band_pair"], r["kind"]) for r in reports] == [
        ("out_of_plane", [0, 1], "dirac_I"), ("in_plane", [1, 2], "dirac_I")]


def test_classify_at_explicit_point(capsys):
    code, out = run_cli(
        ["classify", "--block", "out_of_plane", "--format", "json",
         "--set", "k_point=0,24.183991523122903"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc["report"]) == REPORT_KEYS
    assert doc["report"]["kind"] == "dirac_I"


@pytest.mark.parametrize("block,k_point,refine", [
    pytest.param("out_of_plane", "0.05,24.2", False, id="False"),
    pytest.param("out_of_plane", "0.05,24.2", True, id="True"),
    pytest.param("in_plane", "K", True, id="in_plane-K"),
])
def test_classify_refine_flag(block, k_point, refine, capsys):
    # 0.05,24.2 is near K = (0, 24.18399) but gapped; only the refinement
    # moves it onto the out-of-plane cone. The in-plane pair (0, 1) stays
    # gapped near K, so the report keeps K rather than where the descent
    # stopped.
    code, out = run_cli(
        ["classify", "--block", block, "--format", "json",
         "--set", f"k_point={k_point}", "--set", f"refine={refine}"], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    recip = reciprocal(build_lattice(0.1, 1.0))
    if block == "out_of_plane" and refine:
        assert rep["kind"] == "dirac_I"
        assert (np.linalg.norm(np.subtract(rep["k_star"], recip.K))
                <= 1e-6 * np.linalg.norm(recip.b1))
    else:
        k_req = recip.K if k_point == "K" else [0.05, 24.2]
        assert rep["k_star"] == list(k_req)
        assert rep["kind"] == "gapped"
        assert list(rep) == REPORT_KEYS
        assert '"tilt_ratio": null' in out
        assert "NaN" not in out


def test_classify_requires_block(capsys):
    code, _ = run_cli(["classify", "--format", "json"], capsys)
    assert code == 2


def test_sweep_beta_json(capsys):
    code, out = run_cli(
        ["sweep-beta", "--block", "out_of_plane", "--format", "json",
         "--set", "beta_start=0.98", "--set", "beta_stop=1.0",
         "--set", "beta_step=0.01", "--set", "k_point=0,24.18399"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["beta_values"] == [0.98, 0.99, 1.0]
    kinds = [r["kind"] for r in doc["reports"]]
    assert all(k == "dirac_I" for k in kinds)


def test_convergence_json_and_csv(capsys):
    code, out = run_cli(
        ["convergence", "--format", "json", "--set", "k_point=K"], capsys)
    assert code == 0
    doc = json.loads(out)
    diag = doc["diagnostics"]
    assert diag["rayleigh_anomaly"] is None
    assert diag["retarded_splitting_dev"] < 1e-7
    assert diag["quasistatic_direct_dev"] < 1e-7

    code, out = run_cli(
        ["convergence", "--set", "k_point=K"], capsys)
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "quantity,value"
    keys = {ln.split(",", 1)[0] for ln in rows[1:]}
    assert "retarded_splitting_dev" in keys


@pytest.mark.parametrize("d0", ["6.5", "10", "11"])
def test_convergence_past_the_2e_leg(d0, capsys):
    # from d0 ~ 6.2 the retarded 2E leg needs indices past the cap, from
    # d0 ~ 8 the 1.5E leg too and from ~ 10.5 1.1E: the check falls back
    # to the legs that the sums admit, down to 0.95E and 0.9E at d0 11
    code, out = run_cli(["convergence", "--format", "json", "--set",
                         f"d0={d0}", "--set", "k_point=K"], capsys)
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    assert diag["rayleigh_anomaly"] is None
    assert diag["retarded_splitting_dev"] <= 1e-8


@pytest.mark.parametrize("d0,want", [("10", 0), ("12", 3), ("22", 3),
                                     ("30", 3)], ids=["10", "12", "22", "30"])
def test_exit_code_numerical_failure(d0, want, capsys):
    # up to d0 ~ 11 the default splitting keeps the sums correct; past it
    # the Ewald disks need indices beyond the cap, which exits 3 before a
    # special function overflows (a RuntimeWarning fails the test)
    code, _ = run_cli(
        ["bands", "--set", "path=Gamma,K", "--set", "n_per_segment=2",
         "--d0", d0], capsys)
    assert code == want


@pytest.mark.parametrize("d0", ["13", "20", "30"])
def test_quasistatic_bands_past_retarded_cap(d0, capsys):
    # the quasistatic splitting scales with the cell, so the index cap that
    # stops retarded sums from d0 ~ 11.5 does not apply
    code, out = run_cli(
        ["bands", "--mode", "quasistatic", "--set", "path=Gamma,K",
         "--set", "n_per_segment=2", "--d0", d0], capsys)
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
    detuning = np.array([float(r.split(",")[5]) for r in rows])
    assert len(rows) == 2 * 6 and np.isfinite(detuning).all()


def test_exit_code_bad_beta(capsys):
    code, _ = run_cli(["bands", "--beta", "7"], capsys)
    assert code == 2


_SWEEP = ["sweep-beta", "--block", "in_plane"]


@pytest.mark.parametrize("argv", [
    ["bands", "--set", "n_per_segment=1"],
    _SWEEP + ["--set", "beta_start=0.63", "--set", "beta_stop=0.66",
              "--set", "beta_step=0"],
    _SWEEP + ["--set", "beta_start=0.63", "--set", "beta_stop=0.66",
              "--set", "beta_step=-0.005"],
    _SWEEP + ["--set", "beta_start=0.66", "--set", "beta_stop=0.63"],
    ["bands", "--set", "ewald_splitting=0"],
    ["bands", "--set", "ewald_splitting=-1"],
    ["bands", "--set", "ewald_tolerance=0"],
    ["bands", "--set", "ewald_tolerance=-1e-10"],
    ["bands", "--d0", "inf"],
    ["bands", "--d0", "nan"],
    ["bands", "--beta", "nan"],
    ["classify", "--block", "out_of_plane", "--set", "k_point=nan,0"],
    ["classify", "--block", "out_of_plane", "--set", "pair=1,2",
     "--set", "k_point=K"],
    ["classify", "--block", "in_plane", "--set", "pair=3,4",
     "--set", "k_point=K"],
    ["surface", "--set", "grid=nan,1,0,1,2,2"],
    ["find-cones", "--set", "region=0,inf,0,1"],
    ["classify", "--block", "in_plane", "--set", "pair=1,2",
     "--set", "k_point=K", "--set", "fit_radius=0"],
    ["find-cones", "--set", "eps_deg=nan"],
    ["bands", "--set", "ewald_tolerance=1"],
    ["bands", "--set", "ewald_tolerance=1000"],
    ["bands", "--set", "ewald_tolerance=1e-4"],
    # a reversed or empty region is rejected before any search
    ["find-cones", "--block", "out_of_plane", "--format", "json",
     "--set", "region=20.94,-20.94,24.18,0"],
    ["find-cones", "--block", "out_of_plane", "--format", "json",
     "--set", "region=0,0,0,0"],
    # far below D0_MIN the solve (1e-60, 1e-150) or sample_path overflows
    ["bands", "--set", "d0=1e-60", "--set", "n_per_segment=2"],
    ["bands", "--set", "d0=1e-150", "--set", "n_per_segment=2"],
    ["bands", "--set", "d0=1e-200", "--set", "n_per_segment=2"],
    # far above D0_MAX a dot product overflows (1e160) or the Ewald
    # splitting comes out 0 (1e308)
    ["bands", "--set", "d0=1e160", "--set", "n_per_segment=2"],
    ["bands", "--set", "d0=1e308", "--set", "n_per_segment=2"],
    # k beyond K_MAX_FRAC |b1|: the zone reduction overflows or rounds k
    ["convergence", "--set", "k_point=1e308,1e308"],
    ["convergence", "--set", "k_point=1e20,3"],
    ["surface", "--set", "grid=0,1e308,0,1,2,2"],
    ["find-cones", "--set", "region=0,1e308,0,1"],
])
def test_exit_code_bad_config(argv, capsys):
    code, _ = run_cli(argv, capsys)
    assert code == 2


_LABELS = ("Gamma", "K", "Kprime", "M", "M_top", "M_bottom")
_FRACS = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@st.composite
def _cli_draws(draw):
    """argv of a cheap run at random (d0, beta, k): d0 log-uniform over
    [D0_MIN, 30], beta over its range, k a label or a numeric point."""
    d0 = min(10.0 ** draw(st.floats(np.log10(D0_MIN), np.log10(30.0))), 30.0)
    beta = draw(st.floats(BETA_MIN, BETA_MAX))
    recip = reciprocal(build_lattice(d0, beta))

    def coords(fracs):
        return [repr(float(c)) for c in fracs[0] * recip.b1
                + fracs[1] * recip.b2]

    command = draw(st.sampled_from(
        ("bands", "surface", "convergence", "classify")))
    argv = [command, "--set", f"d0={d0!r}", "--beta", repr(beta)]
    if command == "bands":
        argv += ["--mode", draw(st.sampled_from(
            ("retarded", "quasistatic", "both"))),
            "--set", f"n_per_segment={draw(st.integers(2, 3))}"]
    elif command == "surface":
        (x0, y0), (x1, y1) = coords(draw(_FRACS)), coords(draw(_FRACS))
        nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        argv += ["--mode", draw(st.sampled_from(("retarded", "quasistatic"))),
                 "--set", f"grid={x0},{x1},{y0},{y1},{nx},{ny}"]
    else:
        k = draw(st.one_of(st.sampled_from(_LABELS),
                           _FRACS.map(lambda f: ",".join(coords(f)))))
        argv += ["--set", f"k_point={k}"]
        if command == "classify":
            argv += ["--block", draw(st.sampled_from(
                ("out_of_plane", "in_plane"))), "--set", "refine=false",
                "--mode", draw(st.sampled_from(("retarded", "quasistatic")))]
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_draws())
def test_cli_fuzz_exits_cleanly(argv, capsys):
    # no exception escapes main (a RuntimeWarning is one), the exit code is
    # 0, 2 or 3, a successful run prints no NaN or inf, and the rounding
    # gate never fires: the CLI sums only at default splittings
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), argv
    assert "rounding bound" not in err, (argv, err)
    if code == 0:
        words = set(re.findall(r"[a-z]+", out.lower()))
        assert not words & {"nan", "inf", "infinity"}, argv


_PAIRS = (("out_of_plane", "0,1"), ("in_plane", "0,1"), ("in_plane", "1,2"),
          ("in_plane", "2,3"))


@st.composite
def _search_draws(draw):
    """argv of a find-cones run (or, one draw in five, a sweep-beta run of
    two betas) at random d0, log-uniform over [0.03, 1], beta over its
    range, mode and band pair: the default search region throughout."""
    d0 = min(10.0 ** draw(st.floats(np.log10(0.03), 0.0)), 1.0)
    block, pair = draw(st.sampled_from(_PAIRS))
    mode = draw(st.sampled_from(("retarded", "quasistatic")))
    argv = ["--set", f"d0={d0!r}", "--block", block, "--pair", pair,
            "--mode", mode]
    if draw(st.integers(0, 4)):
        beta = draw(st.floats(BETA_MIN, BETA_MAX))
        return ["find-cones", "--beta", repr(beta)] + argv
    start = draw(st.floats(BETA_MIN, BETA_MAX - 0.005))
    return ["sweep-beta", "--set", f"beta_start={start!r}",
            "--set", f"beta_stop={start + 0.005!r}"] + argv


@settings(max_examples=22, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_search_draws())
# at d0 0.3 the default region's corners reduce into the light cone: an
# exclusion on the unreduced k reports 16 touchings there, all radiating
@example(argv=["find-cones", "--beta", "0.918", "--set", "d0=0.3",
               "--block", "in_plane", "--pair", "2,3", "--mode", "retarded"])
def test_search_fuzz_reports_bound_mirrored_touchings(argv, capsys):
    # a search exits 0, 2 or 3; every report of a default-region search
    # closes its gap below eps_deg and comes with its ky mirror image (mod
    # G), and in retarded mode its zone-reduced k lies outside the
    # radiative disk the search excludes, |k| >= 1.1 k0
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, err)
    if code != 0 or argv[0] != "find-cones":
        return
    doc = json.loads(out)
    cfg = doc["config"]
    recip = reciprocal(build_lattice(cfg["d0"], cfg["beta"]))
    b1n = float(np.linalg.norm(recip.b1))
    ks = [np.array(r["k_star"]) for r in doc["reports"]]
    for rep, k in zip(doc["reports"], ks):
        assert rep["gap_min"] < cfg["eps_deg"], (argv, rep)
        if cfg["mode"] == "retarded":
            assert np.linalg.norm(reduce_to_bz(recip, k)) >= 1.1 * K0, \
                (argv, k)
        mirror = k * [1.0, -1.0]
        assert min(dist_mod_g(recip, mirror, other) for other in ks) \
            < dispersion.DEDUP_FRAC * b1n, (argv, k)


def test_successive_main_calls_share_no_state(capsys):
    # the parser is built once per process, and each call's --set values
    # reach that call alone: the second run's config is its own argv's
    code, first = run_cli(["bands", "--set", "path=Gamma,K", "--set",
                           "n_per_segment=2", "--set", "d0=0.2"], capsys)
    assert code == 0 and "# d0 = 0.2\n" in first
    code, second = run_cli(["bands", "--set", "n_per_segment=3"], capsys)
    assert code == 0
    cfg = resolve_config({}, {"n_per_segment": "3"})
    assert second.startswith("".join(
        f"# {k} = {v}\n" for k, v in sorted(dataclasses.asdict(cfg).items())))
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [
    ["bands", "--set", "n_per_segment=2"],
    ["convergence", "--set", "k_point=K"],
])
def test_d0_floor_runs_clean(argv, capsys):
    # a RuntimeWarning (an overflow) fails the test
    code, _ = run_cli(argv + ["--set", f"d0={D0_MIN}"], capsys)
    assert code == 0


def _forbid_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_k called before --out was checked")

    monkeypatch.setattr("dipolebands.bloch.solve_k", no_solve)
    monkeypatch.setattr("dipolebands.dispersion.solve_k", no_solve)


def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch):
    _forbid_solves(monkeypatch)  # the check runs before any band is solved
    target = tmp_path / "missing" / "x.csv"
    code = main(["bands", "--set", "path=Gamma,K", "--set", "n_per_segment=2",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: cannot write {target}")
    assert not target.exists()


def test_directory_out_is_config_error(tmp_path, capsys, monkeypatch):
    _forbid_solves(monkeypatch)
    code = main(["bands", "--set", "path=Gamma,K", "--set", "n_per_segment=2",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: cannot write {tmp_path}")


@pytest.mark.parametrize("argv, cfg_text", [
    (["find-cones", "--format", "csv"], None),
    (["bands", "--format", "json"], None),
    (["surface", "--set", "grid=0,1,0,1,2,2", "--set", "format=json"], None),
    (["classify", "--block", "in_plane", "--set", "k_point=K"],
     "format = csv\n"),
    (["sweep-beta", "--block", "in_plane", "--set", "beta_start=0.63",
      "--set", "beta_stop=0.64", "--format", "csv"], None),
])
def test_unwritable_format_is_config_error(argv, cfg_text, tmp_path, capsys,
                                           monkeypatch):
    # a format set by flag, --set or config file that the command cannot
    # write exits 2 before any solve (the default csv is not checked)
    _forbid_solves(monkeypatch)
    if cfg_text is not None:
        (tmp_path / "run.cfg").write_text(cfg_text)
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: {argv[0]} writes ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["find-cones", "--block", "out_of_plane", "--beta", "0.9"],
    ["classify", "--block", "out_of_plane", "--set", "k_point=K"],
    ["sweep-beta", "--block", "in_plane", "--set", "beta_start=0.63",
     "--set", "beta_stop=0.635"],
])
def test_config_echoes_the_format_written(argv, capsys):
    # with no format given, a command that writes JSON only echoes
    # "format": "json" in its embedded config, as it does when asked for it
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["config"]["format"] == "json"
    code, asked = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and asked == out


def test_light_line_point_nudged_and_flagged(capsys):
    # at d0 = 1 a path midpoint puts a g != 0 order on the light line; the
    # nudge must step off it along that order's |k+g| = k0 normal
    code, out = run_cli(
        ["bands", "--set", "d0=1.0", "--set", "n_per_segment=3"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    assert "1" in [row["anomalous"] for row in rows]
    # a nudged row still reports the sampled path point (M_bottom, kx = 0)
    start = [row for row in rows if float(row["arclength"]) == 0.0]
    assert start and all(row["anomalous"] == "1" for row in start)
    assert all(abs(float(row["kx"])) < 1e-12 for row in start)


def test_config_flag_equivalent_to_positional(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("path = Gamma,K\nn_per_segment = 2\nblock = out_of_plane\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["bands", str(cfg), "--out", str(a)]) == 0
    assert main(["bands", "--config", str(cfg), "--out", str(b)]) == 0

    def payload(p):
        return [ln for ln in p.read_text().splitlines()
                if not ln.startswith("# out")]

    assert payload(a) == payload(b)


def _src_env() -> dict:
    """Environment whose PYTHONPATH starts with the package source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dipolebands.cli", "convergence",
         "--set", "k_point=K"],
        capture_output=True, text=True, timeout=300, env=_src_env())
    assert proc.returncode == 0
    assert "retarded_splitting_dev" in proc.stdout


def test_newton_on_a_singular_hessian_runs_clean():
    # at the d0 floor gap^2 is flat to rounding over this small region: a
    # Hessian that passes the positive-definite test is still singular to
    # LU, and the refinement takes a steepest-descent step there
    proc = subprocess.run(
        [sys.executable, "-m", "dipolebands.cli", "find-cones",
         "--block", "in_plane", "--pair", "1,2", "--beta", "0.6",
         "--set", "region=0,1,0,1", "--set", f"d0={D0_MIN}"],
        capture_output=True, text=True, timeout=600, env=_src_env())
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0 or (
        proc.returncode == 3 and proc.stderr.count("\n") == 1), proc.stderr


def test_import_leaves_oracle_scipy_unloaded():
    # scipy.integrate and scipy.special serve only the quasistatic oracle,
    # and band connection along a path needs no scipy.optimize
    code = ("import sys, dipolebands as d\n"
            "spec = d.build_lattice(0.1, 0.9)\n"
            "d.solve_k(spec, d.reciprocal(spec).K)\n"
            "d.bands_on_path(spec, d.sample_path(d.reciprocal(spec),\n"
            "                                    ['Gamma', 'K', 'M'], 3))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m in ('scipy.integrate', 'scipy.optimize',\n"
            "                      'scipy.special')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
