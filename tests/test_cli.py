"""Command-line interface: config handling, formats, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from dipolebands.cli import ConfigError, load_config_file, main, resolve_config
from dipolebands.lattice import build_lattice, reciprocal


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
    assert rep["kind"] == "dirac_I"
    assert rep["block"] == "out_of_plane"
    np.testing.assert_allclose(rep["k_star"][1], 24.1839915, rtol=1e-4)
    assert rep["tilt_ratio"] < 0.05


def test_classify_at_explicit_point(capsys):
    code, out = run_cli(
        ["classify", "--block", "out_of_plane", "--format", "json",
         "--set", "k_point=0,24.183991523122903"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["kind"] == "dirac_I"


@pytest.mark.parametrize("refine", [False, True])
def test_classify_refine_flag(refine, capsys):
    # 0.05,24.2 is near K = (0, 24.18399) but gapped; only the refinement
    # moves it onto the cone
    code, out = run_cli(
        ["classify", "--block", "out_of_plane", "--format", "json",
         "--set", "k_point=0.05,24.2", "--set", f"refine={refine}"], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    if refine:
        recip = reciprocal(build_lattice(0.1, 1.0))
        assert rep["kind"] == "dirac_I"
        assert (np.linalg.norm(np.subtract(rep["k_star"], recip.K))
                <= 1e-6 * np.linalg.norm(recip.b1))
    else:
        assert rep["k_star"] == [0.05, 24.2]
        assert rep["kind"] == "gapped"


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


def test_exit_code_numerical_failure(capsys):
    # a cell 300 times the default needs Ewald disks past the index cap
    code, _ = run_cli(
        ["bands", "--set", "path=Gamma,K", "--set", "n_per_segment=2",
         "--d0", "30"], capsys)
    assert code == 3


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
])
def test_exit_code_bad_config(argv, capsys):
    code, _ = run_cli(argv, capsys)
    assert code == 2


def test_unwritable_out_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code = main(["bands", "--set", "path=Gamma,K", "--set", "n_per_segment=2",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: cannot write {target}")
    assert not target.exists()


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


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dipolebands.cli", "convergence",
         "--set", "k_point=K"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "retarded_splitting_dev" in proc.stdout
