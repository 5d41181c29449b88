"""Seeded inputs, operations and correctness gates of the three workloads.

Each workload is a sequence of operations. Operation i of a run draws its
inputs from numpy.random.default_rng([seed, i]), so the same seed gives the
same inputs and a longer run only appends operations. The package sees
nothing but the generated inputs.

- bands: one seeded (d0, beta) lattice per operation, through in-process
  cli.main: `bands --mode both` on the figure path (397 k per mode) and
  `surface` on a seeded 15 x 15 k-window. Result unit: output k-points.
- cones: one `find-cones --block out_of_plane --beta <seeded> --format json`
  per operation (d0 = 0.1, the CLI default), which runs find_degeneracies
  and a classify per cone. Result unit: cones located and classified.
- beta_c: one library critical_beta at M with bracket_tol=1e-6 per
  operation. Operations 0-2 are the acceptance anchors; later ones draw
  d0 and the block. Result unit: transitions found.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from dipolebands import (
    IN_PLANE,
    OUT_OF_PLANE,
    LatticeSumRequest,
    assemble,
    build_lattice,
    cli,
    dispersion,
    default_splitting,
    direct_sum_quasistatic,
    eigensolve,
    ewald_sum,
    reciprocal,
)

D0_RANGE = (0.08, 0.2)  # the paper's range of d0

# Tolerances of the ROADMAP physics contract.
SPLIT_TOL = 1e-8  # splitting invariance, E vs 2E
RESID_TOL = 1e-10  # eigenpair residual over ||m||
ORACLE_TOL = 1e-8  # quasistatic Ewald vs direct sum ("about 1e-9")
OUTPUT_TOL = 1e-9  # CSV detunings vs a fresh solve at the same k

# bands
BETA_RANGE = (0.55, 1.3)
N_PER_SEGMENT = 100  # CLI default: 4 segments -> 397 path points
PATH_POINTS = 4 * (N_PER_SEGMENT - 1) + 1
GRID_N = 15
GRID_HALF_FRAC = 0.1  # surface window half-width in units of |b1|

# cones: the out-of-plane pair has two cones per half zone above beta_c
# (0.8406 at d0 = 0.1); the draw stays clear of the merging on one side and
# of the isotropic point on the other.
CONES_BETA = (0.88, 0.95)

# beta_c: (d0, block, bracket, window centre, window half-width) of the
# acceptance criteria 2, 4 and 7.
ANCHORS = (
    (0.1, OUT_OF_PLANE, (0.80, 0.88), 0.84, 0.02),
    (0.1, IN_PLANE, (0.55, 0.63), 0.587, 0.02),
    (0.15, OUT_OF_PLANE, (0.81, 0.89), 0.8525, 0.02),
)
# Brackets that hold beta_c over all of D0_RANGE (oop 0.839-0.901,
# in-plane 0.561-0.589).
DRAW_BRACKETS = {OUT_OF_PLANE: (0.80, 0.94), IN_PLANE: (0.52, 0.66)}
BRACKET_TOL = 1e-6

# Operations per traced run: fixed, so two traced runs at one seed repeat
# every count exactly.
TRACE_OPS = {"bands": 2, "cones": 1, "beta_c": 16}

# Layers each workload exercises; the traced run fails if one records no
# span.
LAYERS_USED = {
    "bands": ("lattice", "latticesums", "bloch", "cli"),
    "cones": ("lattice", "latticesums", "bloch", "dispersion", "cli"),
    "beta_c": ("lattice", "latticesums", "bloch", "dispersion"),
}

RESULT_UNIT = {"bands": "kpoints", "cones": "cones", "beta_c": "transitions"}


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _r6(x: float) -> float:
    return round(float(x), 6)


def make_op(workload: str, seed: int, index: int) -> dict:
    """Inputs of operation `index` of a run with this seed."""
    rng = _rng(seed, index)
    if workload == "bands":
        d0 = _r6(rng.uniform(*D0_RANGE))
        beta = _r6(rng.uniform(*BETA_RANGE))
        recip = reciprocal(build_lattice(d0, beta))
        b1n = float(np.linalg.norm(recip.b1))
        cx = rng.uniform(-0.8, 0.8) * abs(recip.M[0])
        cy = rng.uniform(-0.8, 0.8) * float(np.linalg.norm(recip.K))
        half = GRID_HALF_FRAC * b1n
        grid = [_r6(cx - half), _r6(cx + half), _r6(cy - half), _r6(cy + half)]
        path_samples = sorted(int(i) for i in rng.choice(PATH_POINTS, 2,
                                                         replace=False))
        grid_sample = [int(i) for i in rng.integers(0, GRID_N, 2)]
        return {"d0": d0, "beta": beta, "grid": grid,
                "path_samples": path_samples, "grid_sample": grid_sample}
    if workload == "cones":
        return {"d0": 0.1, "beta": _r6(rng.uniform(*CONES_BETA))}
    if workload == "beta_c":
        if index < len(ANCHORS):
            d0, block, bracket, centre, half = ANCHORS[index]
            return {"d0": d0, "block": block, "bracket": list(bracket),
                    "window": [centre, half]}
        block = (OUT_OF_PLANE, IN_PLANE)[int(rng.integers(0, 2))]
        return {"d0": _r6(rng.uniform(*D0_RANGE)), "block": block,
                "bracket": list(DRAW_BRACKETS[block]), "window": None}
    raise ValueError(f"unknown workload {workload!r}")


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_op(workload: str, op: dict):
    """Run one operation; returns its raw output (compared byte for byte)."""
    if workload == "bands":
        lat = ["--d0", repr(op["d0"]), "--beta", repr(op["beta"])]
        grid = ",".join(repr(v) for v in op["grid"]) + f",{GRID_N},{GRID_N}"
        return (_cli(["bands", *lat, "--mode", "both"]),
                _cli(["surface", *lat, "--set", f"grid={grid}"]))
    if workload == "cones":
        return _cli(["find-cones", "--block", "out_of_plane",
                     "--beta", repr(op["beta"]), "--format", "json"])
    # through the module attribute, which the tracer wraps
    return dispersion.critical_beta(op["d0"], op["block"], (0, 1), "M",
                                    op["bracket"], bracket_tol=BRACKET_TOL)


def _csv_rows(text: str, n_rows: int, what: str, problems: list) -> list:
    """Rows of a CLI CSV as dicts; row-count and finiteness problems."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    if len(rows) != n_rows:
        problems.append(f"{what} rows {len(rows)} != {n_rows}")
    if not all(math.isfinite(float(r[h])) for r in rows for h in header
               if h != "block"):
        problems.append(f"{what} output holds a non-finite value")
    return rows


def _dev(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _engine_checks(spec, k, worst: dict) -> list[str]:
    """Splitting invariance and the quasistatic oracle at one k."""
    problems = []
    e0 = default_splitting(spec)
    for mode in ("retarded", "quasistatic"):
        for offset in ("same", "a_to_b", "b_to_a"):
            base, doubled = (ewald_sum(LatticeSumRequest(
                spec=spec, k=k, offset=offset, mode=mode, splitting=s)).D
                for s in (e0, 2.0 * e0))
            dev = _dev(doubled, base)
            worst["split_dev"] = max(worst["split_dev"], dev)
            if not dev <= SPLIT_TOL:
                problems.append(f"splitting {mode}/{offset} dev {dev:.2e}")
    for offset in ("same", "a_to_b"):
        req = LatticeSumRequest(spec=spec, k=k, offset=offset,
                                mode="quasistatic")
        dev = _dev(ewald_sum(req).D, direct_sum_quasistatic(req).D)
        worst["oracle_dev"] = max(worst["oracle_dev"], dev)
        if not dev <= ORACLE_TOL:
            problems.append(f"oracle {offset} dev {dev:.2e}")
    return problems


def _solve_checks(spec, k, mode, expected, worst: dict) -> list[str]:
    """Fresh solve at k: eigen residuals and agreement with the output."""
    bm = assemble(spec, k, mode=mode)
    bs = eigensolve(bm)
    norm_m = np.linalg.norm(bm.m)
    lams = bs.detuning - 0.5j * bs.decay
    resid = max(np.linalg.norm(bm.m @ bs.vectors[:, j]
                               - lams[j] * bs.vectors[:, j])
                for j in range(6)) / norm_m
    worst["resid"] = max(worst["resid"], float(resid))
    problems = []
    if not resid <= RESID_TOL:
        problems.append(f"{mode} residual {resid:.2e} at k={k.tolist()}")
    fresh = np.sort(bs.detuning)
    dev = float(np.max(np.abs(np.sort(expected) - fresh))
                / max(1.0, np.max(np.abs(fresh))))
    worst["output_dev"] = max(worst["output_dev"], dev)
    if not dev <= OUTPUT_TOL:
        problems.append(f"{mode} output deviates {dev:.2e} at k={k.tolist()}")
    return problems


def _check_bands(op, out, worst) -> list[str]:
    (rc_b, text_b), (rc_s, text_s) = out
    if rc_b != 0 or rc_s != 0:
        return [f"exit codes bands={rc_b} surface={rc_s}"]
    problems = []
    spec = build_lattice(op["d0"], op["beta"])
    rows = _csv_rows(text_b, 6 * PATH_POINTS, "bands", problems)
    for idx in op["path_samples"]:
        block = rows[6 * idx:6 * idx + 6]
        if len(block) != 6 or block[0]["anomalous"] == "1":
            continue
        k = np.array([float(block[0]["kx"]), float(block[0]["ky"])])
        for mode in ("retarded", "quasistatic"):
            det = np.array([float(r[f"detuning_{mode}"]) for r in block])
            problems += _solve_checks(spec, k, mode, det, worst)
        problems += _engine_checks(spec, k, worst)

    rows = _csv_rows(text_s, 6 * GRID_N * GRID_N, "surface", problems)
    i, j = op["grid_sample"]
    start = 6 * (i * GRID_N + j)
    block = rows[start:start + 6]
    if len(block) == 6 and block[0]["anomalous"] == "0":
        k = np.array([float(block[0]["kx"]), float(block[0]["ky"])])
        det = np.array([float(r["detuning"]) for r in block])
        problems += _solve_checks(spec, k, "retarded", det, worst)
    return problems


def _dist_mod_g(recip, a, b) -> float:
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return min(float(np.linalg.norm(d + i * recip.b1 + j * recip.b2))
               for i in range(-2, 3) for j in range(-2, 3))


def _check_cones(op, out, worst) -> list[str]:
    rc, text = out
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(text)
    reports = doc["reports"]
    if not reports:
        return ["no cone found in the two-cone range"]
    eps = float(doc["config"]["eps_deg"])
    recip = reciprocal(build_lattice(op["d0"], op["beta"]))
    tol = dispersion.DEDUP_FRAC * float(np.linalg.norm(recip.b1))
    problems = []
    for rep in reports:
        k = rep["k_star"]
        worst["gap_min"] = max(worst["gap_min"], rep["gap_min"])
        if not rep["gap_min"] < eps:
            problems.append(f"gap_min {rep['gap_min']:.2e} at {k}")
        if rep["kind"] not in dispersion.KINDS:
            problems.append(f"kind {rep['kind']!r} at {k}")
        mirror = (k[0], -k[1])
        if not any(_dist_mod_g(recip, mirror, other["k_star"]) < tol
                   for other in reports):
            problems.append(f"no ky-mirror partner for {k}")
    return problems


def _check_beta_c(op, out, worst) -> list[str]:
    lo, hi = op["bracket"]
    if op["window"] is not None:
        centre, half = op["window"]
        worst["anchor_miss"] = max(worst["anchor_miss"], abs(out - centre))
        if not abs(out - centre) <= half:
            return [f"beta_c {out:.6f} outside {centre}+-{half}"]
        return []
    if not lo + BRACKET_TOL < out < hi - BRACKET_TOL:
        return [f"beta_c {out:.6f} at the edge of bracket {op['bracket']}"]
    return []


def new_worst(workload: str) -> dict:
    """Worst values seen by the checks of one run."""
    return {
        "bands": {"split_dev": 0.0, "oracle_dev": 0.0, "resid": 0.0,
                  "output_dev": 0.0},
        "cones": {"gap_min": 0.0},
        "beta_c": {"anchor_miss": 0.0},
    }[workload]


def check_op(workload: str, op: dict, out, worst: dict) -> list[str]:
    """Correctness problems of one operation's output (empty when correct)."""
    return {"bands": _check_bands, "cones": _check_cones,
            "beta_c": _check_beta_c}[workload](op, out, worst)


def result_count(workload: str, out) -> int:
    """Useful results of one successful operation."""
    if workload == "bands":
        return 2 * PATH_POINTS + GRID_N * GRID_N
    if workload == "cones":
        return len(json.loads(out[1])["reports"])
    return 1


def output_bytes(workload: str, out) -> int:
    """Bytes the CLI wrote for one operation (0 for library calls)."""
    if workload == "bands":
        return sum(len(text.encode()) for _rc, text in out)
    if workload == "cones":
        return len(out[1].encode())
    return 0


def warm_up(workload: str, seed: int) -> None:
    """First solve on the first lattice: fills the package's lazy caches."""
    op = make_op(workload, seed, 0)
    spec = build_lattice(op["d0"], op.get("beta", 0.9))
    eigensolve(assemble(spec, reciprocal(spec).M))
