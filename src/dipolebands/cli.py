"""Command-line front end: config parsing, dispatch, deterministic output.

Commands: bands | surface | find-cones | classify | sweep-beta | convergence.
Configuration comes from an optional key=value file (positional argument or
--config) plus flag overrides (flags win). Each key, its default and its
parser are declared once, as a field of RunConfig. Output goes to --out or
stdout.
CSV uses 17 significant digits; every output embeds the resolved config.
The Ewald truncation target and splitting are not config keys: the
lattice-sum layer fixes both (see LatticeSumRequest).
Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
Nothing is read from the environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import bloch, dispersion, lattice, latticesums
from .bloch import EigenFailure
from .dispersion import FitDegenerate, NoClosure
from .lattice import BetaOutOfRange, UnknownLabel
from .latticesums import NonConvergent, RayleighAnomaly

_MODES = ("retarded", "quasistatic", "both")
_BLOCKS = ("out_of_plane", "in_plane", "all")
_FORMATS = ("csv", "json")
# Config keys with their own --KEY flag; commands that reject mode=both;
# commands that reject block=all; the format of each command that writes
# only one (convergence writes either; an explicit other format exits 2).
_FLAG_KEYS = ("out", "d0", "beta", "mode", "block", "pair", "format")
_SINGLE_MODE = ("surface", "find-cones", "classify", "sweep-beta")
_NEEDS_BLOCK = ("classify", "sweep-beta")
_ONE_FORMAT = {"bands": "csv", "surface": "csv", "find-cones": "json",
               "classify": "json", "sweep-beta": "json"}


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, missing requirement."""


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_pair(v: str) -> tuple:
    parts = [p for p in v.replace(" ", "").split(",") if p]
    if len(parts) != 2:
        raise ValueError(f"pair needs two indices, got {v!r}")
    pair = (int(parts[0]), int(parts[1]))
    if pair[0] >= pair[1] or min(pair) < 0:
        raise ValueError(f"pair must be ascending non-negative, got {v!r}")
    return pair


def _parse_floats(v: str, n: int):
    parts = [p for p in v.replace(" ", "").split(",") if p]
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated numbers, got {v!r}")
    vals = tuple(float(p) for p in parts)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"not finite: {v!r}")
    return vals


def _parse_grid(v: str) -> tuple:
    parts = [p for p in v.replace(" ", "").split(",") if p]
    if len(parts) != 6:
        raise ValueError("grid is kx_min,kx_max,ky_min,ky_max,nx,ny")
    vals = _parse_floats(",".join(parts[:4]), 4) + (int(parts[4]),
                                                    int(parts[5]))
    if vals[4] < 1 or vals[5] < 1:
        raise ValueError("grid point counts must be >= 1")
    return vals


def _parse_choice(options):
    def parse(v: str) -> str:
        low = v.strip().lower().replace("-", "_")
        if low not in options:
            raise ValueError(f"must be one of {options}, got {v!r}")
        return low
    return parse


def _key(default, parse):
    """A RunConfig field: its default and the parser of its text value."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (strict: unknown keys are rejected)."""

    d0: float = _key(0.1, float)
    beta: float = _key(1.0, float)
    beta_start: float | None = _key(None, float)
    beta_stop: float | None = _key(None, float)
    beta_step: float = _key(0.005, float)
    mode: str = _key("retarded", _parse_choice(_MODES))
    block: str = _key("all", _parse_choice(_BLOCKS))
    pair: tuple = _key((0, 1), _parse_pair)
    path: str = _key("figure", str)
    n_per_segment: int = _key(100, int)
    grid: tuple | None = _key(None, _parse_grid)
    region: tuple | None = _key(None, lambda v: _parse_floats(v, 4))
    k_point: str | None = _key(None, str)
    eps_deg: float = _key(dispersion.EPS_DEG, float)
    fit_radius: float | None = _key(None, float)
    refine: bool = _key(True, _parse_bool)
    format: str = _key("csv", _parse_choice(_FORMATS))
    out: str | None = _key(None, str)


_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Parse a key=value config file (strict keys, '#' comments)."""
    updates = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        updates[key] = value
    return updates


def resolve_config(file_updates: dict, flag_updates: dict) -> RunConfig:
    """Merge defaults <- file <- flags into a validated RunConfig."""
    cfg = RunConfig()
    for source in (file_updates, flag_updates):
        parsed = {}
        for key, value in source.items():
            if key not in _PARSERS:
                raise ConfigError(f"unknown config key: {key!r}")
            if value is None:
                continue
            try:
                parsed[key] = (
                    value if not isinstance(value, str)
                    else _PARSERS[key](value)
                )
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        cfg = replace(cfg, **parsed)
    for name in ("beta", "beta_start", "beta_stop"):
        val = getattr(cfg, name)
        if val is not None and not (
                lattice.BETA_MIN <= val <= lattice.BETA_MAX):
            raise ConfigError(
                f"{name}={val} outside "
                f"[{lattice.BETA_MIN}, {lattice.BETA_MAX}]")
    if cfg.region and not (cfg.region[0] < cfg.region[1]
                           and cfg.region[2] < cfg.region[3]):
        raise ConfigError("region must be kx_min,kx_max,ky_min,ky_max with "
                          f"each min below its max, got {cfg.region}")
    if (cfg.beta_start is not None and cfg.beta_stop is not None
            and cfg.beta_stop < cfg.beta_start):
        raise ConfigError(
            f"beta_stop={cfg.beta_stop} below beta_start={cfg.beta_start}")
    for name in ("d0", "beta_step", "eps_deg", "fit_radius"):
        val = getattr(cfg, name)
        if val is not None and not 0.0 < val < np.inf:
            raise ConfigError(f"{name} must be positive and finite, got {val}")
    if not lattice.D0_MIN <= cfg.d0 <= lattice.D0_MAX:
        raise ConfigError(f"d0={cfg.d0} outside "
                          f"[{lattice.D0_MIN}, {lattice.D0_MAX}]")
    _check_k_size(cfg)
    n_bands = bloch.BLOCKS.count(cfg.block)
    if n_bands and cfg.pair[1] >= n_bands:
        raise ConfigError(
            f"pair={cfg.pair} out of range for the {n_bands}-band "
            f"{cfg.block} block")
    if cfg.n_per_segment < 2:
        raise ConfigError(
            f"n_per_segment must be >= 2, got {cfg.n_per_segment}")
    return cfg


def _check_k_size(cfg: RunConfig) -> None:
    """Reject a numeric k_point, grid or region coordinate beyond
    lattice.K_MAX_FRAC |b1|."""
    coords = list(cfg.region or ()) + list(cfg.grid[:4] if cfg.grid else ())
    try:
        coords += _parse_floats(cfg.k_point or "", 2)
    except ValueError:
        pass  # no k_point, a label, or a bad one that _resolve_k reports
    recip = lattice.reciprocal(lattice.build_lattice(cfg.d0, cfg.beta))
    k_max = lattice.K_MAX_FRAC * float(np.linalg.norm(recip.b1))
    if any(abs(c) > k_max for c in coords):
        raise ConfigError(f"k coordinates must be within +-{k_max:.6g} "
                          f"({lattice.K_MAX_FRAC:g} |b1|)")


def _config_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    return {k: d[k] for k in sorted(d)}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _check_out(path: str) -> None:
    """Reject an --out path that cannot be written before the run starts.

    Writing can still fail later; _emit reports that the same way.
    """
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif not os.access(folder, os.W_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write {path}: {reason}")


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _csv_text(cfg: RunConfig, header: list, rows: list) -> str:
    lines = [f"# {k} = {v}" for k, v in _config_dict(cfg).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(cfg: RunConfig, payload: dict) -> str:
    doc = {"config": _config_dict(cfg)}
    doc.update(payload)
    return json.dumps(doc, indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _resolve_k(cfg: RunConfig, recip) -> np.ndarray:
    if not cfg.k_point:
        raise ConfigError("k_point is required for this command")
    try:
        return recip.point(cfg.k_point)
    except UnknownLabel:
        pass
    try:
        return np.asarray(_parse_floats(cfg.k_point, 2))
    except ValueError as exc:
        raise ConfigError(f"bad k_point {cfg.k_point!r}: {exc}") from exc


def _path_labels(cfg: RunConfig) -> list:
    if cfg.path.strip().lower() == "figure":
        return list(lattice.FIGURE_PATH)
    labels = [p.strip() for p in cfg.path.split(",") if p.strip()]
    if len(labels) < 2:
        raise ConfigError(f"path needs at least two labels, got {cfg.path!r}")
    return labels


def _block_pairs(cfg: RunConfig) -> list:
    if cfg.block != "all":
        return [(cfg.block, cfg.pair)]
    return [(block, (n, n + 1))
            for block in (bloch.OUT_OF_PLANE, bloch.IN_PLANE)
            for n in range(bloch.BLOCKS.count(block) - 1)]


def cmd_bands(cfg: RunConfig) -> str:
    spec = lattice.build_lattice(cfg.d0, cfg.beta)
    recip = lattice.reciprocal(spec)
    labels = _path_labels(cfg)
    try:
        samples = lattice.sample_path(recip, labels, cfg.n_per_segment)
    except UnknownLabel as exc:
        raise ConfigError(str(exc)) from exc
    modes = ("retarded", "quasistatic") if cfg.mode == "both" else (cfg.mode,)
    results = {m: bloch.bands_on_path(spec, samples, m) for m in modes}
    header = ["arclength", "kx", "ky", "band_index", "block"]
    for m in modes:
        suffix = "" if len(modes) == 1 else f"_{m}"
        header += [f"detuning{suffix}", f"decay{suffix}"]
    header += ["in_light_cone", "anomalous"]
    rows = []
    first = results[modes[0]]
    for i, (bs, (_k, arclength, _label)) in enumerate(zip(first, samples)):
        for band in range(6):
            if cfg.block != "all" and bs.block[band] != cfg.block:
                continue
            row = [arclength, bs.k[0], bs.k[1], band, bs.block[band]]
            for m in modes:
                other = results[m][i]
                row += [other.detuning[band], other.decay[band]]
            row += [bs.in_light_cone,
                    any(results[m][i].anomalous for m in modes)]
            rows.append(row)
    return _csv_text(cfg, header, rows)


def cmd_surface(cfg: RunConfig) -> str:
    if cfg.grid is None:
        raise ConfigError("surface requires grid=kx_min,kx_max,ky_min,ky_max,nx,ny")
    x0, x1, y0, y1, nx, ny = cfg.grid
    spec = lattice.build_lattice(cfg.d0, cfg.beta)
    grid = bloch.bands_on_grid(
        spec, np.linspace(x0, x1, nx), np.linspace(y0, y1, ny), cfg.mode)
    header = ["ix", "iy", "kx", "ky", "band_index", "block", "detuning",
              "decay", "in_light_cone", "anomalous"]
    rows = []
    for i in range(nx):
        for j in range(ny):
            for band in range(6):
                if cfg.block != "all" and grid.block[band] != cfg.block:
                    continue
                rows.append([
                    i, j, *grid.k[i, j], band, grid.block[band],
                    grid.detuning[i, j, band], grid.decay[i, j, band],
                    grid.in_light_cone[i, j], grid.anomalous[i, j],
                ])
    return _csv_text(cfg, header, rows)


def _report_payload(rep) -> dict:
    payload = {f.name: getattr(rep, f.name) for f in fields(rep)}
    if np.isnan(rep.tilt_ratio):
        payload["tilt_ratio"] = None
    return payload


def cmd_find_cones(cfg: RunConfig) -> str:
    spec = lattice.build_lattice(cfg.d0, cfg.beta)
    found = [rep for block, pair in _block_pairs(cfg)
             for rep in dispersion.find_degeneracies(
                 spec, block, pair, cfg.region, cfg.mode, cfg.eps_deg)]
    reports = dispersion.classify_all(spec, found, cfg.mode, cfg.fit_radius,
                                      cfg.eps_deg)
    return _json_text(cfg, {"reports": [_report_payload(r) for r in reports]})


def cmd_classify(cfg: RunConfig) -> str:
    spec = lattice.build_lattice(cfg.d0, cfg.beta)
    k = _resolve_k(cfg, lattice.reciprocal(spec))
    if cfg.refine:
        # a descent that does not close the gap may wander off: keep k
        k_ref, g = dispersion.refine_degeneracy(
            spec, cfg.block, cfg.pair, k, cfg.mode)
        if g < cfg.eps_deg:
            k = k_ref
    rep = dispersion.classify(
        spec, k, cfg.block, cfg.pair, cfg.mode, cfg.fit_radius,
        eps_deg=cfg.eps_deg)
    return _json_text(cfg, {"report": _report_payload(rep)})


def cmd_sweep_beta(cfg: RunConfig) -> str:
    if cfg.beta_start is None or cfg.beta_stop is None:
        raise ConfigError("sweep-beta requires beta_start and beta_stop")
    start_point = None
    if cfg.k_point:
        spec = lattice.build_lattice(cfg.d0, cfg.beta_start)
        start_point = _resolve_k(cfg, lattice.reciprocal(spec))
    traj = dispersion.tilt_transition_scan(
        cfg.d0, cfg.beta_start, cfg.beta_stop, cfg.block, cfg.pair,
        cfg.beta_step, cfg.mode, cfg.region, cfg.eps_deg,
        start_point=start_point, fit_radius=cfg.fit_radius)
    payload = {
        "beta_values": list(traj.beta_values),
        "reports": [_report_payload(r) for r in traj.reports],
        "events": [dict(e) for e in traj.events],
    }
    return _json_text(cfg, payload)


def cmd_convergence(cfg: RunConfig) -> str:
    spec = lattice.build_lattice(cfg.d0, cfg.beta)
    recip = lattice.reciprocal(spec)
    k = _resolve_k(cfg, recip) if cfg.k_point else recip.K
    report = latticesums.sum_diagnostics(spec, k)
    if cfg.format == "json":
        return _json_text(cfg, {"diagnostics": report})
    rows = []
    for key in sorted(report):
        val = report[key]
        if isinstance(val, (list, tuple)):
            val = " ".join(_fmt(v) for v in val)
        elif isinstance(val, float):
            val = _fmt(val)
        rows.append([key, str(val)])
    return _csv_text(cfg, ["quantity", "value"], rows)


_COMMANDS = {
    "bands": cmd_bands,
    "surface": cmd_surface,
    "find-cones": cmd_find_cones,
    "classify": cmd_classify,
    "sweep-beta": cmd_sweep_beta,
    "convergence": cmd_convergence,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="dipolebands",
        description="Band structures and Dirac-point taxonomy of anisotropic "
                    "dipole lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config_file", nargs="?", default=None,
                       help="key=value config file")
        p.add_argument("--config", dest="config_flag", default=None)
        for key in _FLAG_KEYS:
            p.add_argument(f"--{key}", default=None)
        p.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_updates = {}
        cfg_path = args.config_flag or args.config_file
        if cfg_path:
            file_updates = load_config_file(cfg_path)
        flag_updates = {key: getattr(args, key) for key in _FLAG_KEYS
                        if getattr(args, key) is not None}
        for item in args.sets:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = (s.strip() for s in item.split("=", 1))
            flag_updates[key] = value
        cfg = resolve_config(file_updates, flag_updates)
        if cfg.mode == "both" and args.command in _SINGLE_MODE:
            raise ConfigError(f"{args.command} supports a single mode per run")
        if cfg.block == "all" and args.command in _NEEDS_BLOCK:
            raise ConfigError(f"{args.command} requires an explicit block")
        # format defaults to csv; only a format asked for is checked
        written = _ONE_FORMAT.get(args.command, cfg.format)
        if cfg.format != written and (
                "format" in file_updates or "format" in flag_updates):
            raise ConfigError(f"{args.command} writes {written} only, got "
                              f"format={cfg.format}")
        if cfg.out:
            _check_out(cfg.out)
        _emit(cfg, _COMMANDS[args.command](cfg))
    except (ConfigError, BetaOutOfRange) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RayleighAnomaly, NonConvergent, EigenFailure, NoClosure,
            FitDegenerate) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
