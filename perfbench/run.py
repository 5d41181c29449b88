"""Benchmark of the dipolebands Ewald band solver: bands, cones, beta_c.

Usage, from the repository root:

    python3 perfbench/run.py --workload bands --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics: set-up time in fresh
interpreters, then operations of the workload back to back (closed loop,
one caller) while one more operation of average length still fits in
--seconds; there is always at least one. Operation times are corrected
for the drift of machine speed (calibrate.py). --trace 1 runs
a fixed number of operations, each untraced and then with the outside
tracer installed, and reports the per-layer metrics. Every operation's
output is checked after the timed region. The last line of standard output
is the result; the line before it is the full record (inputs, provenance,
named metrics, worst check values).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("bands", "cones", "beta_c")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _pin_threads() -> dict:
    """One serial solver: no package worker pool, one BLAS thread."""
    os.environ.pop("DIPOLEBANDS_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    return {"DIPOLEBANDS_THREADS": None,
            **{var: os.environ[var] for var in THREAD_VARS}}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dipolebands").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def _provenance(args, threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "seed": args.seed,
        "threads": threads,
        "machine": platform.machine(),
    }


def _setup_seconds(op: dict) -> list[float]:
    """Fresh interpreter to first completed Bloch solve, several times.

    Each time is taken at the reference machine speed, from kernel samples
    just before and after it (calibrate.py).
    """
    import calibrate

    probe = Path(__file__).resolve().parent / "setup_probe.py"
    argv = [sys.executable, str(probe), repr(op["d0"]),
            repr(op.get("beta", 0.9))]
    calibrate.warm_up()
    times = []
    for _ in range(SETUP_REPEATS):
        k_before = calibrate.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(
                f"set-up probe failed (exit {proc.returncode})")
        k_after = calibrate.sample()
        times.append(elapsed * 2.0 * calibrate.CAL_REF_S
                     / (k_before + k_after))
    return times


def _run_op(wl, workload, op):
    """Run one operation; returns (output or the exception raised, wall)."""
    t0 = time.perf_counter()
    try:
        out = wl.run_op(workload, op)
    except Exception as exc:  # counted as a failed operation
        out = exc
        traceback.print_exc(file=sys.stderr)
    return out, time.perf_counter() - t0


def _judge(wl, workload, ops, outs, worst):
    """Check every output; returns (failures, useful results per operation)."""
    failures, results = [], []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if isinstance(out, Exception):
            problems = [f"{type(out).__name__}: {out}"]
        else:
            problems = wl.check_op(workload, op, out, worst)
        if problems:
            failures.append({"op": i, "problems": problems})
        results.append(0 if problems else wl.result_count(workload, out))
    return failures, results


def _timed_run(wl, args):
    """Untraced run: end-to-end metrics."""
    import calibrate

    first = wl.make_op(args.workload, args.seed, 0)
    setup = _setup_seconds(first)
    wl.warm_up(args.workload, args.seed)
    ops, outs, spans = [], [], []
    probe = calibrate.SpeedProbe()
    probe.start()
    try:
        start = time.perf_counter()
        # stop before an operation of average length would overrun the
        # budget
        while not ops or (time.perf_counter() - start) * (
                1 + 1 / len(ops)) <= args.seconds:
            op = wl.make_op(args.workload, args.seed, len(ops))
            t0 = time.perf_counter()
            out, _wall = _run_op(wl, args.workload, op)
            spans.append((t0, time.perf_counter()))
            ops.append(op)
            outs.append(out)
    finally:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [t1 - t0 - probe.paused(t0, t1) for t0, t1 in spans]
    speeds = [probe.speed(t0, t1) for t0, t1 in spans]
    op_s = [w * v for w, v in zip(walls, speeds)]
    worst = wl.new_worst(args.workload)
    failures, results = _judge(wl, args.workload, ops, outs, worst)
    rate_per_s = statistics.median(r / t for r, t in zip(results, op_s))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s": (statistics.median(op_s), "s"),
        "results_per_min": (60.0 * rate_per_s, "1/min"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    named = {
        "bands": {"kpoints_per_s": (rate_per_s, "1/s")},
        "cones": {"cones_per_min": (60.0 * rate_per_s, "1/min")},
        "beta_c": {"transitions_per_min": (60.0 * rate_per_s, "1/min")},
    }[args.workload]
    raw_rate = statistics.median(r / w for r, w in zip(results, walls))
    named["raw_wall_s"] = (statistics.median(walls), "s")
    named["raw_results_per_min"] = (60.0 * raw_rate, "1/min")
    named["machine_speed"] = (statistics.median(speeds), "ratio")
    extra = {"setup_samples_s": setup, "op_walls_s": walls,
             "op_speeds": speeds, "op_results": results,
             "speed_samples": len(probe.samples)}
    return ops, failures, worst, metrics, named, extra


def _traced_run(wl, args):
    """Traced run: per-layer metrics and the tracer overhead."""
    from tracer import Tracer, layer_metrics

    workload = args.workload
    wl.warm_up(workload, args.seed)
    ops = [wl.make_op(workload, args.seed, i)
           for i in range(wl.TRACE_OPS[workload])]
    # untraced and traced runs of each operation alternate, so that drift in
    # machine speed cancels out of the overhead ratio
    tracer = Tracer()
    plain_walls, plain_outs, walls, outs = [], [], [], []
    cpu = 0.0
    for i, op in enumerate(ops):
        out, wall = _run_op(wl, workload, op)
        plain_outs.append(out)
        plain_walls.append(wall)
        tracer.run_id = i
        try:
            tracer.install()
            cpu0 = time.process_time()
            out, wall = _run_op(wl, workload, op)
            cpu += time.process_time() - cpu0
        finally:
            tracer.uninstall()
        outs.append(out)
        walls.append(wall)
    traced_wall = sum(walls)

    worst = wl.new_worst(workload)
    failures, _results = _judge(wl, workload, ops, outs, worst)
    for i, (a, b) in enumerate(zip(plain_outs, outs)):
        if isinstance(a, Exception) or a != b:
            failures.append({"op": i, "problems": [
                "traced output differs from the untraced output"]})
    metrics = layer_metrics(tracer, traced_wall, wl.LAYERS_USED[workload])
    metrics["cli.output_bytes"] = (
        sum(wl.output_bytes(workload, o) for o in outs
            if not isinstance(o, Exception)), "bytes")
    metrics["process.cpu_per_wall"] = (cpu / traced_wall, "ratio")
    metrics["trace.overhead"] = (traced_wall / sum(plain_walls), "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans_{workload}_seed{args.seed}.jsonl"
    tracer.write(spans_path)
    extra = {"untraced_wall_s": sum(plain_walls), "traced_wall_s": traced_wall,
             "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return ops, failures, worst, metrics, {}, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dipolebands" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}/dipolebands; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads as wl

    run = _traced_run if args.trace else _timed_run
    ops, failures, worst, metrics, named, extra = run(wl, args)
    prov = _provenance(args, threads)
    # measured by the traced run only
    prov["tracer_overhead"] = metrics.get("trace.overhead", (None,))[0]
    n_failed = len({f["op"] for f in failures})
    named["error_rate"] = (n_failed / len(ops), "ratio")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result_unit": wl.RESULT_UNIT[args.workload],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "worst_checks": worst,
        "failures": failures,
        "provenance": prov,
        "inputs": ops,
        **extra,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": n_failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
