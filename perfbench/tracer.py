"""Outside tracer: spans around the public functions of each dipolebands layer.

The tracer edits no package source. It replaces each listed function with a
timing wrapper in every ``dipolebands.*`` namespace that holds the same
object, because ``bloch`` and ``dispersion`` import layer functions by name
and would otherwise keep calling the unwrapped originals. Spans are kept in
memory as (name, start, end, parent, run id, error) and written out at the
end; self times are derived from them (span duration minus the durations of
its direct children).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer -> (module, public functions wrapped). greens is off the hot path
# (only the constant K0 is used per k) and is not traced.
LAYERS = {
    "lattice": ("dipolebands.lattice",
                ("build_lattice", "reciprocal", "sample_path",
                 "reduce_to_bz")),
    "latticesums": ("dipolebands.latticesums", ("ewald_sum",)),
    "bloch": ("dipolebands.bloch",
              ("assemble", "eigensolve", "bands_on_path", "bands_on_grid")),
    "dispersion": ("dipolebands.dispersion",
                   ("find_degeneracies", "classify", "critical_beta",
                    "make_gap_function", "tilt_transition_scan",
                    "dos_histogram")),
    "cli": ("dipolebands.cli", ("main",)),
}

# The optimizer the degeneracy search calls for refinement. It is a probe,
# not a layer function: when a later engine drops it, refine counts read 0.
OPTIONAL = {"dispersion": ("dipolebands.dispersion", ("minimize",))}


class TracerError(RuntimeError):
    """A wrapped name is missing, or a layer in use recorded no span."""


class Tracer:
    """Installs span-recording wrappers; restores the originals on uninstall.

    Attributes:
        spans: list of [name, start, end, parent index, run id, error name].
        run_id: tag stamped on new spans (the workload operation index).
        ewald: accumulated (n_spatial, n_spectral, max est_error) of the
            lattice sums that returned.
        outputs: counts of useful results returned by layer functions.
    """

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self.ewald = [0, 0, 0.0]
        self.outputs = {"kpoints": 0, "cones_found": 0, "classified": 0,
                        "transitions": 0}
        self._stack: list[int] = []
        self._patched: list = []

    def _record(self, name, result):
        if name == "latticesums.ewald_sum":
            self.ewald[0] += result.n_spatial
            self.ewald[1] += result.n_spectral
            self.ewald[2] = max(self.ewald[2], result.est_error)
        elif name == "bloch.bands_on_path":
            self.outputs["kpoints"] += len(result)
        elif name == "bloch.bands_on_grid":
            self.outputs["kpoints"] += result.detuning.shape[0] * \
                result.detuning.shape[1]
        elif name == "dispersion.find_degeneracies":
            self.outputs["cones_found"] += len(result)
        elif name == "dispersion.classify":
            self.outputs["classified"] += 1
        elif name == "dispersion.critical_beta":
            self.outputs["transitions"] += 1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.run_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            self._record(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function in every dipolebands namespace."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dipolebands" or n.startswith("dipolebands.")]
        targets = []
        for table, required in ((LAYERS, True), (OPTIONAL, False)):
            for layer, (modname, names) in table.items():
                module = sys.modules.get(modname)
                if module is None:
                    raise TracerError(f"module {modname} is not imported")
                for fname in names:
                    fn = getattr(module, fname, None)
                    if fn is None:
                        if required:
                            raise TracerError(
                                f"{modname}.{fname} is missing; update "
                                "perfbench/tracer.py with the new layer API")
                        continue
                    label = f"{layer}.{fname}"
                    targets.append((fn, self._wrap(label, fn)))
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, err in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run,
                                     "error": err}) + "\n")


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, traced_wall: float,
                  expected_layers) -> dict:
    """Per-layer metrics from the recorded spans.

    Args:
        tracer: the tracer after the traced pass.
        traced_wall: wall seconds of the traced pass (sum over operations).
        expected_layers: layers the workload exercises; each must have
            recorded at least one span.

    Returns:
        {metric name: (value, unit)}.

    Raises:
        TracerError: an expected layer recorded no span.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _run, _err in spans:
        if parent >= 0:
            child[parent] += end - start
    dur = [s[2] - s[1] for s in spans]
    self_t = [d - c for d, c in zip(dur, child)]

    seen = {s[0].split(".", 1)[0] for s in spans}
    missing = sorted(set(expected_layers) - seen)
    if missing:
        raise TracerError(f"no span recorded for layer(s) {missing}")

    anchors = ("dispersion.find_degeneracies", "dispersion.classify",
               "dispersion.critical_beta")
    anchor = [None] * len(spans)
    refine = [False] * len(spans)
    for i, (name, _s, _e, parent, _r, _err) in enumerate(spans):
        # parents precede children, so the parent's fields are final
        if name in anchors:
            anchor[i] = name
        elif parent >= 0:
            anchor[i] = anchor[parent]
        refine[i] = name == "dispersion.minimize" or (
            parent >= 0 and refine[parent])

    def total(pred, values):
        return sum(v for s, v in zip(spans, values) if pred(s[0]))

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def raised(name, err):
        return sum(1 for s in spans if s[0] == name and s[5] == err)

    ewald_us = [d * 1e6 for s, d in zip(spans, dur)
                if s[0] == "latticesums.ewald_sum"]
    eig_us = [d * 1e6 for s, d in zip(spans, dur)
              if s[0] == "bloch.eigensolve"]
    solves = len(eig_us)
    builds = count("lattice.build_lattice")
    attempts = count("bloch.assemble")
    n_spatial, n_spectral, max_err = tracer.ewald
    terms = n_spatial + n_spectral
    ewald_self = total(lambda n: n == "latticesums.ewald_sum", self_t)

    def solves_under(which):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == "bloch.eigensolve" and anchor[i] == which)

    def disp_self(which):
        return sum(self_t[i] for i, s in enumerate(spans)
                   if s[0].startswith("dispersion.") and anchor[i] == which)

    find_solves = solves_under("dispersion.find_degeneracies")
    classify_solves = solves_under("dispersion.classify")
    crit_solves = solves_under("dispersion.critical_beta")
    out = tracer.outputs
    disp_results = out["cones_found"] + out["classified"] + out["transitions"]
    disp_solves = find_solves + classify_solves + crit_solves

    return {
        "lattice.builds": (builds, "count"),
        "lattice.solves_per_build": (solves / builds if builds else 0.0,
                                     "ratio"),
        "lattice.self_s": (total(lambda n: n.startswith("lattice."), self_t),
                           "s"),
        "latticesums.calls": (len(ewald_us), "count"),
        "latticesums.self_s": (ewald_self, "s"),
        "latticesums.share": (
            total(lambda n: n == "latticesums.ewald_sum", dur) / traced_wall,
            "ratio"),
        "latticesums.call_us_p50": (_quantile(ewald_us, 0.50), "us"),
        "latticesums.call_us_p99": (_quantile(ewald_us, 0.99), "us"),
        "latticesums.call_samples": (len(ewald_us), "count"),
        "latticesums.terms": (terms, "count"),
        "latticesums.kernel_evals": (2 * n_spatial + n_spectral, "count"),
        "latticesums.ns_per_term": (ewald_self / terms * 1e9 if terms else 0.0,
                                    "ns"),
        "latticesums.anomalies": (
            raised("latticesums.ewald_sum", "RayleighAnomaly"), "count"),
        "latticesums.max_est_error": (max_err, "ratio"),
        "bloch.solves": (solves, "count"),
        "bloch.assemble_self_s": (
            total(lambda n: n == "bloch.assemble", self_t), "s"),
        "bloch.eigensolve_s": (sum(eig_us) * 1e-6, "s"),
        "bloch.eigensolve_us_p50": (_quantile(eig_us, 0.50), "us"),
        "bloch.eigensolve_us_p99": (_quantile(eig_us, 0.99), "us"),
        "bloch.path_self_s": (
            total(lambda n: n in ("bloch.bands_on_path",
                                  "bloch.bands_on_grid"), self_t), "s"),
        "bloch.nudged": (raised("bloch.assemble", "RayleighAnomaly"), "count"),
        "bloch.kpoints_per_solve": (
            out["kpoints"] / attempts if attempts else 0.0, "ratio"),
        "dispersion.find_solves": (find_solves, "count"),
        "dispersion.refine_solves": (
            sum(1 for i, s in enumerate(spans)
                if s[0] == "bloch.eigensolve" and refine[i]), "count"),
        "dispersion.find_self_s": (
            disp_self("dispersion.find_degeneracies"), "s"),
        "dispersion.classify_solves": (classify_solves, "count"),
        "dispersion.classify_self_s": (disp_self("dispersion.classify"), "s"),
        "dispersion.crit_solves": (crit_solves, "count"),
        "dispersion.cones_found": (out["cones_found"], "count"),
        "dispersion.results_per_solve": (
            disp_results / disp_solves if disp_solves else 0.0, "ratio"),
        "cli.self_s": (total(lambda n: n == "cli.main", self_t), "s"),
    }
