"""The benchmark's outside tracer against the package it wraps.

perfbench/tracer.py wraps package functions by name; a renamed or bypassed
layer function would only show in the traced benchmark run. These checks
run the same tracer on a small solve.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import dipolebands.cli  # noqa: F401  (the tracer wraps cli.main)
from dipolebands import (OUT_OF_PLANE, build_lattice, critical_beta,
                         reciprocal, solve_k)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_one_lattice_sum_per_assembly(tracer_module):
    for modname, names in tracer_module.LAYERS.values():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), (modname, name)

    spec = build_lattice(0.1, 0.9)
    recip = reciprocal(spec)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # the light-line row makes the first assembly raise and a second
        # one solve the nudged pass
        batch = solve_k(spec, np.array([recip.K, recip.M, [2.0 * np.pi, 0.0],
                                        [9.7, 13.1]]))
        critical_beta(0.1, OUT_OF_PLANE, (0, 1), "M", (0.80, 0.88),
                      bracket_tol=3e-4)
    finally:
        tracer.uninstall()
    assert list(batch.anomalous) == [False, False, True, False]

    spans = tracer.spans
    assemble = [i for i, s in enumerate(spans) if s[0] == "bloch.assemble"]
    sums = [s for s in spans if s[0] == "latticesums.ewald_sum"]
    assert [s[5] for s in spans if s[0] == "bloch.assemble"][:2] == [
        "RayleighAnomaly", None]
    assert len(sums) == len(assemble) > 2
    for i in assemble:
        assert sum(1 for s in sums if s[3] == i) == 1
