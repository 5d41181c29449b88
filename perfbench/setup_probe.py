"""Fresh-interpreter set-up probe: import, build one lattice, solve one k.

Run by run.py as `python3 perfbench/setup_probe.py <d0> <beta>` with src/ on
PYTHONPATH. It prints "ready" once the first Bloch solve has completed; the
parent times from process start to that line.
"""

import sys

from dipolebands import assemble, build_lattice, eigensolve, reciprocal

spec = build_lattice(float(sys.argv[1]), float(sys.argv[2]))
eigensolve(assemble(spec, reciprocal(spec).M))
print("ready", flush=True)
