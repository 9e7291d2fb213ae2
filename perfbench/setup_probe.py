"""Time one set-up of the library in a fresh interpreter.

Set-up is what a user pays before the first trial: the imports, loading
the pattern library and the coefficient set-up of one workload.

    python3 perfbench/setup_probe.py <src-dir> <dim> <N>

prints the seconds it took.
"""

import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
from nodalcheck import experiments  # noqa: E402

experiments.default_patterns()
experiments.default_zero_tol(
    experiments.trig_coeffs(int(sys.argv[2]), int(sys.argv[3])))
print(perf_counter() - start)
