"""Host-speed reference: a fixed kernel timed between the trials of a run.

On a shared host the speed of small numpy calls and Python code swings by
up to 1.7x, in states that last from a second to several minutes.  A whole
30 s run can fall in the slow state, and then even a trial's fastest
repetition is slow.  Trials on the 4097^2 grids of ``hom2d`` barely move
with it.  README.md gives the measurements.

The reference kernel does the kind of work the 1D workloads do: a 1D
trigonometric sum evaluated as ``cos(phase) @ gc + sin(phase) @ gs`` on a
few large and many 60-point arrays, with a sign-change count in Python.  It
uses nothing from ``nodalcheck``, so no change to the library moves it.
Its fastest time in a run, against ``REFERENCE_S``, gives the factor that
takes a time measured in that run to the reference speed::

    corrected = measured * REFERENCE_S / fastest kernel time in the run

Create a ``Reference`` only after ``run.load_library()``, which fixes the
BLAS thread count before numpy is imported.
"""

from __future__ import annotations

from time import perf_counter

# Fastest kernel time between trials, in a 30 s run, on the host where the
# benchmark was defined (2-core Intel Xeon VM, numpy 2.4.6) in its fast
# state: corrected times read as times on that host in that state.
REFERENCE_S = 0.0028


class Reference:
    """Times the reference kernel; keeps every sample of the run."""

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(20070730)
        # (points, terms): hom1d-like large calls (N=10) and a zeros-like
        # grid call plus 60-point bisection calls (N=50)
        shapes = [(3000, 11), (600, 51)] + [(60, 51)] * 8
        self._calls = [
            (rng.uniform(0.0, 2.0 * np.pi, n), np.arange(k),
             rng.standard_normal(k), rng.standard_normal(k))
            for n, k in shapes]
        self.samples = []
        self._kernel()  # warm-up, not recorded

    def _kernel(self) -> int:
        np = self._np
        crossings = 0
        for x, k, gc, gs in self._calls:
            phase = np.multiply.outer(x, k)
            values = np.cos(phase) @ gc + np.sin(phase) @ gs
            signs = np.signbit(values)
            crossings += int(np.count_nonzero(signs[1:] != signs[:-1]))
        return crossings

    def sample(self) -> float:
        start = perf_counter()
        self._kernel()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def fastest(self, repeats: int) -> float:
        """Fastest of ``repeats`` new samples."""
        return min(self.sample() for _ in range(repeats))

    def factor(self, fastest: float | None = None) -> float:
        """REFERENCE_S / the fastest kernel time (of the run by default)."""
        return REFERENCE_S / (min(self.samples) if fastest is None else fastest)
