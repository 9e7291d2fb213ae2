"""Import footprint: the library runs on numpy alone and loads no scipy
module on any path, ``orthant.expansion_check`` included.  Only the tests
use scipy, as an oracle.  Each case runs in a fresh interpreter, because
this one has imported scipy long before.
"""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

from nodalcheck.fields import trig_coeffs
from nodalcheck.orthant import PATTERNS, expansion_check, expected_expansion

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PRELUDE = f"""
import contextlib, io, json, sys
sys.path.insert(0, {SRC!r})

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))
"""


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; return the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_trial_paths_load_no_heavy_scipy():
    steps = _fresh("""
        steps = {}
        import nodalcheck
        steps["import nodalcheck"] = loaded()
        import nodalcheck.cli
        steps["import nodalcheck.cli"] = loaded()
        from nodalcheck import (admissibility, cli, cubical, experiments,
                                fields, homology)
        experiments.homology_experiment(1, 5, [18], trials=1, seed=0)
        steps["1D homology_experiment"] = loaded()
        experiments.zero_stats(5, trials=1, seed=0)
        steps["zero_stats"] = loaded()
        r = fields.draw_realization(fields.trig_coeffs(2, 3), 0)
        homology.betti_pair(cubical.sign_grid(r, 8))
        steps["2D betti_pair"] = loaded()
        experiments.homology_experiment(2, 3, [8], trials=1, seed=0)
        steps["2D homology_experiment"] = loaded()
        admissibility.validate_2d(r, 8, 2)
        steps["validate_2d"] = loaded()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["validate", "--dim", "2", "--N", "3", "--M", "8"])
        steps["cli validate --dim 2"] = loaded()
        print(json.dumps(steps))
    """)
    assert len(steps) == 8
    assert steps == {step: [] for step in steps}


def test_2d_betti_loads_ndimage_only():
    """2D Betti numbers once loaded ``scipy.ndimage`` for their labelling;
    the run-graph version loads no scipy module."""
    got = _fresh("""
        from nodalcheck import cubical, fields, homology
        r = fields.draw_realization(fields.trig_coeffs(2, 3), 0)
        pair = homology.betti_pair(cubical.sign_grid(r, 8))
        print(json.dumps(loaded()))
    """)
    assert got == []


def test_orthant_functions_load_no_scipy():
    got = _fresh("""
        from nodalcheck import fields, orthant
        out = {"before": loaded()}
        plane = fields.trig_coeffs(2, 3)
        orthant.asymptotic_functional(plane, plane.L, "five-point", 0.05,
                                      samples=10_000)
        out["after asymptotic_functional"] = loaded()
        coeffs = fields.trig_coeffs(1, 3)
        pat = orthant.PATTERNS["crossover-1d"]
        rep = orthant.expansion_check(
            coeffs, coeffs.L, pat, [0.1 * 2.0**-j for j in range(6)],
            orthant.expected_expansion("crossover-1d", coeffs))
        out["ok"], out["det_coefficient"] = rep.ok, rep.det_coefficient
        out["after expansion_check"] = loaded()
        print(json.dumps(out))
    """)
    assert got["before"] == []
    # five points: the importance sampler
    assert got["after asymptotic_functional"] == []
    # branch matching searches the orderings in numpy
    assert got["after expansion_check"] == []
    coeffs = trig_coeffs(1, 3)
    rep = expansion_check(coeffs, 2 * math.pi, PATTERNS["crossover-1d"],
                          [0.1 * 2.0**-j for j in range(6)],
                          expected_expansion("crossover-1d", coeffs))
    assert got["ok"] and rep.ok
    assert got["det_coefficient"] == rep.det_coefficient
