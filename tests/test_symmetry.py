"""Every verdict is invariant under the square's symmetries and the sign flip.

Each map below takes a field of the family to another field of the family
and the lattice j L / n onto itself: the reflection x -> L - x in each
axis, the transpose (``trig_coeffs`` is symmetric in k and l) and the
sign flip u -> -u.  Only the draws g move.  The B ring and the four I
half-shifts are symmetric, and every pattern library is closed under the
eight symmetries of the square and the sign flip, so the status, the
violation count with ``collect_all``, the zero-flag count and the Betti
pair of the sign grid may not change, except that the flip swaps Q+ and
Q-.  The test needs no oracle, so it checks every fast path at once:
dropping one I half-shift from ``admissibility._I_STENCILS`` breaks it.
"""

import numpy as np
import pytest

from nodalcheck import admissibility as adm
from nodalcheck.cubical import sign_grid
from nodalcheck.experiments import default_zero_tol
from nodalcheck.fields import (Realization1D, Realization2D,
                               draw_realization, trig_coeffs)
from nodalcheck.homology import betti_pair


def _reflect_x1(g):
    # sin(k (L - x1)) = -sin(k x1): the sin*cos and sin*sin terms
    return g * np.array([1, 1, -1, -1])


def _reflect_x2(g):
    return g * np.array([1, -1, 1, -1])


def _transpose(g):
    # k <-> l, and the cos*sin term <-> the sin*cos term
    return g.transpose(1, 0, 2)[..., [0, 2, 1, 3]]


def _compose(*maps):
    def composed(g):
        for f in maps:
            g = f(g)
        return g
    return composed


# the seven nontrivial symmetries of the square
DIHEDRAL = {
    "x1": _reflect_x1,
    "x2": _reflect_x2,
    "x1 x2": _compose(_reflect_x1, _reflect_x2),
    "T": _transpose,
    "T x1": _compose(_reflect_x1, _transpose),
    "T x2": _compose(_reflect_x2, _transpose),
    "T x1 x2": _compose(_reflect_x1, _reflect_x2, _transpose),
}


def _flip(g):
    return -g


def _pair(grid) -> tuple:
    plus, minus = betti_pair(grid)
    return plus.as_list(), minus.as_list()


def _key(out, grid, flipped=False) -> tuple:
    pair = _pair(grid)
    return (out.status, out.violation_count, out.zero_flag_count,
            pair[::-1] if flipped else pair)


def _keys_2d(r, Ms, D, zero_tol, M_pass, flipped=False) -> list:
    fine = adm._fine_pass(r, M_pass, D, zero_tol) if M_pass else None
    return [_key(adm.validate_2d(r, M, D, zero_tol, collect_all=True,
                                 fine=fine),
                 sign_grid(r, M, zero_tol, fine=fine), flipped) for M in Ms]


# (N, D, the M validated, the M of a pass handed to each as ``fine``, or
# 0 for a pass of its own): the M = 32 pass serves M = 32 as its own pass
# and M = 8 as a nested one
SETTINGS_2D = [(3, 6, (32, 8), 32), (3, 6, (8,), 0), (5, 3, (24,), 0)]
FIELDS_2D = 60


@pytest.mark.parametrize("N, D, Ms, M_pass", SETTINGS_2D)
def test_2d_verdicts_invariant(N, D, Ms, M_pass):
    coeffs = trig_coeffs(2, N)
    assert np.array_equal(coeffs.a, coeffs.a.T)
    zero_tol = default_zero_tol(coeffs)
    maps = dict(DIHEDRAL, flip=_flip)
    mismatches, statuses = [], set()
    for seed in range(1000 * N + Ms[-1], 1000 * N + Ms[-1] + FIELDS_2D):
        r = draw_realization(coeffs, seed)
        want = _keys_2d(r, Ms, D, zero_tol, M_pass)
        statuses.update(key[0] for key in want)
        for name, f in maps.items():
            image = Realization2D(coeffs=coeffs, g=f(r.g), seed=seed)
            got = _keys_2d(image, Ms, D, zero_tol, M_pass, name == "flip")
            if got != want:
                mismatches.append((seed, name, want, got))
    assert mismatches == []
    assert "Certified" in statuses or max(Ms) < 32
    assert "NotCertified" in statuses


def test_2d_flip_negates_the_grid_exactly():
    """Negated draws give exactly negated values, so the flip's sign grid
    is the negated one, point for point."""
    coeffs = trig_coeffs(2, 3)
    zero_tol = default_zero_tol(coeffs)
    r = draw_realization(coeffs, 7)
    image = Realization2D(coeffs=coeffs, g=-r.g, seed=7)
    assert np.array_equal(sign_grid(image, 32, zero_tol).signs,
                          -sign_grid(r, 32, zero_tol).signs)


def _reflect_1d(g):
    # sin(2 pi k (L - x) / L) = -sin(2 pi k x / L): the odd entries
    out = g.copy()
    out[1::2] *= -1
    return out


@pytest.mark.parametrize("N, M", [(5, 18), (10, 50)])
def test_1d_verdicts_invariant(N, M):
    coeffs = trig_coeffs(1, N)
    zero_tol = default_zero_tol(coeffs)
    mismatches, statuses = [], set()
    for seed in range(300):
        r = draw_realization(coeffs, seed)
        want = _key(adm.validate_1d(r, M, 6, zero_tol),
                    sign_grid(r, M, zero_tol))
        statuses.add(want[0])
        for name, f in (("x", _reflect_1d), ("flip", _flip)):
            image = Realization1D(coeffs=coeffs, g=f(r.g), seed=seed)
            got = _key(adm.validate_1d(image, M, 6, zero_tol),
                       sign_grid(image, M, zero_tol), flipped=name == "flip")
            if got != want:
                mismatches.append((seed, name, want, got))
    assert mismatches == []
    assert statuses == {"Certified", "NotCertified"}
