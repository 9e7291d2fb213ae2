"""The grid-free 1D oracle: every zero of a 1D field from the roots of one
polynomial (``oracles.zeros_1d``), and the true Betti pair from them.

It checks the 1D promise without a dyadic grid.  Two known gaps are
pinned as strict xfails: two ``Certified`` grids whose Betti pair is not
the field's, and two fields whose zeros ``experiments._find_zeros``
undercounts.
"""

import numpy as np
import pytest

from nodalcheck.admissibility import validate_1d
from nodalcheck.cubical import sign_grid
from nodalcheck.experiments import _find_zeros, default_zero_tol
from nodalcheck.fields import (CoeffSeq1D, Realization1D, derive_seed,
                               draw_realization, evaluate_grid_1d,
                               trig_coeffs)
from nodalcheck.homology import betti_pair

from oracles import AMBIGUOUS, betti_1d, zeros_1d

L = 2 * np.pi


def cosine_plus(t):
    """u = t + cos(x) on [0, 2 pi]."""
    c = CoeffSeq1D(L=L, a=np.array([1.0, 1.0]))
    return Realization1D(coeffs=c, g=np.array([t, 0.0, 1.0]), seed=0)


def grid_pair(r, M) -> tuple:
    """The b0 pair of the M-grid's two cubical sets."""
    plus, minus = betti_pair(sign_grid(r, M, default_zero_tol(r.coeffs)))
    return plus.b0, minus.b0


@pytest.mark.parametrize("N, seeds", [(5, 400), (20, 400), (50, 400),
                                      (100, 50)])
def test_zero_counts_match_a_fine_grid(N, seeds):
    """As many zeros as sign changes of u on 2000 N grid points."""
    counts = []
    for seed in range(seeds):
        r = draw_realization(trig_coeffs(1, N), seed)
        v = evaluate_grid_1d(r, 2000 * N)
        changes = np.count_nonzero(np.signbit(v[1:]) != np.signbit(v[:-1]))
        zeros = zeros_1d(r)
        assert not isinstance(zeros, str), seed
        assert zeros.size == changes, seed
        assert np.all((0 <= zeros) & (zeros < L))
        counts.append(zeros.size)
    assert min(counts) < max(counts)


def zero_stats_field(t):
    """Trial t of ``zero_stats(100, ..., seed=1)``."""
    return draw_realization(trig_coeffs(1, 100), derive_seed(1, t))


def test_zero_stats_trials_with_close_pairs():
    assert [zeros_1d(zero_stats_field(t)).size for t in (38, 146)] == [106,
                                                                        120]


@pytest.mark.xfail(strict=True, reason="_find_zeros brackets zeros on a "
                   "50 N grid and misses a close pair in each: it counts "
                   "104 and 118 zeros")
@pytest.mark.parametrize("t", [38, 146])
def test_find_zeros_counts_every_zero(t):
    r = zero_stats_field(t)
    assert _find_zeros(r, 100).size == zeros_1d(r).size


@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_planted_close_pair(eps):
    """1 - eps + cos(x) has two zeros pi -+ arccos(1 - eps), 2.8e-5 apart
    at eps = 1e-10, far below the step of any grid here."""
    r = cosine_plus(1 - eps)
    delta = np.arccos(1 - eps)
    assert np.allclose(zeros_1d(r), [np.pi - delta, np.pi + delta],
                       rtol=0, atol=1e-9)
    assert betti_1d(r) == (2, 1)


def test_planted_double_zero_is_ambiguous():
    """1 + cos(x) touches zero at pi without changing sign; the two roots
    of (z + 1)^2 / 2 are never counted."""
    assert zeros_1d(cosine_plus(1.0)) == AMBIGUOUS
    assert betti_1d(cosine_plus(1.0)) == AMBIGUOUS


def test_near_circle_roots_settled_by_signs():
    """1 + 1e-8 + cos(x) has no zero, and its root pair lies 1.4e-4 off
    the circle: the signs around the roots' angle settle it.  At
    1 + 1e-14 the pair lies within 1e-6 of the circle, and the sign of u
    does not change between the two zeros it would give."""
    assert list(zeros_1d(cosine_plus(1 + 1e-8))) == []
    assert betti_1d(cosine_plus(1 + 1e-8)) == (1, 0)
    assert zeros_1d(cosine_plus(1 + 1e-14)) == AMBIGUOUS


def test_betti_of_one_sign_and_of_a_zero_at_the_ends():
    """cos(x) is positive at both ends of [0, 2 pi] and negative between,
    so {u >= 0} has two components; -cos(x) one, in the middle."""
    assert betti_1d(cosine_plus(0.0)) == (2, 1)
    flipped = Realization1D(coeffs=cosine_plus(0.0).coeffs,
                            g=np.array([0.0, 0.0, -1.0]), seed=0)
    assert betti_1d(flipped) == (1, 2)
    assert betti_1d(cosine_plus(2.0)) == (1, 0)


# (trial, the M = 18 grid's b0 pair, the oracle's) for master seed 11, N = 5
CERTIFIED_GAPS = [(19276, (2, 3), (3, 4)), (25326, (3, 4), (4, 5))]


def gap_field(trial):
    return draw_realization(trig_coeffs(1, 5), derive_seed(11, trial))


@pytest.mark.parametrize("trial, grid, true", CERTIFIED_GAPS)
def test_certified_gaps_pinned(trial, grid, true):
    """Two fields that ``validate_1d`` certifies at M = 18, D = 6 whose
    grids miss a component of each set."""
    r = gap_field(trial)
    assert validate_1d(r, 18, 6, default_zero_tol(r.coeffs)).certified
    assert (grid_pair(r, 18), betti_1d(r)) == (grid, true)


@pytest.mark.xfail(strict=True, reason="Certified means no violation down "
                   "to depth D = 6; these two fields hide a close pair of "
                   "zeros below it")
@pytest.mark.parametrize("trial", [t for t, _, _ in CERTIFIED_GAPS])
def test_certified_grid_has_the_true_pair(trial):
    r = gap_field(trial)
    assert grid_pair(r, 18) == betti_1d(r)
