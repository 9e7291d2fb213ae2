"""The fused 2D path against the slow reference paths kept in oracles.py.

The library evaluates the field as one banded block product, classifies
signs band by band, and sweeps each dyadic level through one stencil-code
array.  Every outcome must equal the straightforward formulation's, field
for field, on many seeds, at the experiment's zero tolerance and at 0.
"""

import numpy as np
import pytest

import oracles
from nodalcheck.admissibility import (b_admissible, default_patterns,
                                      i_admissible, validate_2d)
from nodalcheck.cubical import sign_grid
from nodalcheck.experiments import default_zero_tol
from nodalcheck.fields import (Realization2D, draw_realization,
                               evaluate_grid_2d, trig_coeffs)
from nodalcheck.homology import connected_components

from test_homology import cosine_2d

COLL = default_patterns()
SEEDS = range(200)
SIZES = ((3, 2), (5, 3), (8, 4), (3, 4), (8, 1), (5, 0))  # (M, D)


def _realizations():
    """Degree 2..4 random fields by seed, plus fields with planted zero flags."""
    for seed in SEEDS:
        yield seed, draw_realization(trig_coeffs(2, 2 + seed % 3), seed)
    # cos(x1): rounding-level values at x1 = pi/2, 3 pi/2 on every grid
    yield "cosine", cosine_2d()
    coeffs = trig_coeffs(2, 2)
    for label, value in (("zero", 0.0), ("nan", np.nan)):
        yield label, Realization2D(coeffs=coeffs, g=np.full((3, 3, 4), value),
                                   seed=0)


def _tolerances(r):
    return (default_zero_tol(r.coeffs), 0.0)


def test_validate_2d_matches_oracle():
    for k, (seed, r) in enumerate(_realizations()):
        M, D = SIZES[k % len(SIZES)]
        for zero_tol in _tolerances(r):
            for collect_all in (False, True):
                got = validate_2d(r, M, D, zero_tol, collect_all)
                want = oracles.validate_2d(r, M, D, zero_tol, collect_all,
                                           COLL)
                assert got == want, (seed, M, D, zero_tol, collect_all)


def test_square_checks_match_oracle():
    for k, (seed, r) in enumerate(_realizations()):
        rng = np.random.default_rng(k)
        L = r.coeffs.L
        delta = rng.uniform(0.2, 1.5)
        corner = tuple(rng.uniform(delta / 2, L - 1.5 * delta, size=2))
        D = int(rng.integers(0, 5))
        for zero_tol in _tolerances(r):
            for collect_all in (False, True):
                got = b_admissible(r, (corner, delta), D, zero_tol,
                                   collect_all)
                want = oracles.square_outcome(r, (corner, delta), D, COLL.B,
                                              zero_tol, False, collect_all)
                assert got == want, ("B", seed, D, zero_tol, collect_all)
                got = i_admissible(r, (corner, delta), D, zero_tol,
                                   collect_all)
                want = oracles.square_outcome(r, (corner, delta), D, COLL.I,
                                              zero_tol, True, collect_all)
                assert got == want, ("I", seed, D, zero_tol, collect_all)


def test_planted_zeros_reach_the_outcome():
    """The cosine field above is Degenerate at the experiment tolerance."""
    r = cosine_2d()
    out = validate_2d(r, 8, 4, default_zero_tol(r.coeffs))
    assert out.status == "Degenerate"
    assert out.zero_flag_count == 2 * (8 * 32 + 1)  # rows x1 = pi/2, 3 pi/2


def test_sign_grid_matches_oracle():
    for seed, r in _realizations():
        for M in (5, 16, 33):
            xs = np.arange(M + 1) * (r.coeffs.L / M)
            values = oracles.evaluate_grid_2d(r, xs, xs)
            for zero_tol in _tolerances(r):
                want, _ = oracles.sign_array(values, zero_tol)
                got = sign_grid(r, M, zero_tol).signs
                assert np.array_equal(got, want), (seed, M, zero_tol)


@pytest.mark.parametrize("seed", range(5))
def test_evaluators_match_oracle(seed):
    r = draw_realization(trig_coeffs(2, 4), seed)
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(0, r.coeffs.L, size=(2, 37))
    scale = np.abs(r.coeffs.a[:, :, None] * r.g).sum()
    assert np.allclose(evaluate_grid_2d(r, xs, ys),
                       oracles.evaluate_grid_2d(r, xs, ys),
                       rtol=0, atol=1e-14 * scale)
    pts = np.stack([xs, ys], axis=-1)
    assert np.allclose(r(pts), oracles.eval_2d_einsum(r, xs, ys),
                       rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("seed", range(20))
def test_connected_components_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((int(rng.integers(1, 40)), int(rng.integers(1, 40))))
    mask = mask < rng.uniform(0.2, 0.7)
    assert connected_components(mask) == oracles.connected_components_runs(mask)
