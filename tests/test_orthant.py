import math

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from nodalcheck.fields import spectral_moments, trig_coeffs
from nodalcheck.orthant import (PATTERNS, CovMatrix, OrthantQuery,
                                SpectralExpansion, StencilPattern,
                                _best_ordering, asymptotic_functional,
                                expansion_check, expected_expansion,
                                orthant_exact_small, orthant_numeric,
                                pattern_cov, prop41_limit)
from oracles import orthant_genz, orthant_mc

L = 2 * math.pi
COEFFS = trig_coeffs(1, 3)
COEFFS_2D = trig_coeffs(2, 3)


def _random_cov(rng, n):
    a = rng.normal(size=(n, n + 2))
    return CovMatrix(n=n, entries=a @ a.T + 0.1 * np.eye(n))


class TestExact:
    def test_half(self):
        q = OrthantQuery(signs=(1,), cov=CovMatrix(1, np.array([[2.0]])))
        assert orthant_exact_small(q) == 0.5

    def test_quadrant_independent(self):
        cov = CovMatrix(2, np.eye(2))
        q = OrthantQuery(signs=(1, 1), cov=cov)
        assert orthant_exact_small(q) == pytest.approx(0.25, rel=1e-14)

    def test_quadrant_correlated(self):
        cov = CovMatrix(2, np.array([[1.0, 0.5], [0.5, 1.0]]))
        q = OrthantQuery(signs=(1, 1), cov=cov)
        # 1/4 + arcsin(1/2) / (2 pi) = 1/3
        assert orthant_exact_small(q) == pytest.approx(1 / 3, rel=1e-13)

    def test_octant_identity(self):
        q = OrthantQuery(signs=(1, 1, 1), cov=CovMatrix(3, np.eye(3)))
        assert orthant_exact_small(q) == pytest.approx(0.125, rel=1e-13)

    def test_sign_flip(self):
        cov = CovMatrix(2, np.array([[1.0, 0.5], [0.5, 1.0]]))
        p_pp = orthant_exact_small(OrthantQuery((1, 1), cov))
        p_pm = orthant_exact_small(OrthantQuery((1, -1), cov))
        assert p_pp + p_pm == pytest.approx(0.5, rel=1e-13)


class TestMonteCarlo:
    def test_one_dim(self):
        q = OrthantQuery(signs=(1,), cov=CovMatrix(1, np.array([[3.0]])))
        est, se = orthant_mc(q, 200_000, seed=1)
        assert abs(est - 0.5) < 4 * se

    def test_matches_exact(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            n = 2 if trial % 2 == 0 else 3
            cov = _random_cov(rng, n)
            signs = tuple(rng.choice([-1, 1], n))
            q = OrthantQuery(signs=signs, cov=cov)
            exact = orthant_exact_small(q)
            est, se = orthant_mc(q, 100_000, seed=trial)
            assert abs(est - exact) < 4 * max(se, 1e-4)


class TestImportanceSampler:
    def test_matches_exact_benign(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            cov = _random_cov(rng, 3)
            signs = tuple(rng.choice([-1, 1], 3))
            q = OrthantQuery(signs=signs, cov=cov)
            exact = orthant_exact_small(q)
            est, se = orthant_numeric(q, samples=200_000, seed=trial)
            assert abs(est - exact) < 5 * max(se, 1e-5)

    def test_small_delta_crossover(self):
        # near-degenerate covariance where the plain cdf routine fails
        pat = PATTERNS["crossover-1d"]
        cov = pattern_cov(COEFFS, L, pat.points(0.01))
        q = OrthantQuery(signs=pat.signs, cov=cov)
        exact = orthant_exact_small(q)
        est, se = orthant_numeric(q, samples=400_000, seed=3)
        assert exact > 0
        assert abs(est - exact) < 5 * se

    def test_genz_ok_at_moderate_delta(self):
        pat = PATTERNS["crossover-1d"]
        cov = pattern_cov(COEFFS, L, pat.points(0.5))
        q = OrthantQuery(signs=pat.signs, cov=cov)
        exact = orthant_exact_small(q)
        assert orthant_genz(q) == pytest.approx(exact, rel=1e-3)


class TestLimit:
    def test_one_point(self):
        assert prop41_limit((1,), np.array([1.0])) == 0.5

    def test_crossover(self):
        v1 = np.array([1.0, -2.0, 1.0]) / math.sqrt(6)
        # 3 sqrt(6) / (8 pi)
        assert prop41_limit((1, -1, 1), v1) == pytest.approx(
            3 * math.sqrt(6) / (8 * math.pi), rel=1e-12)

    def test_square(self):
        v1 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        assert prop41_limit((1, -1, 1, -1), v1) == pytest.approx(
            4 / (3 * math.pi**2), rel=1e-12)

    def test_five_point(self):
        v1 = np.array([1, 1, 1, 1, -4.0])
        v1 /= np.linalg.norm(v1)
        assert prop41_limit((1, 1, 1, 1, -1), v1) == pytest.approx(
            0.70800, abs=5e-5)

    def test_sign_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prop41_limit((1, 1, 1), np.array([1.0, -2.0, 1.0]) / math.sqrt(6))

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            prop41_limit((1, -1, 1), np.array([1.0, 0.0, -1.0]) / math.sqrt(2))


class TestPatternCov:
    def test_single_point_is_a0(self):
        m = spectral_moments(COEFFS)
        cov = pattern_cov(COEFFS, L, np.array([[0.0]]))
        assert cov.entries[0, 0] == pytest.approx(m[0], rel=1e-12)

    def test_crossover_structure(self):
        from nodalcheck.fields import covariance
        d = 0.3
        pts = PATTERNS["crossover-1d"].points(d)
        cov = pattern_cov(COEFFS, L, pts)
        r0 = covariance(COEFFS, 0.0)
        rh = covariance(COEFFS, d / 2)
        rd = covariance(COEFFS, d)
        expect = np.array([[r0, rh, rd], [rh, r0, rh], [rd, rh, r0]])
        assert np.allclose(cov.entries, expect, rtol=1e-12)

    def test_translation_invariant(self):
        pts = PATTERNS["square"].points(0.4)
        a = pattern_cov(COEFFS_2D, L, pts)
        b = pattern_cov(COEFFS_2D, L, pts + np.array([1.1, 2.3]))
        assert np.allclose(a.entries, b.entries, rtol=1e-12)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            CovMatrix(2, np.array([[1.0, 0.2], [0.3, 1.0]]))


class TestRegistry:
    def test_all_patterns_wellformed(self):
        for name, pat in PATTERNS.items():
            assert pat.name == name
            assert len(pat.offsets) == len(pat.signs) == pat.n
            if pat.dim == 2:
                assert all(len(p) == 2 for p in pat.offsets)
            assert abs(np.linalg.norm(pat.v1_limit) - 1) < 1e-12
            assert prop41_limit(pat.signs, np.asarray(pat.v1_limit)) > 0

    def test_expected_names(self):
        expect = {"crossover-1d", "line-x", "line-y", "square",
                  "half-square", "half-slant-x", "half-slant-y",
                  "five-point"}
        assert expect <= set(PATTERNS)

    def test_no_duplicate_stencils(self):
        """No two names register the same signed points, in any order:
        the orthant event depends on nothing else."""
        stencils = {}
        for name, pat in PATTERNS.items():
            key = (pat.dim, frozenset(zip(pat.offsets, pat.signs)))
            assert key not in stencils, (name, stencils.get(key))
            stencils[key] = name

    def test_points_scaling(self):
        pat = PATTERNS["square"]
        assert np.allclose(np.asarray(pat.points(2.0)),
                           2.0 * np.asarray(pat.points(1.0)))


class TestExpansion:
    def test_crossover_full(self):
        pat = PATTERNS["crossover-1d"]
        expected = expected_expansion("crossover-1d", COEFFS)
        deltas = [0.1 * 2.0**-j for j in range(6)]
        rep = expansion_check(COEFFS, L, pat, deltas, expected)
        assert rep.exponents_ok
        assert rep.coefficient_ok
        assert rep.v1_ok
        assert rep.ok
        # determinant coefficient (R1/64)(R0 R2 - R1^2) for N = 3
        assert rep.det_coefficient == pytest.approx(21.4375, rel=0.02)

    def test_line_x_coefficient(self):
        pat = PATTERNS["line-x"]
        expected = expected_expansion("line-x", COEFFS_2D)
        deltas = [0.1 * 2.0**-j for j in range(6)]
        rep = expansion_check(COEFFS_2D, L, pat, deltas, expected)
        assert rep.ok
        assert rep.det_coefficient == pytest.approx(578.8125, rel=0.02)

    def test_square_exponents(self):
        pat = PATTERNS["square"]
        expected = expected_expansion("square", COEFFS_2D)
        assert expected.det_exponent == 8
        assert sorted(expected.eigen_exponents, reverse=True) == [4, 2, 2, 0]
        deltas = [0.1 * 2.0**-j for j in range(5)]
        rep = expansion_check(COEFFS_2D, L, pat, deltas, expected)
        assert rep.exponents_ok
        assert rep.v1_ok

    def test_five_point_exponents(self):
        pat = PATTERNS["five-point"]
        expected = expected_expansion("five-point", COEFFS_2D)
        assert expected.det_exponent == 12
        assert sorted(expected.eigen_exponents, reverse=True) == [4, 4, 2,
                                                                  2, 0]
        deltas = [0.1 * 2.0**-j for j in range(5)]
        rep = expansion_check(COEFFS_2D, L, pat, deltas, expected)
        assert rep.exponents_ok
        assert rep.v1_ok

    def test_eigen_slopes_sum_to_det_slope(self):
        pat = PATTERNS["half-square"]
        expected = expected_expansion("half-square", COEFFS_2D)
        deltas = [0.1 * 2.0**-j for j in range(5)]
        rep = expansion_check(COEFFS_2D, L, pat, deltas, expected)
        assert sum(rep.eigen_slopes) == pytest.approx(rep.det_slope, abs=0.2)

    def test_scale_invariance_of_slopes(self):
        pat = PATTERNS["crossover-1d"]
        deltas = [0.1 * 2.0**-j for j in range(5)]
        slopes = []
        for scale in (0.1, 10.0):
            from nodalcheck.fields import CoeffSeq1D
            c = CoeffSeq1D(L=L, a=scale * np.asarray(COEFFS.a))
            rep = expansion_check(c, L, pat,
                                  deltas, expected_expansion(
                                      "crossover-1d", c))
            slopes.append(rep.det_slope)
        assert slopes[0] == pytest.approx(slopes[1], abs=1e-6)


class TestBranchMatching:
    """Branches are matched by the best of the n! orderings; the
    assignment solver, which finds the same optimum, is the reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_best_ordering_matches_assignment_solver(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            Q, _r = np.linalg.qr(rng.normal(size=(n, n)))
            Q2, _r = np.linalg.qr(rng.normal(size=(n, n)))
            overlap = np.abs(Q.T @ Q2)
            rows, cols = linear_sum_assignment(-overlap)
            assert rows.tolist() == list(range(n))
            assert _best_ordering(overlap).tolist() == cols.tolist()

    def test_nine_point_pattern_rejected(self):
        offsets = tuple(j / 8 for j in range(9))
        pat = StencilPattern(name="nine", dim=1, offsets=offsets,
                             signs=(1, -1) * 4 + (1,),
                             v1_limit=(1.0,) + (0.0,) * 8)
        expected = SpectralExpansion(0, (0,) * 9, pat.v1_limit)
        with pytest.raises(ValueError, match="9! orderings"):
            expansion_check(COEFFS, L, pat, [0.1, 0.05], expected)


class TestFunctional:
    def test_crossover_at_small_delta(self):
        val = asymptotic_functional(COEFFS, L, PATTERNS["crossover-1d"],
                                    delta=1e-2)
        limit = 3 * math.sqrt(6) / (8 * math.pi)
        assert val == pytest.approx(limit, rel=0.05)

    def test_five_point_below_limit_envelope(self):
        pat = PATTERNS["five-point"]
        val = asymptotic_functional(COEFFS_2D, L, pat, delta=0.05,
                                    samples=400_000, seed=2)
        limit = prop41_limit(pat.signs, pat.v1_limit)
        assert limit == pytest.approx(0.70800, abs=5e-5)
        assert val <= 1.05 * limit


def test_spectral_expansion_validation():
    from nodalcheck.orthant import SpectralExpansion
    with pytest.raises(ValueError):
        SpectralExpansion(det_exponent=4, eigen_exponents=(2, 1),
                          v1_limit=(1.0, 0.0))
    with pytest.raises(ValueError):
        SpectralExpansion(det_exponent=4, eigen_exponents=(2, 2),
                          v1_limit=(1.0, 1.0))
