import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcheck import fields
from nodalcheck.fields import (CoeffSeq1D, CoeffSeq2D, Realization1D,
                               Realization2D, coeffs_from_json,
                               coeffs_to_json, covariance, derive_seed,
                               draw_realization, evaluate, evaluate_grid_2d,
                               realization_from_json, realization_to_json,
                               spectral_moments, trig_coeffs)


def cosine_1d(L=1.0):
    """u(x) = cos(2 pi x / L) as a Realization1D."""
    coeffs = CoeffSeq1D(L=L, a=np.array([0.0, 1.0, 1.0]))
    g = np.zeros(5)
    g[2] = 1.0  # cos coefficient of k = 1
    return Realization1D(coeffs=coeffs, g=g, seed=0)


class TestCoeffSeq:
    def test_trig_1d_example(self):
        c = trig_coeffs(1, 3)
        assert np.array_equal(c.a, [0.0, 1.0, 1.0, 1.0])
        assert c.L == 2 * math.pi
        assert c.K == 3

    def test_trig_2d_example(self):
        c = trig_coeffs(2, 2)
        expected = np.zeros((3, 3))
        expected[1:, 1:] = 1.0
        assert np.array_equal(c.a, expected)

    def test_trig_degree_too_small(self):
        with pytest.raises(ValueError):
            trig_coeffs(1, 1)

    def test_1d_needs_two_nonzero(self):
        with pytest.raises(ValueError):
            CoeffSeq1D(L=1.0, a=np.array([0.0, 1.0]))

    def test_2d_nondegeneracy(self):
        a = np.zeros((3, 3))
        a[1, 1] = 1.0
        with pytest.raises(ValueError):
            CoeffSeq2D(L=1.0, a=a)
        a[2, 2] = 1.0  # same k^2+l^2 pattern is still degenerate: 2 vs 8 ok
        CoeffSeq2D(L=1.0, a=a)


class TestDraw:
    def test_deterministic(self):
        c = trig_coeffs(1, 4)
        r1 = draw_realization(c, 123)
        r2 = draw_realization(c, 123)
        assert np.array_equal(r1.g, r2.g)
        assert not np.array_equal(r1.g, draw_realization(c, 124).g)

    def test_substreams_order_free(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_gaussian_moments(self):
        # 3 sigma bands for mean and variance of 1e6 standard normals
        c = CoeffSeq1D(L=1.0, a=np.ones(500_001))
        g = draw_realization(c, 7).g
        assert g.size >= 10**6
        assert abs(g.mean()) < 0.004
        assert 0.994 < g.var() < 1.006


class TestEvaluate:
    def test_zero_draw(self):
        c = trig_coeffs(1, 3)
        r = Realization1D(coeffs=c, g=np.zeros(7), seed=0)
        assert r(0.3) == 0.0

    def test_single_cosine(self):
        r = cosine_1d()
        assert r(0.0) == pytest.approx(1.0)
        assert r(0.5) == pytest.approx(-1.0)
        assert r(0.25) == pytest.approx(0.0, abs=1e-15)

    def test_periodicity(self):
        c = trig_coeffs(1, 5)
        r = draw_realization(c, 3)
        assert abs(r(0.0) - r(c.L)) < 1e-12 * max(1.0, abs(r(0.0)))
        c2 = trig_coeffs(2, 3)
        r2 = draw_realization(c2, 3)
        assert r2((0.0, 1.0)) == pytest.approx(r2((c2.L, 1.0)), rel=1e-12)

    def test_domain_check(self):
        r = cosine_1d()
        with pytest.raises(ValueError):
            r(1.5)
        with pytest.raises(ValueError):
            r(-0.1)

    def test_grid_matches_pointwise(self):
        c = trig_coeffs(2, 3)
        r = draw_realization(c, 11)
        xs = np.linspace(0, c.L, 150)  # several evaluation bands
        ys = np.linspace(0, c.L, 5)
        grid = evaluate_grid_2d(r, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert grid[i, j] == pytest.approx(r((x, y)), rel=1e-12)


class TestMoments:
    def test_trig_1d_values(self):
        m = spectral_moments(trig_coeffs(1, 3))
        assert (m[0], m[1], m[2], m[3]) == (3.0, 14.0, 98.0, 794.0)

    def test_a0_is_degree(self):
        for N in (2, 7, 31):
            assert spectral_moments(trig_coeffs(1, N))[0] == N

    def test_trig_2d_values(self):
        m = spectral_moments(trig_coeffs(2, 3))
        assert m[0, 0] == 9.0
        assert m[1, 0] == m[0, 1] == 42.0
        assert m[1, 1] == 196.0
        assert m[2, 0] == m[0, 2] == 294.0

    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=8))
    def test_brute_force_1d(self, coeffs):
        coeffs = [1.0, 0.5] + coeffs  # ensure validity
        c = CoeffSeq1D(L=1.0, a=np.array(coeffs))
        m = spectral_moments(c)
        for ell in range(4):
            brute = sum(k ** (2 * ell) * a * a for k, a in enumerate(coeffs))
            assert m[ell] == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_brute_force_2d(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        c = CoeffSeq2D(L=1.0, a=a)
        m = spectral_moments(c)
        for p in range(3):
            for q in range(3 - p):
                brute = sum(k ** (2 * p) * l ** (2 * q) * a[k, l] ** 2
                            for k in range(4) for l in range(4))
                assert m[p, q] == pytest.approx(brute, rel=1e-12)


class TestCovariance:
    def test_at_zero(self):
        c = trig_coeffs(1, 3)
        assert covariance(c, 0.0) == spectral_moments(c)[0]
        c2 = trig_coeffs(2, 3)
        assert covariance(c2, (0.0, 0.0)) == spectral_moments(c2)[0, 0]

    @given(st.floats(-10, 10))
    def test_even(self, d):
        c = trig_coeffs(1, 4)
        assert covariance(c, d) == pytest.approx(covariance(c, -d), rel=1e-12)

    def test_even_2d(self):
        c = trig_coeffs(2, 3)
        for d in ((0.3, -0.7), (1.1, 0.2)):
            assert covariance(c, d) == pytest.approx(
                covariance(c, (-d[0], -d[1])), rel=1e-12)

    def test_taylor_expansion(self):
        # r(d) = A0 - A1 d^2/2 + A2 d^4/24 + O(d^6) for L = 2 pi
        c = trig_coeffs(1, 3)
        m = spectral_moments(c)

        def remainder(d):
            return covariance(c, d) - (m[0] - m[1] * d * d / 2
                                       + m[2] * d**4 / 24)

        d = 1e-2
        ratio = remainder(d) / d**6
        # the d^6 Taylor coefficient is -A3/720
        assert ratio == pytest.approx(-m[3] / 720.0, rel=2e-2)
        # at 1e-3 the remainder is below float cancellation noise
        assert abs(remainder(1e-3)) < 1e-14 * m[0]


class TestStatistics:
    def test_stationarity_proxy(self):
        c = trig_coeffs(1, 3)
        T = 10_000
        rng = np.random.default_rng(5)
        pairs = rng.uniform(0, c.L, size=(10, 2))
        vals = np.empty((T, 10, 2))
        for t in range(T):
            r = draw_realization(c, derive_seed(99, t))
            vals[t, :, 0] = r(pairs[:, 0])
            vals[t, :, 1] = r(pairs[:, 1])
        prods = vals[:, :, 0] * vals[:, :, 1]
        emp = prods.mean(axis=0)
        se = prods.std(axis=0) / math.sqrt(T)
        expect = covariance(c, pairs[:, 0] - pairs[:, 1])
        assert np.all(np.abs(emp - expect) < 5 * se)

    def test_pointwise_variance(self):
        c = trig_coeffs(1, 3)
        T = 10_000
        x = 1.234
        vals = np.array([draw_realization(c, derive_seed(42, t))(x)
                         for t in range(T)])
        var = vals.var()
        se = covariance(c, 0.0) * math.sqrt(2.0 / T)
        assert abs(var - covariance(c, 0.0)) < 3 * se


class TestJson:
    def test_coeffs_roundtrip(self):
        for c in (trig_coeffs(1, 4), trig_coeffs(2, 3)):
            text = coeffs_to_json(c)
            payload = json.loads(text)
            assert set(payload) == {"dim", "L", "K", "a"}
            back = coeffs_from_json(text)
            assert back.L == c.L
            assert np.array_equal(back.a, c.a)

    def test_realization_roundtrip(self):
        for c in (trig_coeffs(1, 4), trig_coeffs(2, 3)):
            r = draw_realization(c, 17)
            back = realization_from_json(realization_to_json(r))
            assert back.seed == 17
            assert np.array_equal(back.g, r.g)
            if c.dim == 1:
                assert back(1.0) == r(1.0)
            else:
                assert back((1.0, 2.0)) == r((1.0, 2.0))


@settings(max_examples=20)
@given(st.integers(0, 2**63 - 1), st.floats(0, 1))
def test_evaluation_deterministic(seed, frac):
    c = trig_coeffs(1, 3)
    r1 = draw_realization(c, seed)
    r2 = draw_realization(c, seed)
    x = frac * c.L
    assert evaluate(r1, x) == evaluate(r2, x)
