import dataclasses
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
                               draw_realization, evaluate,
                               evaluate_grid_1d, evaluate_grid_2d,
                               realization_from_json, realization_to_json,
                               sign_definite_2d, spectral_moments,
                               trig_coeffs, window_classifier_2d)


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
        for x in (1.5, -0.1, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError):
                r(x)
        r2 = draw_realization(trig_coeffs(2, 3), 3)
        for x in ((-0.1, 1.0), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError):
                r2(x)

    def test_grid_1d_exact_values(self):
        """The inverse FFT returns the true values of cos(2 pi x) at the
        quarter periods, where cos(pi / 2) returns 6.1e-17."""
        assert evaluate_grid_1d(cosine_1d(), 4).tolist() == [1, 0, -1, 0, 1]
        assert cosine_1d()(0.25) != 0.0
        with pytest.raises(ValueError):
            evaluate_grid_1d(cosine_1d(), 0)

    def test_grid_matches_pointwise(self):
        c = trig_coeffs(2, 3)
        r = draw_realization(c, 11)
        xs = np.linspace(0, c.L, 150)  # several evaluation bands
        ys = np.linspace(0, c.L, 5)
        grid = evaluate_grid_2d(r, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert grid[i, j] == pytest.approx(r((x, y)), rel=1e-12)


def jets(r, x1, x2):
    """u, du/dx1 and du/dx2 at the point (x1, x2)."""
    ((_, u, d1, d2),) = fields._jet_bands(r, np.array([x1]), np.array([x2]))
    return u[0, 0], d1[0, 0], d2[0, 0]


def nan_2d():
    return Realization2D(coeffs=trig_coeffs(2, 2), g=np.full((3, 3, 4), np.nan),
                         seed=0)


class TestTaylorBound:
    """The derivative block and the global Hessian bounds behind pruning."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10**6), st.floats(0.05, 0.95),
           st.floats(0.05, 0.95))
    def test_derivative_matches_finite_differences(self, N, seed, f1, f2):
        r = draw_realization(trig_coeffs(2, N), seed)
        L = r.coeffs.L
        x1, x2, h = f1 * L, f2 * L, 1e-5 * L
        u, d1, d2 = jets(r, x1, x2)
        fd1 = (r((x1 + h, x2)) - r((x1 - h, x2))) / (2 * h)
        fd2 = (r((x1, x2 + h)) - r((x1, x2 - h))) / (2 * h)
        H11, H12, H22 = r.hessian_bounds
        tol = 1e-6 * (H11 + H12 + H22)  # h^2 times a third-derivative scale
        assert u == pytest.approx(r((x1, x2)), abs=1e-12)
        assert abs(d1 - fd1) <= tol and abs(d2 - fd2) <= tol

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10**6), st.floats(0, 1),
           st.floats(0, 1), st.floats(-1, 1), st.floats(-1, 1),
           st.floats(1e-4, 0.5))
    def test_taylor_remainder_bound(self, N, seed, f1, f2, s1, s2, w):
        r = draw_realization(trig_coeffs(2, N), seed)
        L = r.coeffs.L
        c1, c2 = w + f1 * (L - 2 * w), w + f2 * (L - 2 * w)
        d1, d2 = s1 * w, s2 * w  # |d|_inf <= w, c + d inside [0, L]^2
        u, g1, g2 = jets(r, c1, c2)
        H11, H12, H22 = r.hessian_bounds
        remainder = r((c1 + d1, c2 + d2)) - u - g1 * d1 - g2 * d2
        bound = 0.5 * w * w * (H11 + 2 * H12 + H22)
        assert abs(remainder) <= bound + 2 * r.rounding_bound

    def test_rounding_margin(self):
        """u = 1 with zero gradient and Hessian: decided only when 1 exceeds
        zero_tol by more than twice the rounding bound."""
        g = np.zeros((3, 3, 4))
        g[0, 0, 0] = 1.0
        c = CoeffSeq2D(L=2 * np.pi, a=np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]]))
        r = Realization2D(coeffs=c, g=g, seed=0)
        xs = np.linspace(0, c.L, 5)
        eps = r.rounding_bound
        assert (sign_definite_2d(r, xs, xs, 0.5, 1 - 3 * eps) == 1).all()
        assert not sign_definite_2d(r, xs, xs, 0.5, 1 - eps).any()

    def test_nan_field_never_decided(self):
        r = nan_2d()
        xs = np.linspace(0, r.coeffs.L, 70)  # two bands
        for radius in (0.0, 1e-3, 0.1):
            sign = sign_definite_2d(r, xs, xs, radius, 0.0)
            assert sign.shape == (70, 70) and not sign.any()

    @pytest.mark.parametrize("seed", range(4))
    def test_decided_points_keep_their_sign(self, seed):
        """Every fine point within the radius of a decided centre is
        classified with the centre's sign and is not zero-flagged."""
        r = draw_realization(trig_coeffs(2, 3), seed)
        G, S = 512, 8
        xs = np.arange(G + 1) * (r.coeffs.L / G)
        centres = xs[S:-S:S]
        own, halo = (sign_definite_2d(r, centres, centres,
                                      m * S / 2 * r.coeffs.L / G, 1e-3)
                     for m in (1, 2))
        # a sign proven with the halo is proven on the own square too
        assert np.array_equal(own[halo != 0], halo[halo != 0])
        assert (halo == 0).any() and (own != halo).any() and halo.any()
        for m, decided in ((1, own), (2, halo)):
            a, b = np.nonzero(decided)
            classify = window_classifier_2d(r, xs, xs, m * S + 1, 1e-3)
            half = m * S // 2
            positive, flagged = classify(S + a * S - half, S + b * S - half)
            assert not flagged.any()
            sign = (decided[a, b] > 0)[:, None, None]
            assert np.array_equal(positive, np.broadcast_to(sign, positive.shape))

    def test_window_classifier_matches_grid(self):
        r = draw_realization(trig_coeffs(2, 4), 3)
        xs = np.linspace(0, r.coeffs.L, 40)
        i, j = np.array([0, 5, 5, 37]), np.array([3, 0, 20, 37])
        positive, flagged = window_classifier_2d(r, xs, xs, 3, 0.5)(i, j)
        values = evaluate_grid_2d(r, xs, xs)
        for w in range(len(i)):
            block = values[i[w]:i[w] + 3, j[w]:j[w] + 3]
            assert np.array_equal(positive[w], block > 0.5)
            assert np.array_equal(flagged[w], np.abs(block) <= 0.5)


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


def test_realization_constants_cached():
    """The per-realization constants are built once, on first use, and
    are read-only: every access returns the same object."""
    r1 = draw_realization(trig_coeffs(1, 4), 5)
    r2 = draw_realization(trig_coeffs(2, 3), 5)
    for r, names in ((r1, ("spectrum",)),
                     (r2, ("weights", "hessian_bounds", "rounding_bound"))):
        for name in names:
            assert getattr(r, name) is getattr(r, name), name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, None)
    for array in (r1.spectrum, r2.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    # u(0) = Re sum c_k and u(0, 0) = sum of the cos*cos block of W
    assert r1.spectrum.real.sum() == pytest.approx(evaluate(r1, 0.0))
    K = r2.coeffs.K
    assert r2.weights[:K + 1, :K + 1].sum() == pytest.approx(
        evaluate(r2, (0.0, 0.0)))
