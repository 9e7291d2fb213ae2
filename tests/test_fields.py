import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcheck import admissibility as adm
from nodalcheck import fields
from nodalcheck.fields import (CoeffSeq1D, CoeffSeq2D, Realization1D,
                               Realization2D, coeffs_from_json,
                               coeffs_to_json, covariance, derive_seed,
                               draw_realization, evaluate,
                               evaluate_grid_1d, evaluate_grid_2d,
                               realization_from_json, realization_to_json,
                               spectral_moments, trig_coeffs)
from nodalcheck.experiments import default_zero_tol


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

    def test_trig_cached(self):
        """One frozen, read-only object per (dim, N), so its moments are
        computed once per run."""
        for dim, N in ((1, 10), (2, 3)):
            c = trig_coeffs(dim, N)
            assert trig_coeffs(dim, N) is c
            assert c.moments is trig_coeffs(dim, N).moments
            assert not c.a.flags.writeable
            with pytest.raises(ValueError):
                c.a[1] = 2.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                c.L = 1.0
        assert trig_coeffs(1, 11) is not trig_coeffs(1, 10)
        assert trig_coeffs(2, 10).K == 10

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


def table(r, x):
    """The trig table A(x) of a 2D realization's law at the points x."""
    return fields._trig_block(r.coeffs.L, r.coeffs.K, x)


def nan_2d():
    return Realization2D(coeffs=trig_coeffs(2, 2), g=np.full((3, 3, 4), np.nan),
                         seed=0)


class TestCornerProof:
    """The bilinear interpolation bound behind pruning: a cell is proven
    from its four corner values and the global Hessian bounds."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10**6), st.floats(0, 1),
           st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(1e-4, 0.5))
    def test_interpolation_bound(self, N, seed, f1, f2, t1, t2, delta):
        """|u(p) - interpolant(p)| <= delta^2 (H11 + H22) / 8 plus twice
        the rounding bound, at any point p of a cell of side delta."""
        r = draw_realization(trig_coeffs(2, N), seed)
        L = r.coeffs.L
        x1, x2 = f1 * (L - delta), f2 * (L - delta)
        (u00, u01), (u10, u11) = [[r((x1 + i * delta, x2 + j * delta))
                                   for j in (0, 1)] for i in (0, 1)]
        interpolant = ((1 - t1) * ((1 - t2) * u00 + t2 * u01)
                       + t1 * ((1 - t2) * u10 + t2 * u11))
        H11, H22 = r.hessian_bounds
        error = r((x1 + t1 * delta, x2 + t2 * delta)) - interpolant
        bound = delta * delta * (H11 + H22) / 8
        assert abs(error) <= bound + 2 * r.rounding_bound

    def test_rounding_margin(self):
        """u = 1, with no curvature: a cell is decided only when 1 exceeds
        zero_tol by more than twice the rounding bound."""
        g = np.zeros((3, 3, 4))
        g[0, 0, 0] = 1.0
        c = CoeffSeq2D(L=2 * np.pi, a=np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]]))
        r = Realization2D(coeffs=c, g=g, seed=0)
        A = table(r, np.linspace(0, c.L, 5))
        eps = r.rounding_bound
        for zero_tol, sign in ((1 - 3 * eps, 1), (1 - eps, 0)):
            coarse, proven = adm._corner_proof(r, A, c.L / 4, zero_tol)
            assert coarse.all() and proven.shape == (4, 4)
            assert (proven == sign).all(), zero_tol

    def test_bound_is_sharp_on_a_cosine(self):
        """u = t + cos(x1) on the cell [4 pi / 5, 6 pi / 5] around the
        trough at pi: its corners exceed the trough by 1 - cos(pi / 5),
        3% below the bound delta^2 H11 / 8 with H11 = 1.  The cell is
        undecided while the trough dips below 0 and proven just above."""
        g = np.zeros((2, 2, 4))
        g[1, 0, 0] = 1.0  # cos(x1) cos(0 x2)
        L = 2 * np.pi
        A = fields._trig_block(L, 1, np.linspace(0, L, 6))
        for t, sign in ((0.95, 0), (1.01, 1)):
            g[0, 0, 0] = t
            r = Realization2D(coeffs=CoeffSeq2D(L=L, a=np.ones((2, 2))),
                              g=g, seed=0)
            assert r.hessian_bounds == (1, 0)
            coarse, proven = adm._corner_proof(r, A, L / 5, 0.0)
            assert coarse.all()
            assert (proven[2] == sign).all() and (proven[[0, 4]] == 1).all()

    def test_nan_field_never_decided(self):
        r = nan_2d()
        A = table(r, np.linspace(0, r.coeffs.L, 70))  # two bands
        for delta in (0.0, 1e-3, 0.1):
            coarse, proven = adm._corner_proof(r, A, delta, 0.0)
            assert proven.shape == (69, 69) and not proven.any()
            assert not coarse.any()

    @pytest.mark.parametrize("seed", range(4))
    def test_decided_points_keep_their_sign(self, seed):
        """Every fine point of a cell proven on its own square, and of the
        3 x 3 cells around a cell the halo rule keeps, is classified with
        the cell's sign and is not zero-flagged."""
        from test_equivalence import NOTCH  # a library that needs the halo
        r = draw_realization(trig_coeffs(2, 3), seed)
        M, D, S = 8, 5, 8
        G = M << (D + 1)
        A = fields._lattice_table(r.coeffs.L, r.coeffs.K, G)
        for zero_tol in (1e-3, default_zero_tol(r.coeffs)):
            own = adm._fine_pass(r, M, D, zero_tol).level
            halo = adm._fine_pass(r, M, D, zero_tol, NOTCH).level
            # a sign kept by the halo rule is proven on the own square too
            assert np.array_equal(own[halo != 0], halo[halo != 0])
            assert (halo == 0).any() and (own != halo).any() and halo.any()
            for reach, decided in ((0, own), (1, halo)):
                a, b = np.nonzero(decided)
                size = (2 * reach + 1) * S + 1
                classify = fields._window_classifier(r, A, A, size, zero_tol)
                positive, flagged = classify((a - reach) * S, (b - reach) * S)
                assert not flagged.any()
                sign = (decided[a, b] > 0)[:, None, None]
                assert np.array_equal(positive,
                                      np.broadcast_to(sign, positive.shape))

    def test_window_classifier_matches_grid(self):
        r = draw_realization(trig_coeffs(2, 4), 3)
        xs = np.linspace(0, r.coeffs.L, 40)
        i, j = np.array([0, 5, 5, 37]), np.array([3, 0, 20, 37])
        A = table(r, xs)
        positive, flagged = fields._window_classifier(r, A, A, 3, 0.5)(i, j)
        values = evaluate_grid_2d(r, xs, xs)
        for w in range(len(i)):
            block = values[i[w]:i[w] + 3, j[w]:j[w] + 3]
            assert np.array_equal(positive[w], block > 0.5)
            assert np.array_equal(flagged[w], np.abs(block) <= 0.5)


class TestLatticeTables:
    """The cached trig tables A(x) of the lattices arange(n + 1) * (L / n)."""

    @pytest.mark.parametrize("L, K, n", [(2 * np.pi, 3, 4096), (2 * np.pi, 3, 8),
                                         (3.7, 5, 96), (1.0, 2, 1)])
    def test_equals_a_fresh_table(self, L, K, n):
        fields._lattice_table.cache_clear()
        cold = fields._lattice_table(L, K, n)
        warm = fields._lattice_table(L, K, n)
        assert warm is cold
        fresh = fields._trig_block(L, K, np.arange(n + 1) * (L / n))
        assert cold.shape == (n + 1, 2 * (K + 1))
        assert np.array_equal(cold, fresh)

    def test_read_only(self):
        table = fields._lattice_table(2 * np.pi, 3, 16)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_keyed_by_period_and_degree(self):
        base = fields._lattice_table(2 * np.pi, 3, 32)
        other_L = fields._lattice_table(3.7, 3, 32)
        other_K = fields._lattice_table(2 * np.pi, 4, 32)
        assert other_L is not base and other_K is not base
        assert not np.array_equal(other_L, base)
        assert other_K.shape == (33, 10)
        assert np.array_equal(
            other_L, fields._trig_block(3.7, 3, np.arange(33) * (3.7 / 32)))

    @pytest.mark.parametrize("seed", range(3))
    def test_strided_rows_give_the_same_values(self, seed):
        """validate_2d reads its coarse grid, the subsquare corners, as
        every S-th row of the fine table; the products match a fresh
        table's."""
        r = draw_realization(trig_coeffs(2, 3), seed)
        L, G = r.coeffs.L, 1024
        xs = np.arange(G + 1) * (L / G)
        fine = fields._lattice_table(L, 3, G)[::8]
        A = fields._trig_block(L, 3, xs[::8])
        got = [u.copy() for _, u in fields._grid_bands(r, fine, fine)]
        want = [u.copy() for _, u in fields._grid_bands(r, A, A)]
        assert len(got) == 3
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("L", [2 * np.pi, 3.7, 1.0, 10.0])
    def test_power_of_two_lattices_nest(self, L):
        """Every 2^p-th row of a lattice's table is the table of the
        lattice of n / 2^p steps, bit for bit, since fl(L / (2^p m)) =
        fl(L / m) / 2^p: validate_2d reads coarser lattices from the
        finest one's pass."""
        fine = fields._lattice_table(L, 3, 4096)
        for n in (2048, 1024, 512, 8):
            assert np.array_equal(fine[::4096 // n],
                                  fields._lattice_table(L, 3, n)), n

    def test_bounded(self):
        assert fields._lattice_table.cache_info().maxsize >= 8
        for n in range(1, 40):
            fields._lattice_table(1.0, 2, n)
        info = fields._lattice_table.cache_info()
        assert info.currsize == info.maxsize


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

    def test_computed_once_and_read_only(self):
        for c, key in ((trig_coeffs(1, 4), 0), (trig_coeffs(2, 3), (0, 0))):
            m = spectral_moments(c)
            assert spectral_moments(c) is m is c.moments
            with pytest.raises(TypeError):
                m.A[key] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                c.moments = None


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
