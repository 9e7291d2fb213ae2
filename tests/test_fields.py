import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

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


def cosine_1d(L=1.0, K=2):
    """u(x) = cos(2 pi x / L) as a Realization1D of degree K."""
    a = np.ones(K + 1)
    a[0] = 0.0
    g = np.zeros(2 * K + 1)
    g[2] = 1.0  # cos coefficient of k = 1
    return Realization1D(coeffs=CoeffSeq1D(L=L, a=a), g=g, seed=0)


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
        """Above ``_PRODUCT_TERMS`` terms, the inverse FFT returns the true
        values of cos(2 pi x) at the quarter periods, where cos(pi / 2)
        returns 6.1e-17 (n = 64, a transform of 128 points); below, the
        block product returns the values of pointwise evaluation to
        rounding level."""
        wide = cosine_1d(K=fields._PRODUCT_TERMS)
        assert wide.spectrum.size > fields._PRODUCT_TERMS
        assert evaluate_grid_1d(wide, 64)[::16].tolist() == [1, 0, -1, 0, 1]
        assert cosine_1d()(0.25) != 0.0
        got = evaluate_grid_1d(cosine_1d(), 4)
        assert np.abs(got - [1, 0, -1, 0, 1]).max() <= 1e-15
        assert got[4] == got[0]
        with pytest.raises(ValueError):
            evaluate_grid_1d(cosine_1d(), 0)

    @pytest.mark.parametrize("n", [1, 5, 21, 6400])
    def test_grid_1d_values_unchanged(self, n):
        """Above ``_PRODUCT_TERMS`` terms, the values are those of the
        transform followed by a copy that appends v[0], bit for bit; at
        n = 1, 5 and 21 the transform keeps every m-th of m n > n points.
        Below, the block product agrees with pointwise evaluation and
        also ends with v[0]."""
        r = draw_realization(trig_coeffs(1, fields._PRODUCT_TERMS), n)
        c = r.spectrum
        m = -(-(2 * c.size - 1) // n)
        X = 0.5 * n * m * c
        X[0] = n * m * c[0]
        v = np.fft.irfft(X, n * m)[::m]
        got = evaluate_grid_1d(r, n)
        assert got.shape == (n + 1,)
        assert np.array_equal(got, np.append(v, v[0]))
        r = draw_realization(trig_coeffs(1, 10), n)
        got = evaluate_grid_1d(r, n)
        want = evaluate(r, np.arange(n + 1) * (r.coeffs.L / n))
        assert got.shape == (n + 1,) and got[n] == got[0]
        # 1e-12 (K + 1) sum |c_k|, the rounding allowance for values of u
        assert np.abs(got - want).max() <= 1.1e-11 * np.abs(r.spectrum).sum()

    def test_pointwise_1d_in_chunks(self):
        """Pointwise 1D evaluation builds the powers z^k of at most
        ``_POWER_CHUNK / (K + 1)`` points at a time.  At K = 1000, 2500
        points take three chunks and give the values and derivatives of
        one unchunked call, bit for bit, with one BLAS thread (a threaded
        BLAS splits a call's columns where it likes).  The 8193 points of
        a depth-12 interval check peak near one chunk of powers (16 MB),
        where one table of all their powers takes 131 MB."""
        script = (
            "import numpy as np\n"
            "from nodalcheck import fields\n"
            "r = fields.draw_realization(fields.trig_coeffs(1, 1000), 3)\n"
            "x = np.linspace(0.0, r.coeffs.L, 2500)\n"
            "step = 1 << (fields._POWER_CHUNK // 1001).bit_length() - 1\n"
            "assert 2 * step < x.size <= 3 * step\n"
            "chunked = (fields.evaluate(r, x), *fields.jet_1d(r, x))\n"
            "fields._POWER_CHUNK = 1 << 40\n"
            "whole = (fields.evaluate(r, x), *fields.jet_1d(r, x))\n"
            "print(all(np.array_equal(a, b) for a, b in zip(chunked, whole)))\n")
        src = os.path.dirname(os.path.dirname(fields.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True"]
        r = draw_realization(trig_coeffs(1, 1000), 3)
        tracemalloc.start()
        try:
            adm.interval_admissible(r, (0.0, r.coeffs.L), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * fields._POWER_CHUNK

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
    """The trig table A(x) of a realization's law at the points x."""
    return fields._trig_block(r.coeffs.L, r.coeffs.K, x)


def nan_2d():
    return Realization2D(coeffs=trig_coeffs(2, 2), g=np.full((3, 3, 4), np.nan),
                         seed=0)


def assert_far_row_and_column_repeat(proven):
    """The proof's last row and column, past its cells, repeat the ones
    before them, as the fine pass lays out its subsquares."""
    assert np.array_equal(proven[-1], proven[-2])
    assert np.array_equal(proven[:, -1], proven[:, -2])


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
            assert coarse.all() and proven.shape == (5, 5)
            assert_far_row_and_column_repeat(proven)
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
            assert proven.shape == (70, 70) and not proven.any()
            assert_far_row_and_column_repeat(proven)
            assert not coarse.any()

    @pytest.mark.parametrize("seed", range(4))
    def test_decided_points_keep_their_sign(self, seed):
        """Every fine point of a cell proven on its own square is
        classified with the cell's sign and is not zero-flagged: its
        block, and the first row and column of the blocks after it, those
        past the lattice repeating the far row and column."""
        r = draw_realization(trig_coeffs(2, 3), seed)
        M, D, S = 8, 5, 8
        G = M << (D + 1)
        A, blocks = fields._lattice_table(r.coeffs.L, r.coeffs.K, G, S)
        for zero_tol in (1e-3, default_zero_tol(r.coeffs)):
            level = adm._fine_pass(r, M, D, zero_tol).level[:-1, :-1]
            assert (level == 0).any() and level.any()
            a, b = np.nonzero(level)
            sign = (level[a, b] > 0)[:, None, None]
            classify = fields._window_classifier(r, A, blocks, zero_tol)
            for da, db in ((0, 0), (0, 1), (1, 0), (1, 1)):
                positive, flagged = classify(a + da, b + db)
                cell = (slice(None), slice(1 if da else S),
                        slice(1 if db else S))
                assert not flagged[cell].any()
                assert np.array_equal(positive[cell], np.broadcast_to(
                    sign, positive[cell].shape))

    def test_window_classifier_matches_grid(self):
        """Windows of w x w points, those of the last block row and column
        holding the grid's last row and column repeated past its end."""
        r = draw_realization(trig_coeffs(2, 4), 3)
        L, K, n = r.coeffs.L, r.coeffs.K, 37
        xs = np.arange(n + 1) * (L / n)
        values = evaluate_grid_2d(r, xs, xs)
        for width in (1, 3, 4, 8):
            last = n // width
            a = np.array([0, 1, 1, 3, last, last, 0, last])
            b = np.array([3, 0, 4, 3, 0, 2, last, last])
            classify = fields._window_classifier(
                r, *fields._lattice_table(L, K, n, width), 0.5)
            positive, flagged = classify(a, b)
            assert positive.shape == flagged.shape == (len(a), width, width)
            padded = np.pad(values, (0, width - 1), mode="edge")
            for w in range(len(a)):
                x, y = a[w] * width, b[w] * width
                block = padded[x:x + width, y:y + width]
                assert np.array_equal(positive[w], block > 0.5)
                assert np.array_equal(flagged[w], np.abs(block) <= 0.5)


class TestLatticeTables:
    """The cached trig tables A(x) of the lattices arange(n + 1) * (L / n),
    in whole blocks of rows, with their transposes in blocks of columns."""

    @pytest.mark.parametrize("L, K, n", [(2 * np.pi, 3, 4096), (2 * np.pi, 3, 8),
                                         (3.7, 5, 96), (1.0, 2, 1)])
    def test_equals_a_fresh_table(self, L, K, n):
        fields._lattice_table.cache_clear()
        for width in (1, 8):
            cold, cold_blocks = fields._lattice_table(L, K, n, width)
            warm, warm_blocks = fields._lattice_table(L, K, n, width)
            assert warm is cold and warm_blocks is cold_blocks
            fresh = fields._trig_block(L, K, np.arange(n + 1) * (L / n))
            count = -(-(n + 1) // width)
            assert cold.shape == (count * width, 2 * (K + 1))
            # the last row of the table repeated past it
            assert np.array_equal(cold[:n + 1], fresh)
            assert (cold[n + 1:] == fresh[n]).all()
            assert cold_blocks.flags.c_contiguous
            assert cold_blocks.shape == (count, 2 * (K + 1), width)
            columns = np.concatenate(list(cold_blocks), axis=1)
            assert np.array_equal(columns, cold.T)

    def test_read_only(self):
        for table in fields._lattice_table(2 * np.pi, 3, 16):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_keyed_by_period_and_degree(self):
        base = fields._lattice_table(2 * np.pi, 3, 32)[0]
        other_L = fields._lattice_table(3.7, 3, 32)[0]
        other_K = fields._lattice_table(2 * np.pi, 4, 32)[0]
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
        fine = fields._lattice_table(L, 3, G)[0][::8]
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
        fine = fields._lattice_table(L, 3, 4096)[0]
        for n in (2048, 1024, 512, 8):
            assert np.array_equal(fine[::4096 // n],
                                  fields._lattice_table(L, 3, n)[0]), n

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
    for r, names in ((r1, ("spectrum", "derivative_spectrum", "weights")),
                     (r2, ("weights", "hessian_bounds", "rounding_bound"))):
        for name in names:
            assert getattr(r, name) is getattr(r, name), name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, None)
    for array in (r1.spectrum, r1.derivative_spectrum, r1.weights,
                  r2.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    k = np.arange(r1.coeffs.K + 1)
    assert np.array_equal(r1.derivative_spectrum,
                          r1.spectrum * ((2j * np.pi / r1.coeffs.L) * k))
    # u(0) = Re sum c_k, u(x + y) = A(x) W A(y)^T in 1D, and u(0, 0) =
    # sum of the cos*cos block of W
    assert r1.spectrum.real.sum() == pytest.approx(evaluate(r1, 0.0))
    assert np.array_equal(r1.weights, r1.weights.T)
    x, y = np.array([0.0, 0.7, 2.9]), np.array([0.0, 0.4, 1.3, 3.0])
    assert np.allclose(table(r1, x) @ r1.weights @ table(r1, y).T,
                       evaluate(r1, np.add.outer(x, y)), rtol=0, atol=1e-13)
    K = r2.coeffs.K
    assert r2.weights[:K + 1, :K + 1].sum() == pytest.approx(
        evaluate(r2, (0.0, 0.0)))


@pytest.mark.parametrize("K, seed", [(2, 0), (3, 1), (5, 2), (9, 3)])
def test_weights_are_the_block_matrix(K, seed):
    """W = [[a g0, a g1], [a g2, a g3]] bit for bit, on draws of the
    degree-K law and of random coefficients."""
    rng = np.random.default_rng(seed)
    for coeffs in (trig_coeffs(2, K),
                   CoeffSeq2D(L=3.7, a=rng.standard_normal((K + 1, K + 1)))):
        for s in range(3):
            r = draw_realization(coeffs, derive_seed(seed, s))
            ag = coeffs.a[:, :, None] * r.g
            want = np.block([[ag[:, :, 0], ag[:, :, 1]],
                             [ag[:, :, 2], ag[:, :, 3]]])
            assert r.weights.shape == want.shape
            assert r.weights.tobytes() == want.tobytes()
