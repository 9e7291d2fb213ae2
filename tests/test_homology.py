import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcheck.cubical import SignGrid, cubical_approx, sign_grid
from nodalcheck.fields import (CoeffSeq2D, Realization2D, draw_realization,
                               trig_coeffs)
from nodalcheck.homology import (BettiVector, betti_pair, cell_betti,
                                 connected_components, default_reference_M,
                                 homology_match, reference_betti)

from oracles import (betti_bruteforce, betti_label, connected_components_runs,
                     euler)
from test_cubical import constant_1d
from test_fields import cosine_1d


def cosine_2d():
    """u(x1, x2) = cos(x1) on [0, 2 pi]^2."""
    a = np.zeros((4, 4))
    a[1, 0] = a[1, 1] = a[2, 3] = 1.0  # nondegenerate support
    c = CoeffSeq2D(L=2 * np.pi, a=a)
    g = np.zeros((4, 4, 4))
    g[1, 0, 0] = 1.0  # cos(x1) * cos(0)
    return Realization2D(coeffs=c, g=g, seed=0)


class TestCloseFaces:
    """V - E + F of the face closure, by the oracle ``euler``."""

    def test_single_cell(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        assert euler(mask) == 4 - 4 + 1
        assert euler(mask[1]) == 2 - 1

    def test_edge_sharing(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = mask[1, 2] = True
        assert euler(mask) == 6 - 7 + 2
        mask[1, 1], mask[1, 0] = False, True
        assert euler(mask) == 8 - 8 + 2
        assert euler(mask[1]) == 4 - 2

    def test_corner_sharing(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        assert euler(mask) == 7 - 8 + 2
        ring = np.ones((3, 3), dtype=bool)
        ring[1, 1] = False
        assert euler(ring) == 16 - 24 + 8


class TestBetti:
    def test_full_block(self):
        mask = np.ones((5, 5), dtype=bool)
        assert cell_betti(mask) == BettiVector(1, 0)

    def test_ring(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        assert cell_betti(mask) == BettiVector(1, 1)

    def test_diagonal_pair(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        assert euler(mask) == 1
        assert cell_betti(mask) == BettiVector(1, 0)

    def test_empty(self):
        mask = np.zeros((3, 3), dtype=bool)
        assert cell_betti(mask) == BettiVector(0, 0)

    def test_1d_runs(self):
        grid = SignGrid(dim=1, M=6,
                        signs=np.array([1, 1, -1, 1, -1, -1, 1], np.int8))
        plus, minus = betti_pair(grid)
        assert plus == BettiVector(3, 0)
        assert minus == BettiVector(2, 0)
        assert (plus.b0, plus.b1) == betti_label(cubical_approx(grid, +1))
        assert (minus.b0, minus.b1) == betti_label(cubical_approx(grid, -1))


@settings(max_examples=150)
@given(st.integers(0, 2**25 - 1))
def test_random_grids_match_bruteforce(bits):
    signs = np.where(
        np.array([(bits >> i) & 1 for i in range(25)]).reshape(5, 5), 1, -1)
    grid = SignGrid(dim=2, M=4, signs=signs.astype(np.int8))
    for sigma in (+1, -1):
        cells = cubical_approx(grid, sigma)
        got = cell_betti(cells)
        b0, b1 = betti_bruteforce(cells)
        assert (got.b0, got.b1) == (b0, b1)


@settings(max_examples=100)
@given(st.integers(1, 64), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_euler_identity(n, density, seed):
    """b0 - b1 of the run graph equals V - E + F of the face closure."""
    cells = np.random.default_rng(seed).random((n, n)) < density
    b = cell_betti(cells)
    assert b.b0 - b.b1 == euler(cells)


@settings(max_examples=50)
@given(st.integers(0, 2**25 - 1))
def test_dihedral_invariance(bits):
    signs = np.where(
        np.array([(bits >> i) & 1 for i in range(25)]).reshape(5, 5), 1, -1)

    def b(s):
        grid = SignGrid(dim=2, M=4, signs=s.astype(np.int8))
        return betti_pair(grid)

    base = b(signs)
    for variant in (signs.T, signs[::-1], signs[:, ::-1], np.rot90(signs)):
        assert b(np.ascontiguousarray(variant)) == base


def _special_masks():
    for n in (1, 2, 3, 6):
        yield np.zeros((n, n), dtype=bool)
        yield np.ones((n, n), dtype=bool)
        yield (np.add.outer(np.arange(n), np.arange(n)) % 2).astype(bool)
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        for row in ([True] * n, [False] * n, [k % 2 == 0 for k in range(n)],
                    list(rng.random(n) < 0.5)):
            yield np.array([row])
            yield np.array([row]).T


def test_special_masks_match_bruteforce():
    """Empty, full, checkerboard, 1 x n and n x 1 masks."""
    for mask in _special_masks():
        b = cell_betti(mask)
        assert (b.b0, b.b1) == betti_bruteforce(mask), mask
        assert connected_components(mask) == connected_components_runs(mask)


def test_every_short_row_matches_bruteforce():
    """Every 1D mask of length <= 12, and the same row as a (1, n) 2D mask."""
    for n in range(13):
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        for row in bits.astype(bool):
            want = betti_bruteforce(row[None, :])
            for mask in (row, row[None, :]):
                b = cell_betti(mask)
                assert (b.b0, b.b1) == want, mask
                assert type(b.b0) is int and type(b.b1) is int


def _check_pair(signs):
    """betti_pair of a sign array against labelling and the Euler
    characteristic of the face closure (b0 - b1 = chi), both sets."""
    grid = SignGrid(dim=signs.ndim, M=signs.shape[0] - 1, signs=signs)
    got = betti_pair(grid)
    for b, sigma in zip(got, (+1, -1)):
        cells = cubical_approx(grid, sigma)
        assert (b.b0, b.b1) == betti_label(cells), sigma
        assert b.b0 - b.b1 == euler(cells), sigma
        assert type(b.b0) is int and type(b.b1) is int


def _serpentine(n):
    """A one-cell-wide path through every row: rows 0, 2, 4, ... (all but
    the last two columns) joined at alternate ends.  Each run's leftmost
    run above is the one before it on the path, so the chain from the last
    row to the root is n - 1 deep.  A bar down the right edge, apart from
    the path, joins it in the last row, whose run then meets two runs
    above at the foot of both chains."""
    m = np.zeros((n, n), dtype=bool)
    m[::2, :n - 2] = True
    for i in range(1, n, 2):
        m[i, (n - 3) * ((i // 2) % 2 == 0)] = True
    m[:, n - 1] = True
    m[n - 1] = True
    return m


def _comb(n):
    """Teeth in every other column, joined by the last row: its run meets
    about n / 2 runs above."""
    m = np.zeros((n, n), dtype=bool)
    m[:, ::2] = True
    m[n - 1] = True
    return m


def _checkerboard(n):
    """Single-cell runs, each meeting two runs above (corners)."""
    return (np.add.outer(np.arange(n), np.arange(n)) % 2).astype(bool)


def _spiral(n):
    """A one-cell-wide square spiral, one empty cell between its turns;
    its complement is a spiral corridor.  Each turn's runs join through
    runs that meet two runs above, so the hook-and-compress loop chains
    about n / 2 roots into one tree, deeper than any before the hooks."""
    m = np.zeros((n, n), dtype=bool)
    i = j = 0
    m[0, 0] = True
    steps = [n - 1, n - 1, n - 1]
    k = n - 3
    while k > 0:
        steps += [k, k]
        k -= 2
    for t, length in enumerate(steps):
        di, dj = ((0, 1), (1, 0), (0, -1), (-1, 0))[t % 4]
        for _ in range(length):
            i, j = i + di, j + dj
            m[i, j] = True
    return m


@pytest.mark.parametrize("shape, n", [
    (_serpentine, 513), (_serpentine, 512), (_comb, 513), (_comb, 64),
    (_checkerboard, 513), (_checkerboard, 9), (_spiral, 513), (_spiral, 40)])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("zeros", [0.0, 0.01])
def test_worst_case_run_graphs(shape, n, sign, zeros):
    """Deep chains, many runs above one run, and late hooks, with the
    shape as Q+ and as Q-, with and without planted zero flags."""
    m = shape(n)
    signs = np.where(m, sign, -sign).astype(np.int8)
    signs[np.random.default_rng(n).random(m.shape) < zeros] = 0
    _check_pair(signs)


def test_worst_case_shapes():
    """The shapes are what they claim to be."""
    assert cell_betti(_serpentine(513)) == BettiVector(1, 0)
    assert cell_betti(_comb(64)) == BettiVector(1, 0)
    assert cell_betti(_spiral(513)) == BettiVector(1, 0)
    assert cell_betti(~_spiral(513)) == BettiVector(1, 0)
    # a hole at each of the 25 interior cells of the other colour
    assert cell_betti(_checkerboard(9)) == BettiVector(1, 25)


class TestDegenerate:
    @pytest.mark.parametrize("dim, M", [(1, 1), (1, 7), (2, 1), (2, 8)])
    def test_constant_grids(self, dim, M):
        full, empty = BettiVector(1, 0), BettiVector(0, 0)
        for value, want in ((1, (full, empty)), (-1, (empty, full)),
                            (0, (full, full))):
            signs = np.full((M + 1,) * dim, value, dtype=np.int8)
            assert betti_pair(SignGrid(dim=dim, M=M, signs=signs)) == want

    def test_every_2x2_grid(self):
        """M = 1: all 81 grids of signs -1, 0, +1."""
        values = np.array([-1, 0, 1], dtype=np.int8)
        for k in range(81):
            signs = values[[k // 3**i % 3 for i in range(4)]].reshape(2, 2)
            _check_pair(signs)
        diagonal = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        assert betti_pair(SignGrid(dim=2, M=1, signs=diagonal)) == (
            BettiVector(1, 0), BettiVector(1, 0))

    def test_short_1d_grids(self):
        """1D grids of 2 points, and 1-cell masks: a sign grid of 1 point
        (M = 0) is refused (``TestSignGrid``)."""
        one, none = BettiVector(1, 0), BettiVector(0, 0)
        two = BettiVector(2, 0)
        assert (cell_betti(np.ones(1, dtype=bool)),
                cell_betti(np.zeros(1, dtype=bool))) == (one, none)
        cases = {(1, 1): (one, none), (1, 0): (one, one), (1, -1): (one, one),
                 (0, 0): (one, one), (-1, 0): (one, one),
                 (-1, -1): (none, one)}
        for signs, want in cases.items():
            grid = SignGrid(dim=1, M=1, signs=np.array(signs, dtype=np.int8))
            assert betti_pair(grid) == want, signs
        grid = SignGrid(dim=1, M=2, signs=np.array([1, -1, 1], dtype=np.int8))
        assert betti_pair(grid) == (two, one)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_thin_and_empty_masks(self, n):
        """Masks of shape (1, n), (n, 1) and (0, n)."""
        for mask in (np.ones((1, n), bool), np.ones((n, 1), bool)):
            assert cell_betti(mask) == BettiVector(1, 0)
            assert cell_betti(~mask) == BettiVector(0, 0)
        gaps = np.arange(n) % 2 == 0
        want = BettiVector(len(range(0, n, 2)), 0)
        assert cell_betti(gaps[None, :]) == want
        assert cell_betti(gaps[:, None]) == want
        assert cell_betti(np.zeros((0, n), bool)) == BettiVector(0, 0)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (), (1, 1, 1, 1)])
    def test_other_dimensions_raise(self, shape):
        with pytest.raises(ValueError, match="mask must be 1D or 2D"):
            cell_betti(np.ones(shape, dtype=bool))


def test_connected_components_simple():
    mask = np.array([[1, 0, 1],
                     [0, 1, 0],
                     [1, 0, 1]], dtype=bool)
    # all connected through the center via corners
    assert connected_components(mask) == 1
    mask2 = np.array([[1, 0, 0],
                      [0, 0, 0],
                      [0, 0, 1]], dtype=bool)
    assert connected_components(mask2) == 2


class TestReference:
    def test_cosine_1d(self):
        # the zeros L/4 and 3L/4 lie on neither the 63- nor the 126-point grid
        ref = reference_betti(cosine_1d(), 63)
        assert ref is not None
        plus, minus = ref
        assert plus == BettiVector(2, 0)
        assert minus == BettiVector(1, 0)
        assert reference_betti(cosine_1d(), 64, zero_tol=1e-12) is None

    def test_constant(self):
        ref = reference_betti(constant_1d(), 16)
        assert ref == (BettiVector(1, 0), BettiVector(0, 0))

    def test_cosine_2d_bands(self):
        ref = reference_betti(cosine_2d(), 64)
        assert ref is not None
        plus, minus = ref
        assert plus == BettiVector(2, 0)
        assert minus == BettiVector(1, 0)

    def test_zero_flag_unresolved(self):
        # cos(2 pi x) sampled at multiples of 1/4 hits exact zeros
        assert reference_betti(cosine_1d(), 64, zero_tol=1e-9) is None

    def test_default_reference_m(self):
        assert default_reference_M(10, 5) == 80
        assert default_reference_M(2, 50) == 800


class TestMatch:
    def test_examples(self):
        a = (BettiVector(2, 0), BettiVector(1, 0))
        b = (BettiVector(1, 0), BettiVector(1, 0))
        assert homology_match(a, a)
        assert not homology_match(a, b)
        c = (BettiVector(1, 1), BettiVector(1, 0))
        assert homology_match(c, (BettiVector(1, 1), BettiVector(1, 0)))
