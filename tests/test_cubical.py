import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodalcheck.cubical import (MINUS, PLUS, ZERO_FLAGGED, SignGrid,
                                cubical_approx, sign_grid)
from nodalcheck.fields import (CoeffSeq1D, Realization1D, draw_realization,
                               trig_coeffs)

from test_fields import cosine_1d


def constant_1d(value=1.0, L=1.0):
    coeffs = CoeffSeq1D(L=L, a=np.array([1.0, 0.0, 1.0]))
    g = np.zeros(5)
    g[0] = value  # k = 0 carries only the constant cosine term
    return Realization1D(coeffs=coeffs, g=g, seed=0)


class TestSignGrid:
    def test_constant_positive(self):
        grid = sign_grid(constant_1d(2.5), M=4)
        assert np.all(grid.signs == PLUS)
        assert grid.zero_count == 0

    def test_cosine_m3(self):
        # cos(2 pi k / 3) = 1, -1/2, -1/2, 1
        grid = sign_grid(cosine_1d(), M=3)
        assert list(grid.signs) == [PLUS, MINUS, MINUS, PLUS]

    def test_cosine_m4_zero_flags(self):
        grid = sign_grid(cosine_1d(), M=4, zero_tol=1e-12)
        assert grid.signs[1] == ZERO_FLAGGED
        assert grid.signs[3] == ZERO_FLAGGED
        assert grid.zero_count == 2

    def test_shape_2d(self):
        r = draw_realization(trig_coeffs(2, 3), 1)
        grid = sign_grid(r, M=5)
        assert grid.signs.shape == (6, 6)
        assert grid.dim == 2

    def test_json_roundtrip(self):
        grid = sign_grid(cosine_1d(), M=4, zero_tol=1e-12)
        back = SignGrid.from_json(grid.to_json())
        assert back.M == 4 and back.dim == 1
        assert np.array_equal(back.signs, grid.signs)
        r = draw_realization(trig_coeffs(2, 3), 2)
        g2 = sign_grid(r, M=4)
        back2 = SignGrid.from_json(g2.to_json())
        assert np.array_equal(back2.signs, g2.signs)

    @pytest.mark.parametrize("dim, signs", [
        (2, [[5, 5], [5, 5]]),
        (1, np.array([255, 1])),  # an int8 cast would make it [-1, 1]
        (1, np.array([-128, 1], dtype=np.int8)),
        (1, [0.5, 1.0]),
        (1, [np.nan, 1.0]),
    ])
    def test_values_outside_signs_rejected(self, dim, signs):
        with pytest.raises(ValueError, match="signs must be integers"):
            SignGrid(dim=dim, M=1, signs=signs)

    @pytest.mark.parametrize("dim, M, signs", [
        (1, -1, []), (1, 0, [1]), (2, 0, [[1]]), (2, -1, np.zeros((0, 0)))])
    def test_m_below_one_rejected(self, dim, M, signs):
        with pytest.raises(ValueError, match="M must be at least 1"):
            SignGrid(dim=dim, M=M, signs=np.array(signs, dtype=np.int8))

    def test_int64_signs_accepted(self):
        raw = np.array([[1, 0], [-1, 1]])
        grid = SignGrid(dim=2, M=1, signs=raw)
        assert grid.signs.dtype == np.int8 and grid.zero_count == 1
        assert np.array_equal(grid.signs, raw) and raw.flags.writeable


def cell_indices(grid, sigma) -> list:
    """Indices of the cells of a 1D grid's cubical set."""
    return np.flatnonzero(cubical_approx(grid, sigma)).tolist()


class TestCubicalApprox:
    def test_all_plus(self):
        grid = sign_grid(constant_1d(), M=5)
        assert cell_indices(grid, +1) == list(range(6))
        assert cell_indices(grid, -1) == []

    def test_cosine_cells(self):
        grid = sign_grid(cosine_1d(), M=3)
        assert cell_indices(grid, +1) == [0, 3]
        assert cell_indices(grid, -1) == [1, 2]

    def test_zero_flag_in_both(self):
        grid = SignGrid(dim=1, M=2, signs=np.array([1, 0, -1], dtype=np.int8))
        assert 1 in cell_indices(grid, +1)
        assert 1 in cell_indices(grid, -1)

    def test_every_sign_and_sigma(self):
        """A cell is in sigma's set iff its sign is sigma or zero-flagged."""
        grid = SignGrid(dim=1, M=2, signs=np.array([PLUS, ZERO_FLAGGED, MINUS],
                                                   dtype=np.int8))
        assert cell_indices(grid, PLUS) == [0, 1]
        assert cell_indices(grid, MINUS) == [1, 2]
        signs = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=np.int8)
        grid = SignGrid(dim=2, M=2, signs=signs)
        assert cubical_approx(grid, PLUS).tolist() == [
            [True, True, False], [False, True, True], [True, False, True]]
        assert cubical_approx(grid, MINUS).tolist() == [
            [False, True, True], [True, False, True], [True, True, False]]

    def test_read_only_mask(self):
        r = draw_realization(trig_coeffs(2, 3), 1)
        cells = cubical_approx(sign_grid(r, M=5), -1)
        assert cells.dtype == bool and cells.shape == (6, 6)
        with pytest.raises(ValueError):
            cells[0, 0] = not cells[0, 0]

    def test_bad_sigma(self):
        grid = sign_grid(constant_1d(), M=2)
        with pytest.raises(ValueError):
            cubical_approx(grid, 0)


@given(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=12))
def test_partition_without_zeros(signs):
    grid = SignGrid(dim=1, M=len(signs) - 1, signs=np.array(signs, np.int8))
    plus = set(cell_indices(grid, +1))
    minus = set(cell_indices(grid, -1))
    assert plus | minus == set(range(len(signs)))
    assert not (plus & minus)


@given(st.lists(st.sampled_from([1, -1, 0]), min_size=2, max_size=12))
def test_negate_swaps(signs):
    grid = SignGrid(dim=1, M=len(signs) - 1, signs=np.array(signs, np.int8))
    flipped = SignGrid(dim=1, M=grid.M, signs=-grid.signs)
    assert cell_indices(flipped, +1) == cell_indices(grid, -1)


def test_refinement_consistency():
    r = draw_realization(trig_coeffs(1, 5), 9)
    g1 = sign_grid(r, M=10)
    g2 = sign_grid(r, M=20)
    assert g1.zero_count == 0 and g2.zero_count == 0
    assert np.array_equal(g1.signs, g2.signs[::2])

