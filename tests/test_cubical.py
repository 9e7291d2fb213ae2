import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodalcheck.cubical import (MINUS, PLUS, ZERO_FLAGGED, CubicalSet,
                                SignGrid, cubical_approx, sign_grid)
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


class TestCubicalApprox:
    def test_all_plus(self):
        grid = sign_grid(constant_1d(), M=5)
        assert cubical_approx(grid, +1).cell_indices == list(range(6))
        assert cubical_approx(grid, -1).cell_indices == []

    def test_cosine_cells(self):
        grid = sign_grid(cosine_1d(), M=3)
        assert cubical_approx(grid, +1).cell_indices == [0, 3]
        assert cubical_approx(grid, -1).cell_indices == [1, 2]

    def test_zero_flag_in_both(self):
        grid = SignGrid(dim=1, M=2, signs=np.array([1, 0, -1], dtype=np.int8))
        assert 1 in cubical_approx(grid, +1).cell_indices
        assert 1 in cubical_approx(grid, -1).cell_indices

    def test_bad_sigma(self):
        grid = sign_grid(constant_1d(), M=2)
        with pytest.raises(ValueError):
            cubical_approx(grid, 0)


@given(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=12))
def test_partition_without_zeros(signs):
    grid = SignGrid(dim=1, M=len(signs) - 1, signs=np.array(signs, np.int8))
    plus = set(cubical_approx(grid, +1).cell_indices)
    minus = set(cubical_approx(grid, -1).cell_indices)
    assert plus | minus == set(range(len(signs)))
    assert not (plus & minus)


@given(st.lists(st.sampled_from([1, -1, 0]), min_size=2, max_size=12))
def test_negate_swaps(signs):
    grid = SignGrid(dim=1, M=len(signs) - 1, signs=np.array(signs, np.int8))
    flipped = SignGrid(dim=1, M=grid.M, signs=-grid.signs)
    assert (cubical_approx(flipped, +1).cell_indices
            == cubical_approx(grid, -1).cell_indices)


def test_refinement_consistency():
    r = draw_realization(trig_coeffs(1, 5), 9)
    g1 = sign_grid(r, M=10)
    g2 = sign_grid(r, M=20)
    assert g1.zero_count == 0 and g2.zero_count == 0
    assert np.array_equal(g1.signs, g2.signs[::2])


def test_cell_mask_shape_validation():
    with pytest.raises(ValueError):
        CubicalSet(dim=1, M=3, cells=np.ones(3, dtype=bool))
