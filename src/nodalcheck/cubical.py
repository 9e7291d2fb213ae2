"""Sign grids on the equidistant M-discretization and their cell masks.

Grid points are x_k = k * L / M componentwise.  The cubical set for a
sign sigma is a boolean mask over {0..M}^dim: cell k, the unit cell
attached to the upper-right of k in index space, belongs to it iff the
sample at k is compatible with sigma, so the cells tile [0, M+1]^dim.
A zero-flagged sample is compatible with both signs (the defining
inequality is weak).  The pipeline computes Betti numbers from the signs
themselves (:func:`~nodalcheck.homology.betti_pair`); the masks of
:func:`cubical_approx` state that definition, and only tests build them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fields import (Realization1D, Realization2D, _bound_test,
                     _check_zero_tol, _classify_grid, _json_object,
                     _lattice_table, evaluate_grid_1d)

if TYPE_CHECKING:
    from .admissibility import _FinePass

__all__ = ["SignGrid", "sign_grid", "cubical_approx"]

PLUS = 1
MINUS = -1
ZERO_FLAGGED = 0


@dataclass(frozen=True)
class SignGrid:
    """Sampled signs on {0..M}^dim, M >= 1: +1, -1 or 0 (zero-flagged)."""

    dim: int
    M: int
    signs: np.ndarray

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        raw = np.asarray(self.signs)
        # checked before the int8 cast, which wraps 255 to -1 and 0.5 to 0
        if raw.dtype.kind not in "biu" or (
                raw.size and not MINUS <= raw.min() <= raw.max() <= PLUS):
            raise ValueError("signs must be integers in {-1, 0, +1}")
        s = raw.astype(np.int8)
        s.flags.writeable = False
        object.__setattr__(self, "signs", s)
        if s.shape != (self.M + 1,) * self.dim:
            raise ValueError("sign array shape must be (M+1,)^dim")

    @property
    def zero_count(self) -> int:
        return int(np.count_nonzero(self.signs == ZERO_FLAGGED))

    def to_json(self) -> str:
        chars = np.array(["0", "+", "-"])  # index by sign value
        rows2d = self.signs if self.dim == 2 else self.signs[None, :]
        rows = ["".join(chars[row]) for row in rows2d]
        return json.dumps({"dim": self.dim, "M": self.M, "rows": rows})

    @staticmethod
    def from_json(text: str) -> "SignGrid":
        payload = _json_object(text, "sign grid", ("dim", "M", "rows"))
        dim, M = payload["dim"], payload["M"]
        # type(...) is int also turns away True, False and 2.0
        if type(dim) is not int or dim not in (1, 2):
            raise ValueError(f"sign grid dim must be 1 or 2, not {dim!r}")
        if type(M) is not int:
            raise ValueError(f"sign grid M must be an integer, not {M!r}")
        lut = {"+": PLUS, "-": MINUS, "0": ZERO_FLAGGED}
        rows = payload["rows"]
        if dim == 1 and len(rows) != 1:
            raise ValueError(f"a 1D sign grid has one row, not {len(rows)}")
        for i, row in enumerate(rows):
            if not isinstance(row, str):
                raise ValueError(f"sign grid row {i} is not a string")
            bad = [c for c in row if c not in lut]
            if bad:
                raise ValueError(f"sign grid row {i}: bad character {bad[0]!r}"
                                 " (expected '+', '-' or '0')")
            if len(row) != len(rows[0]):
                raise ValueError(f"sign grid row {i} has {len(row)} signs,"
                                 f" row 0 has {len(rows[0])}")
        signs = np.asarray([[lut[c] for c in row] for row in rows], dtype=np.int8)
        if dim == 1:
            signs = signs[0]
        return SignGrid(dim=dim, M=M, signs=signs)


def sign_grid(r, M: int, zero_tol: float = 0.0, *,
              fine: _FinePass | None = None) -> SignGrid:
    """Sample the sign of a realization at the M-discretization of [0, L]^dim.

    A sample is zero-flagged when neither u > zero_tol nor u < -zero_tol
    holds: values in [-zero_tol, zero_tol], and NaN.  With the strict
    default only exact floating-point zeros are flagged.  1D grids come
    from one call of :func:`~nodalcheck.fields.evaluate_grid_1d`, a
    block product of two small cached trig tables (one inverse FFT above
    ``fields._PRODUCT_TERMS`` terms).

    A 2D grid is read from the fine pass ``fine`` of
    :func:`~nodalcheck.admissibility.validate_2d`, when one is given, if
    the pass nests it and counts no zero flag on it: M S c = G for a
    power of two c, so that its points are every c-th point of the
    pass's coarse grid.  The signs are those of a classification of the
    grid itself, bit for bit (``_FinePass.nest``).  Otherwise, with zero
    flags or off the nest, the grid is classified here.  A pass of
    another realization or ``zero_tol`` raises ``ValueError``, and so
    does a negative, NaN or infinite ``zero_tol``.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    _check_zero_tol(zero_tol)
    # every c-th point of the pass's coarse grid, c S fine steps apart
    c = 0 if fine is None else fine.nest(r, zero_tol, M) // fine.S
    if isinstance(r, Realization1D):
        positive, negative = _bound_test(evaluate_grid_1d(r, M), zero_tol)
    elif not isinstance(r, Realization2D):
        raise TypeError("r must be a realization")
    elif c and not fine.zeros[(c * fine.S).bit_length() - 1]:
        positive = fine.coarse[::c, ::c]
        negative = ~positive
    else:
        A, _ = _lattice_table(r.coeffs.L, r.coeffs.K, M)
        positive, negative = _classify_grid(r, A, A, zero_tol)
    # PLUS above the bound, MINUS below, ZERO_FLAGGED at neither
    signs = positive.view(np.int8) - negative.view(np.int8)
    return SignGrid(dim=r.dim, M=M, signs=signs)


def cubical_approx(grid: SignGrid, sigma: int) -> np.ndarray:
    """Read-only mask of the cells compatible with sigma (zero-flagged fits both)."""
    if sigma not in (PLUS, MINUS):
        raise ValueError("sigma must be +1 or -1")
    # signs are -1, 0 or +1, so this is signs == sigma or signs == 0
    cells = grid.signs != -sigma
    cells.flags.writeable = False
    return cells
