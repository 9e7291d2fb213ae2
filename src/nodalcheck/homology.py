"""Betti numbers of cubical sets.

Connectivity is through shared faces of any dimension (two cells
touching only at a corner are connected), which matches the topology of
the union of closed cells.  beta_0 comes from 8-neighbour component
labelling of the cell mask (``scipy.ndimage.label``, imported on first
use); in 2D, beta_1 = beta_0 - chi with chi = V - E + F counted on the
face closure.
Planar cubical sets have no torsion and no H_2, so the Betti pair
determines the homology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubical import CubicalSet, cubical_approx, sign_grid

__all__ = [
    "CubicalComplex",
    "BettiVector",
    "close_faces",
    "betti",
    "betti_pair",
    "reference_betti",
    "homology_match",
]


# 8-neighbour connectivity: cells touching only at a corner are connected
_EIGHT_NEIGHBOURS = np.ones((3, 3), dtype=bool)


def connected_components(mask: np.ndarray) -> int:
    """Number of 8-connected components of a 2D boolean mask."""
    # imported here: scipy.ndimage costs about 0.1 s and 25 MB to import
    from scipy import ndimage

    return int(ndimage.label(np.asarray(mask, dtype=bool),
                             structure=_EIGHT_NEIGHBOURS)[1])


@dataclass(frozen=True)
class CubicalComplex:
    """Face closure of a cubical set, stored as boolean incidence grids.

    ``faces`` is the top-cell mask; ``edges_x``/``edges_y`` mark unit
    edges in the two axis directions and ``vertices`` the integer
    points.  In 1D only ``vertices`` and ``edges_x`` are populated.
    """

    dim: int
    vertices: np.ndarray
    edges_x: np.ndarray
    edges_y: np.ndarray | None
    faces: np.ndarray | None

    @property
    def n_vertices(self) -> int:
        return int(np.count_nonzero(self.vertices))

    @property
    def n_edges(self) -> int:
        n = int(np.count_nonzero(self.edges_x))
        if self.edges_y is not None:
            n += int(np.count_nonzero(self.edges_y))
        return n

    @property
    def n_faces(self) -> int:
        return 0 if self.faces is None else int(np.count_nonzero(self.faces))

    def euler(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces


@dataclass(frozen=True)
class BettiVector:
    b0: int
    b1: int = 0

    def as_list(self) -> list:
        return [self.b0, self.b1]


def close_faces(cs: CubicalSet) -> CubicalComplex:
    """All faces (vertices, edges, squares) of the cells of ``cs``, deduplicated."""
    cells = cs.cells
    if cs.dim == 1:
        n = cells.size
        verts = np.zeros(n + 1, dtype=bool)
        verts[:-1] |= cells
        verts[1:] |= cells
        return CubicalComplex(dim=1, vertices=verts, edges_x=cells.copy(),
                              edges_y=None, faces=None)
    n = cells.shape[0]
    verts = np.zeros((n + 1, n + 1), dtype=bool)
    for di in (0, 1):
        for dj in (0, 1):
            verts[di : n + di, dj : n + dj] |= cells
    # edge from (i, j) to (i+1, j): bounds cells (i, j-1) and (i, j)
    ex = np.zeros((n, n + 1), dtype=bool)
    ex[:, :-1] |= cells
    ex[:, 1:] |= cells
    ey = np.zeros((n + 1, n), dtype=bool)
    ey[:-1, :] |= cells
    ey[1:, :] |= cells
    return CubicalComplex(dim=2, vertices=verts, edges_x=ex, edges_y=ey,
                          faces=cells.copy())


def betti(c: CubicalComplex) -> BettiVector:
    """Betti numbers of a face closure; the empty complex gives (0, 0)."""
    if c.n_vertices == 0:
        return BettiVector(0, 0)
    if c.dim == 1:
        # components of the vertex-edge graph = runs of cells plus isolated
        # vertices (none arise from face closures of nonempty cell sets)
        cells = c.edges_x
        b0 = int(np.count_nonzero(np.diff(np.concatenate(([False], cells)).astype(np.int8)) == 1))
        return BettiVector(b0, 0)
    b0 = connected_components(c.faces)
    b1 = b0 - c.euler()
    return BettiVector(b0, b1)


def betti_pair(grid) -> tuple:
    """(betti(Q+), betti(Q-)) for a sign grid."""
    plus = betti(close_faces(cubical_approx(grid, +1)))
    minus = betti(close_faces(cubical_approx(grid, -1)))
    return plus, minus


def reference_betti(r, M_ref: int, zero_tol: float = 0.0):
    """Fine-grid ground-truth Betti pair for the nodal domains of ``r``.

    Computes the Betti pair at resolution M_ref and again at 2*M_ref;
    returns the pair only if the two agree (and neither grid has
    zero-flagged samples), else None ("unresolved", the trial should be
    discarded and counted separately).
    """
    g1 = sign_grid(r, M_ref, zero_tol)
    g2 = sign_grid(r, 2 * M_ref, zero_tol)
    if g1.zero_count or g2.zero_count:
        return None
    pair1 = betti_pair(g1)
    pair2 = betti_pair(g2)
    if not homology_match(pair1, pair2):
        return None
    return pair1


def default_reference_M(M: int, max_freq: int) -> int:
    """Reference resolution: comfortably finer than both the working grid and the field."""
    return max(8 * M, 16 * max_freq)


def homology_match(a, b) -> bool:
    """True iff the Betti vectors agree for the plus pair and for the minus pair."""
    return a[0] == b[0] and a[1] == b[1]
