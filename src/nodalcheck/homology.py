"""Betti numbers of cubical sets.

Connectivity is through shared faces of any dimension (two cells
touching only at a corner are connected), which matches the topology of
the union of closed cells.

The Betti numbers come from the graph of row runs.  A run is a maximal
horizontal segment of cells in one row; its closure is a closed
rectangle.  Two runs in adjacent rows meet iff their closed column
intervals [start, stop] overlap (a shared edge or a shared corner); runs
in the same row, or two or more rows apart, are disjoint, so no three
runs meet.  The runs therefore form a good closed cover whose nerve is
the run graph (R runs, E touching pairs), and by the nerve lemma the
cubical set is homotopy equivalent to that graph: beta_0 is the number
of components of the run graph and beta_1 = E - R + beta_0.  A 1D set
is a single row with no edges.
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
    "cell_betti",
    "betti",
    "betti_pair",
    "reference_betti",
    "homology_match",
]


def connected_components(mask: np.ndarray) -> int:
    """Number of 8-connected components of a 2D boolean mask."""
    return cell_betti(mask).b0


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


def cell_betti(mask: np.ndarray) -> BettiVector:
    """Betti numbers of the union of the closed cells of a 1D or 2D mask."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim == 1:
        m = m[None, :]
    rows, n = m.shape
    # rows laid end to end, each followed by one empty column, behind one
    # empty cell: runs never cross rows, and starts and stops alternate
    w = n + 1
    flat = np.zeros(rows * w + 1, dtype=bool)
    flat[1:].reshape(rows, w)[:, :n] = m
    flips = np.flatnonzero(flat[1:] != flat[:-1])
    starts, stops = flips[0::2], flips[1::2]  # flat positions, stop exclusive
    R = starts.size
    if rows == 1:
        return BettiVector(R, 0)
    # run b meets run a of the row above iff s_a <= e_b - w and
    # e_a >= s_b - w: the runs lo[b] .. hi[b] - 1, none from other rows
    lo = np.searchsorted(stops, starts - w)
    hi = np.searchsorted(starts, stops - w, "right")
    counts = hi - lo
    E = int(counts.sum())
    if E == 0:
        return BettiVector(R, 0)
    ids = np.arange(R)
    a = np.arange(E) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    b = np.repeat(ids, counts)
    # union-find: each run first hooks onto its leftmost run above; then,
    # until every edge joins one tree, compress to roots and hook the
    # larger root of each split edge onto the smaller
    parent = np.where(counts > 0, lo, ids)
    while True:
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
    b0 = int(np.count_nonzero(parent == ids))
    return BettiVector(b0, E - R + b0)


def betti(c: CubicalComplex) -> BettiVector:
    """Betti numbers of a face closure; the empty complex gives (0, 0)."""
    return cell_betti(c.faces if c.dim == 2 else c.edges_x)


def betti_pair(grid) -> tuple:
    """(betti(Q+), betti(Q-)) for a sign grid."""
    plus = cell_betti(cubical_approx(grid, +1).cells)
    minus = cell_betti(cubical_approx(grid, -1).cells)
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
