"""Betti numbers of cubical sets, given as cell masks.

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
from typing import TYPE_CHECKING

import numpy as np

from .cubical import cubical_approx, sign_grid

if TYPE_CHECKING:
    from .admissibility import _FinePass

__all__ = [
    "BettiVector",
    "cell_betti",
    "betti_pair",
    "reference_betti",
    "homology_match",
]


def connected_components(mask: np.ndarray) -> int:
    """Number of 8-connected components of a 2D boolean mask."""
    return cell_betti(mask).b0


@dataclass(frozen=True)
class BettiVector:
    b0: int
    b1: int = 0

    def as_list(self) -> list:
        return [self.b0, self.b1]


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
            if (up == parent).all():
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


def betti_pair(grid) -> tuple:
    """(Betti(Q+), Betti(Q-)) for a sign grid."""
    return (cell_betti(cubical_approx(grid, +1)),
            cell_betti(cubical_approx(grid, -1)))


def reference_betti(r, M_ref: int, zero_tol: float = 0.0, *,
                    fine: _FinePass | None = None):
    """Fine-grid ground-truth Betti pair for the nodal domains of ``r``.

    Computes the Betti pair at resolution M_ref and again at 2*M_ref;
    returns the pair only if the two agree (and neither grid has
    zero-flagged samples), else None ("unresolved", the trial should be
    discarded and counted separately).  A 2D fine pass ``fine`` of
    :func:`~nodalcheck.admissibility.validate_2d` is handed to both
    :func:`~nodalcheck.cubical.sign_grid` calls, which read the grids it
    nests from it; the pair is the same as without it.
    """
    g1 = sign_grid(r, M_ref, zero_tol, fine=fine)
    g2 = sign_grid(r, 2 * M_ref, zero_tol, fine=fine)
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
