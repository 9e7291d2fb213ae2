"""Betti numbers of cubical sets, given as sign grids or cell masks.

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
of components of the run graph and beta_1 = E - R + beta_0.
Planar cubical sets have no torsion and no H_2, so the Betti pair
determines the homology.

One kernel gives both sets of a sign grid, Q+ (signs +1 and 0) and Q-
(signs -1 and 0).  It lays the rows end to end, each followed by a
separator cell, and finds in one scan every place where the cell class
(minus, zero-flagged, plus or separator) changes; the runs of Q+ and of
Q- start and stop at some of those places.  A one-row (1D) grid has no
edges, so its Betti numbers are its run counts, with no union-find.
Otherwise one union-find labels the runs of both sets: each run first
hooks onto its leftmost run in the row above, so no tree is deeper than
rows - 1 and (rows - 1).bit_length() pointer jumps reach every root;
only the runs that meet two or more runs above go on to the
hook-and-compress loop.  A cell mask is read as the signs +1 on its
cells and -1 off them, and its Betti numbers are those of Q+.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cubical import sign_grid

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
    """Betti numbers of the union of the closed cells of a 1D or 2D mask.

    The Q+ half of :func:`betti_pair`'s kernel, with the mask read as the
    signs +1 on its cells and -1 off them.  Any other number of
    dimensions raises ``ValueError``.
    """
    m = np.asarray(mask, dtype=bool)
    return _sign_betti(np.where(m, np.int8(1), np.int8(-1)))[0]


def betti_pair(grid) -> tuple:
    """(Betti(Q+), Betti(Q-)) for a sign grid, from one scan of its signs.

    A one-row grid returns the run counts of both sets, with b1 = 0 and
    no union-find.  Otherwise one scan finds every place where the cell
    class changes, the run boundaries of both sets, and one union-find
    labels the runs of both; its first (rows - 1).bit_length() pointer
    jumps are not checked for convergence (see the module docstring).
    """
    return _sign_betti(grid.signs)


def _sign_betti(signs: np.ndarray) -> tuple:
    """(Betti(Q+), Betti(Q-)) of a 1D or 2D int8 array of signs -1, 0, +1."""
    s = signs[None, :] if signs.ndim == 1 else signs
    if s.ndim != 2:
        raise ValueError("mask must be 1D or 2D")
    rows, n = s.shape
    # rows laid end to end, each followed by a separator cell, behind one
    # separator cell; the class v = s + 2 is 1 for minus, 2 for
    # zero-flagged (in both sets), 3 for plus and 0 for a separator, so
    # no run crosses a row end
    w = n + 1
    v = np.zeros(rows * w + 1, dtype=np.int8)
    np.add(s, 2, out=v[1:].reshape(rows, w)[:, :n])
    # Q+ is v >= 2 and Q- is 1 <= v <= 2, that is v - 1 <= 1 as a uint8
    if rows == 1:
        # no edges: beta_0 is the number of run starts and beta_1 = 0
        return tuple(BettiVector(int(np.count_nonzero(m[1:] > m[:-1])))
                     for m in (v >= 2, (v - 1).view(np.uint8) <= 1))
    # every place the class changes; the runs of each set start and stop
    # at some of them, starts and stops alternating
    flips = np.flatnonzero(v[1:] != v[:-1])
    old, new = v[flips], v[flips + 1]
    plus = flips[(old >= 2) != (new >= 2)]
    minus = flips[((old - 1).view(np.uint8) <= 1)
                  != ((new - 1).view(np.uint8) <= 1)]
    # one run graph for both sets: the minus rows follow the plus rows
    # after one empty row, so no run of one set meets a run of the other
    flips = np.concatenate((plus, minus + (rows + 1) * w))
    starts, stops = flips[0::2], flips[1::2]  # flat positions, stop exclusive
    R, R_plus = starts.size, plus.size // 2
    # run b meets run a of the row above iff s_a <= e_b - w and
    # e_a >= s_b - w: the runs lo[b] .. hi[b] - 1, none from other rows
    lo = np.searchsorted(stops, starts - w)
    hi = np.searchsorted(starts, stops - w, "right")
    counts = hi - lo
    # union-find: each run hooks onto lo[b], its leftmost run above, so
    # every path to a root climbs at most rows - 1 rows and
    # (rows - 1).bit_length() jumps reach the roots; then, until the other
    # edges of the runs that meet two or more runs above each join one
    # tree, hook the larger root of each split edge onto the smaller and
    # compress
    ids = np.arange(R)
    parent = np.where(counts > 0, lo, ids)
    for _ in range((rows - 1).bit_length()):
        parent = parent[parent]
    multi = np.flatnonzero(counts > 1)
    k = counts[multi] - 1
    b = np.repeat(multi, k)
    a = np.arange(b.size) + np.repeat(lo[multi] + 1 - (np.cumsum(k) - k), k)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up
    roots = parent == ids
    out = []
    for part in (slice(None, R_plus), slice(R_plus, None)):
        b0 = int(np.count_nonzero(roots[part]))
        E = int(counts[part].sum())
        out.append(BettiVector(b0, E - roots[part].size + b0))
    return tuple(out)


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
