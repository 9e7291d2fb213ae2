"""Independent oracles used only by the tests.

The brute-force homology oracle works on the face closure of a 2D cell
mask drawn on a fine pixel canvas: each unit cell becomes a 2x2 pixel
block plus shared boundary pixels, so the canvas is the actual point set
of the closed cubical set.  beta_0 is 8-connected flood fill on the
canvas (closed sets touch through corners); beta_1 counts bounded
complement regions by 4-connected flood fill from the canvas border
(open complement does not pass through corners).

The second half keeps the slow, straightforward formulations of the 1D
and 2D evaluators, the dyadic sweeps, the component count and the
labelling Betti path, which the library replaced with fused code; the
equivalence tests compare against them.

Then comes a grid-free 1D oracle: every zero of a 1D field from the
roots of one polynomial, and the Betti pair of its two sets from them.

Last come two general-purpose orthant estimators, plain Monte Carlo and
Genz's quasi-Monte Carlo integrator, which cross-check the closed forms
and the importance sampler of ``nodalcheck.orthant``.
"""

import math
from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage
from scipy.stats import multivariate_normal

from nodalcheck import fields


def rasterize(cells: np.ndarray) -> np.ndarray:
    """Paint each unit cell as a 3x3 pixel block on a (2n+1)^2 canvas."""
    cells = np.asarray(cells, dtype=bool)
    n0, n1 = cells.shape
    canvas = np.zeros((2 * n0 + 1, 2 * n1 + 1), dtype=bool)
    for i in range(n0):
        for j in range(n1):
            if cells[i, j]:
                canvas[2 * i : 2 * i + 3, 2 * j : 2 * j + 3] = True
    return canvas


def _flood_count(mask: np.ndarray, diagonal: bool) -> int:
    seen = np.zeros_like(mask)
    if diagonal:
        steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                 if (di, dj) != (0, 0)]
    else:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    count = 0
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            if mask[i, j] and not seen[i, j]:
                count += 1
                queue = deque([(i, j)])
                seen[i, j] = True
                while queue:
                    a, b = queue.popleft()
                    for di, dj in steps:
                        x, y = a + di, b + dj
                        if (0 <= x < mask.shape[0] and 0 <= y < mask.shape[1]
                                and mask[x, y] and not seen[x, y]):
                            seen[x, y] = True
                            queue.append((x, y))
    return count


def betti_bruteforce(cells: np.ndarray) -> tuple:
    """(beta_0, beta_1) of the closed union of unit cells, by flood fill."""
    canvas = rasterize(cells)
    if not canvas.any():
        return 0, 0
    b0 = _flood_count(canvas, diagonal=True)
    # bounded complement regions: flood the complement, subtract the one
    # region touching the border
    comp = ~np.pad(canvas, 1)
    total = _flood_count(comp, diagonal=False)
    return b0, total - 1


# ---------------------------------------------------------------------------
# Slow reference paths


def eval_2d_einsum(r, x1, x2):
    """Pointwise 2D evaluation as four einsum contractions."""
    coeffs = r.coeffs
    k = np.arange(coeffs.K + 1)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    p1 = 2.0 * np.pi * np.multiply.outer(x1, k) / coeffs.L
    p2 = 2.0 * np.pi * np.multiply.outer(x2, k) / coeffs.L
    c1, s1 = np.cos(p1), np.sin(p1)
    c2, s2 = np.cos(p2), np.sin(p2)
    a = coeffs.a
    out = (
        np.einsum("...k,kl,...l->...", c1, a * r.g[:, :, 0], c2)
        + np.einsum("...k,kl,...l->...", c1, a * r.g[:, :, 1], s2)
        + np.einsum("...k,kl,...l->...", s1, a * r.g[:, :, 2], c2)
        + np.einsum("...k,kl,...l->...", s1, a * r.g[:, :, 3], s2)
    )
    return out if out.shape else float(out)


def eval_1d_trig(r, x):
    """Pointwise 1D evaluation as cosine and sine sums, 2(K + 1) trig calls per point."""
    coeffs = r.coeffs
    k = np.arange(coeffs.K + 1)
    phase = 2.0 * np.pi * np.multiply.outer(x, k) / coeffs.L  # (..., K+1)
    gc = coeffs.a * r.g[2 * k]
    gs = np.zeros_like(gc)
    gs[1:] = coeffs.a[1:] * r.g[2 * k[1:] - 1]
    out = np.cos(phase) @ gc + np.sin(phase) @ gs
    return out if out.shape else float(out)


def evaluate_grid_1d(r, n):
    """Trig-sum evaluation at the grid points j L / n, j = 0..n."""
    return eval_1d_trig(r, np.arange(n + 1) * (r.coeffs.L / n))


def evaluate_grid_2d(r, x1, x2):
    """Tensor-grid evaluation as four matrix products and three full adds."""
    coeffs = r.coeffs
    k = np.arange(coeffs.K + 1)
    p1 = 2.0 * np.pi * np.outer(x1, k) / coeffs.L
    p2 = 2.0 * np.pi * np.outer(x2, k) / coeffs.L
    c1, s1 = np.cos(p1), np.sin(p1)
    c2, s2 = np.cos(p2), np.sin(p2)
    a = coeffs.a
    return (
        c1 @ (a * r.g[:, :, 0]) @ c2.T
        + c1 @ (a * r.g[:, :, 1]) @ s2.T
        + s1 @ (a * r.g[:, :, 2]) @ c2.T
        + s1 @ (a * r.g[:, :, 3]) @ s2.T
    )


def sign_array(values, zero_tol):
    """int8 signs (+1, -1, 0 for zero-flagged) and the zero-flag count."""
    signs = np.zeros(values.shape, dtype=np.int8)
    signs[values > zero_tol] = 1
    signs[values < -zero_tol] = -1
    return signs, int(np.count_nonzero(signs == 0))


def codes_2d(positive, x0, y0, h, nx, ny):
    """9-bit stencil codes for subsquares with corners (x0 + 2h*i, y0 + 2h*j)."""
    codes = np.zeros((nx, ny), dtype=np.int16)
    bit = 0
    for a in range(3):
        for b in range(3):
            sl = positive[
                x0 + a * h : x0 + a * h + 2 * h * (nx - 1) + 1 : 2 * h,
                y0 + b * h : y0 + b * h + 2 * h * (ny - 1) + 1 : 2 * h,
            ]
            codes |= sl.astype(np.int16) << bit
            bit += 1
    return codes


def matches(pattern, values) -> bool:
    """Whether the nine signs ``values`` (row-major, +1 or -1) meet every
    position that ``pattern`` constrains: the oracle for one pattern."""
    return all(m == 0 or m == v for m, v in zip(pattern.mask, values))


def _pattern_ids_for_code(code, lib):
    values = [1 if code & (1 << i) else -1 for i in range(9)]
    return [p.id for p in lib.closure if matches(p, values)]


_MAX_VIOLATIONS = 200


def crossover_mask(v, h):
    """Double-crossover test on triples (v[i], v[i+h], v[i+2h]), i = 0, 2h, 4h, ..."""
    left = v[: v.size - 2 * h : 2 * h]
    mid = v[h : v.size - h : 2 * h]
    right = v[2 * h :: 2 * h]
    up = (left >= 0) & (mid <= 0) & (right >= 0)
    dn = (left <= 0) & (mid >= 0) & (right <= 0)
    return up | dn


def validate_1d(r, M, D, zero_tol):
    """Whole-grid 1D check on pointwise values, one crossover pass per level."""
    from nodalcheck.admissibility import ValidationOutcome

    unit = 1 << (D + 1)
    v = evaluate_grid_1d(r, M * unit)
    _, zeros = sign_array(v[::unit], zero_tol)
    if zeros:
        return ValidationOutcome("Degenerate", D, zero_flag_count=zeros)
    violations = []
    for n in range(D + 1):
        h = 1 << (D - n)
        for k in np.flatnonzero(crossover_mask(v, h)):
            start = int(k) * 2 * h  # fine index of the subinterval's left end
            violations.append((start // unit, n, "double-crossover"))
    if violations:
        return ValidationOutcome("NotCertified", D,
                                 tuple(sorted(violations)[:_MAX_VIOLATIONS]),
                                 violation_count=len(violations))
    return ValidationOutcome("Certified", D)


def square_outcome(r, square, D, lib, zero_tol, shifts, collect_all):
    """Single-square dyadic sweep: B (shifts=False) or I (shifts=True)."""
    from nodalcheck.admissibility import ValidationOutcome

    corner, delta = square
    cx, cy = float(corner[0]), float(corner[1])
    unit = 1 << (D + 1)
    margin = unit // 2 if shifts else 0
    total = unit + 2 * margin
    step = delta / unit
    xs = cx - margin * step + np.arange(total + 1) * step
    ys = cy - margin * step + np.arange(total + 1) * step
    signs, zeros = sign_array(evaluate_grid_2d(r, xs, ys), zero_tol)
    if zeros:
        return ValidationOutcome("Degenerate", D, zero_flag_count=zeros)
    positive = signs > 0
    table = lib.forbidden_table()
    offsets = [(0, 0)]
    violations = []
    for n in range(D + 1):
        h = 1 << (D - n)
        nside = 1 << n
        if shifts:
            offsets = [(0, 0), (h, 0), (-h, 0), (0, h), (0, -h)]
        for ox, oy in offsets:
            codes = codes_2d(positive, margin + ox, margin + oy, h, nside, nside)
            for i, j in np.argwhere(table[codes]):
                for pid in _pattern_ids_for_code(int(codes[i, j]), lib):
                    violations.append(((int(i), int(j)), n, pid))
        if violations and not collect_all:
            break
    if violations:
        return ValidationOutcome("NotCertified", D,
                                 tuple(sorted(violations)[:_MAX_VIOLATIONS]),
                                 violation_count=len(violations))
    return ValidationOutcome("Certified", D)


def validate_2d(r, M, D, zero_tol, collect_all, coll):
    """Whole-grid sweep with one code array per stencil offset and level."""
    from nodalcheck.admissibility import ValidationOutcome

    L = r.coeffs.L
    unit = 1 << (D + 1)
    G = M * unit
    xs = np.arange(G + 1) * (L / G)
    signs, zeros = sign_array(evaluate_grid_2d(r, xs, xs), zero_tol)
    if zeros:
        return ValidationOutcome("Degenerate", D, zero_flag_count=zeros)
    positive = signs > 0
    table_b = coll.B.forbidden_table()
    lib_i = coll.I
    table_i = lib_i.forbidden_table()
    violations = []
    for n in range(D + 1):
        h = 1 << (D - n)
        nside = M * (1 << n)
        codes = codes_2d(positive, 0, 0, h, nside, nside)
        parent = np.arange(nside) // (1 << n)
        on_edge = (parent == 0) | (parent == M - 1)
        boundary = on_edge[:, None] | on_edge[None, :]
        for i, j in np.argwhere(table_b[codes] & boundary):
            sq = (int(parent[i]), int(parent[j]))
            for pid in _pattern_ids_for_code(int(codes[i, j]), coll.B):
                violations.append((sq, n, pid))
        interior = ~boundary
        for ox, oy in ((0, 0), (h, 0), (-h, 0), (0, h), (0, -h)):
            i0, i1 = (1 if ox < 0 else 0), (nside - 1 if ox > 0 else nside)
            j0, j1 = (1 if oy < 0 else 0), (nside - 1 if oy > 0 else nside)
            codes_s = codes_2d(positive, i0 * 2 * h + ox, j0 * 2 * h + oy,
                               h, i1 - i0, j1 - j0)
            for i, j in np.argwhere(table_i[codes_s] & interior[i0:i1, j0:j1]):
                sq = (int(parent[i0 + i]), int(parent[j0 + j]))
                for pid in _pattern_ids_for_code(int(codes_s[i, j]), lib_i):
                    violations.append((sq, n, pid))
        if violations and not collect_all:
            break
    if violations:
        return ValidationOutcome("NotCertified", D,
                                 tuple(sorted(violations)[:_MAX_VIOLATIONS]),
                                 violation_count=len(violations))
    return ValidationOutcome("Certified", D)


class UnionFind:
    """Union-find with path compression; tracks the component count."""

    def __init__(self, size):
        self.parent = list(range(size))
        self.count = size

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri
            self.count -= 1


def connected_components_runs(mask):
    """8-connected component count by union-find over row runs."""
    mask = np.asarray(mask, dtype=bool)
    runs = []
    row_first = []
    for i in range(mask.shape[0]):
        row_first.append(len(runs))
        row = mask[i]
        d = np.diff(row.astype(np.int8))
        starts = list(np.flatnonzero(d == 1) + 1)
        stops = list(np.flatnonzero(d == -1) + 1)
        if row[0]:
            starts.insert(0, 0)
        if row[-1]:
            stops.append(row.size)
        runs.extend((i, a, b) for a, b in zip(starts, stops))
    row_first.append(len(runs))
    uf = UnionFind(len(runs))
    for i in range(1, mask.shape[0]):
        for rc in range(row_first[i], row_first[i + 1]):
            _, a, b = runs[rc]
            for rp in range(row_first[i - 1], row_first[i]):
                _, c, d_ = runs[rp]
                if c - 1 < b and a < d_ + 1:
                    uf.union(rc, rp)
    return uf.count if runs else 0


def euler(cells) -> int:
    """V - E + F of the face closure of a 1D or 2D cell mask.

    Cell k spans [k, k + 1] per axis; a vertex or an edge of the closure
    is one that bounds at least one cell of the mask.  In 1D F = 0.
    """
    c = np.asarray(cells, dtype=bool)
    p = np.zeros(np.add(c.shape, 2), dtype=bool)  # p[k + 1] is cell k
    p[(slice(1, -1),) * c.ndim] = c
    if c.ndim == 1:
        return int(np.count_nonzero(p[:-1] | p[1:]) - np.count_nonzero(c))
    # vertex (i, j) bounds cells (i - 1 or i, j - 1 or j)
    V = p[:-1, :-1] | p[:-1, 1:] | p[1:, :-1] | p[1:, 1:]
    # edge (i, j)-(i + 1, j) bounds cells (i, j - 1) and (i, j);
    # edge (i, j)-(i, j + 1) bounds cells (i - 1, j) and (i, j)
    E0 = p[1:-1, :-1] | p[1:-1, 1:]
    E1 = p[:-1, 1:-1] | p[1:, 1:-1]
    return int(np.count_nonzero(V) - np.count_nonzero(E0)
               - np.count_nonzero(E1) + np.count_nonzero(c))


def expected_euler(coeffs) -> float:
    """Mean Euler characteristic of {u >= 0}, and of {u <= 0}, on [0, L]^dim.

    The Gaussian kinematic formula at level 0, where only the terms of
    dimension 0 and 1 remain: 1/2 + L (sqrt(l1) + sqrt(l2)) / (2 pi) in
    2D, with l1 = w^2 A10 / A00, l2 = w^2 A01 / A00 and w = 2 pi / L the
    variances of the two partial derivatives over that of u; in 1D
    1/2 + L sqrt(l) / (2 pi) with l = w^2 A1 / A0, the mean number of
    upcrossings plus the half that the left end adds.
    """
    m = fields.spectral_moments(coeffs)
    w = 2 * math.pi / coeffs.L
    if coeffs.a.ndim == 1:
        ratios = [m[1] / m[0]]
    else:
        ratios = [m[1, 0] / m[0, 0], m[0, 1] / m[0, 0]]
    return 0.5 + coeffs.L * sum(math.sqrt(w * w * q) for q in ratios) / (
        2 * math.pi)


def betti_label(cells):
    """(beta_0, beta_1) of a square 1D or 2D cell mask: neighbour labels
    (corners included) for beta_0, the face closure's Euler characteristic
    for beta_1 = beta_0 - chi."""
    cells = np.asarray(cells, dtype=bool)
    dim = cells.ndim
    b0 = int(ndimage.label(cells, structure=np.ones((3,) * dim, dtype=bool))[1])
    return b0, b0 - euler(cells)


def closed_blocks(fine):
    """u > zero_tol on the closed (S + 1)^2 block of every subsquare of
    the lattice that a 2D fine pass leaves undecided, in the pass's
    order, each block evaluated whole, by the window classifier the pass
    used before it held half-open blocks."""
    r, S, Q = fine.r, fine.S, len(fine.level) - 1
    size = S + 1
    table = fields._lattice_table(r.coeffs.L, r.coeffs.K, fine.G)[0]
    left, right = table @ r.weights, np.ascontiguousarray(table.T)
    runs = sliding_window_view(left, size, axis=0).transpose(0, 2, 1)
    columns = sliding_window_view(right, size, axis=1).transpose(1, 0, 2)
    real = (fine.a < Q) & (fine.b < Q)
    return np.matmul(runs[fine.a[real] * S],
                     columns[fine.b[real] * S]) > fine.zero_tol


def validate_2d_dense(r, M, D, zero_tol, collect_all, coll):
    """The dense whole-grid path: classify every fine point, then one sweep."""
    from nodalcheck.admissibility import (ValidationOutcome, _sweep,
                                          _verdict)
    from nodalcheck.fields import classify_grid_2d

    G = M << (D + 1)
    xs = np.arange(G + 1) * (r.coeffs.L / G)
    positive, zeros = classify_grid_2d(r, xs, xs, zero_tol)
    if zeros:
        return ValidationOutcome("Degenerate", D, zero_flag_count=zeros)
    found = _sweep(positive, M, 1, 0, D, coll, collect_all)
    return _verdict(D, [((i >> n, j >> n), n, pid) for (i, j), n, pid in found])


def find_zeros_bisect(r, N):
    """Zeros of a 1D realization on [0, L): sign-change bracketing + bisection.

    The bracketing grid of 50 N steps is the library's
    (:func:`~nodalcheck.fields.evaluate_grid_1d`); each bisection step
    evaluates u pointwise at every bracket's midpoint.  Brackets shrink
    to (L / 50 N) 2^-steps <= 1e-12, and each zero is the final midpoint.
    """
    L = r.coeffs.L
    n_grid = 50 * N
    xs = np.arange(n_grid + 1) * (L / n_grid)
    v = fields.evaluate_grid_1d(r, n_grid)
    idx = np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))
    if idx.size == 0:
        return np.empty(0)
    lo, hi = xs[idx], xs[idx + 1]
    flo = v[idx]
    # vectorized bisection to 1e-12 absolute
    for _ in range(int(math.ceil(math.log2((L / n_grid) / 1e-12)))):
        mid = 0.5 * (lo + hi)
        fmid = r(mid)
        go_right = np.signbit(flo) == np.signbit(fmid)
        lo = np.where(go_right, mid, lo)
        flo = np.where(go_right, fmid, flo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def jet_1d_trig(r, x):
    """(u(x), u'(x)) as cosine and sine sums, 4(K + 1) trig calls per point."""
    coeffs = r.coeffs
    k = np.arange(coeffs.K + 1)
    omega = 2.0 * np.pi * k / coeffs.L
    phase = 2.0 * np.pi * np.multiply.outer(x, k) / coeffs.L  # (..., K+1)
    gc = coeffs.a * r.g[2 * k]
    gs = np.zeros_like(gc)
    gs[1:] = coeffs.a[1:] * r.g[2 * k[1:] - 1]
    cos, sin = np.cos(phase), np.sin(phase)
    return cos @ gc + sin @ gs, cos @ (omega * gs) - sin @ (omega * gc)


AMBIGUOUS = "ambiguous"
_ON_CIRCLE, _NEAR_CIRCLE = 1e-6, 1e-3


def zeros_1d(r):
    """The sorted zeros of a 1D realization in [0, L), or ``AMBIGUOUS``.

    With z = e^(2 pi i x / L) and c = ``r.spectrum``,
    z^K u(x) = P(z) = 1/2 sum_k (c_k z^(K+k) + conj(c_k) z^(K-k)), a
    polynomial of degree 2K, so the zeros of u are the angles of the
    roots of P on the unit circle, all found by one companion-matrix
    eigenproblem (``np.roots``).  A root with |1 - |z|| <= 1e-6 is a
    zero.  A nearly double zero can push a root pair off the circle by
    about sqrt(eps), so a root with 1e-6 < |1 - |z|| < 1e-3 is settled
    by the signs of u at its angle and on both sides of it, at the
    root's distance from the circle: one clear sign there means no zero.
    Any other root in that band makes the field ambiguous, and so do
    zeros whose gaps' midpoints do not alternate in sign, clear of
    rounding: a double zero, or a zero missed or counted twice.  No
    root is ever counted one way by default.
    """
    L, c = r.coeffs.L, r.spectrum
    K = c.size - 1
    poly = np.zeros(2 * K + 1, dtype=complex)  # z^(2K) first
    poly[:K + 1] += 0.5 * c[::-1]
    poly[K:] += 0.5 * np.conj(c)
    roots = np.roots(poly)
    off = np.abs(1.0 - np.abs(roots))
    angles = np.angle(roots) / (2.0 * np.pi) * L % L
    tol = 1e-12 * (K + 1) * float(np.abs(c).sum())

    def u(x):
        return eval_1d_trig(r, np.asarray(x) % L)

    band = (off > _ON_CIRCLE) & (off < _NEAR_CIRCLE)
    v = u(angles[band, None]
          + np.outer(off[band] * L / (2.0 * np.pi), [-1.0, 0.0, 1.0]))
    if not np.all(np.all(v > tol, axis=1) | np.all(v < -tol, axis=1)):
        return AMBIGUOUS
    zeros = np.sort(angles[off <= _ON_CIRCLE])
    if zeros.size:
        mids = (zeros + np.diff(zeros, append=zeros[0] + L) / 2.0) % L
        v = u(mids)
        if np.any(np.abs(v) <= tol) or np.any(v * np.roll(v, 1) > 0):
            return AMBIGUOUS
    return zeros


def betti_1d(r):
    """(b0 of {u >= 0}, b0 of {u <= 0}) on [0, L], or ``AMBIGUOUS``.

    The pieces of [0, L] between consecutive zeros of :func:`zeros_1d`
    and the ends are each of one sign; each run of pieces of one sign is
    one component of its set.
    """
    zeros = zeros_1d(r)
    if isinstance(zeros, str):
        return zeros
    cuts = np.concatenate(([0.0], zeros, [r.coeffs.L]))
    pieces = np.flatnonzero(np.diff(cuts) > 0)
    signs = np.sign(eval_1d_trig(r, (cuts[pieces] + cuts[pieces + 1]) / 2))
    runs = signs[np.flatnonzero(np.diff(signs, prepend=0))]
    return int(np.sum(runs > 0)), int(np.sum(runs < 0))


def _factor(cov):
    """A matrix F with F F^T = cov (Cholesky, or eigh for semidefinite input)."""
    try:
        return np.linalg.cholesky(cov.entries)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov.entries)
        floor = -1e-10 * max(vals.max(), 1.0)
        if vals.min() < floor:
            raise np.linalg.LinAlgError(
                "covariance is not positive semi-definite") from None
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def orthant_mc(q, samples, seed):
    """Monte Carlo orthant probability of an ``OrthantQuery``: (estimate, stderr)."""
    if samples < 1:
        raise ValueError("samples must be positive")
    F = _factor(q.cov)
    s = np.asarray(q.signs, dtype=float)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    hits = 0
    left = samples
    while left > 0:
        batch = min(left, 1 << 20)
        z = rng.standard_normal((batch, q.cov.n)) @ F.T
        hits += int(np.count_nonzero(np.all(s * z >= 0.0, axis=1)))
        left -= batch
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def orthant_genz(q, releps=1e-6):
    """Quasi-Monte Carlo orthant probability (Genz algorithm via scipy).

    Accurate for well-conditioned covariances; loses all precision on
    the near-degenerate stencil covariances at small delta, where
    ``orthant.orthant_numeric`` is needed.
    """
    s = np.asarray(q.signs, dtype=float)
    C = q.cov.entries * np.outer(s, s)
    # upper-orthant mass of N(0, C) equals the CDF at 0 by central symmetry
    return float(multivariate_normal.cdf(
        np.zeros(q.cov.n), mean=np.zeros(q.cov.n), cov=C,
        maxpts=20_000_000, abseps=0.0, releps=releps))
