"""Random periodic Fourier series in one and two dimensions.

A coefficient sequence fixes the law of the random field; a realization
is one draw of the Gaussian coefficients.  Everything downstream
(sign grids, admissibility checks, probability bounds) consumes these
two objects.

Randomness contract: all draws come from numpy's Philox counter-based
bit generator keyed through ``SeedSequence``, with per-trial substreams
derived by :func:`derive_seed`.  Normal variates use numpy's
``standard_normal`` (ziggurat); identical ``(coeffs, seed)`` always
reproduces the identical realization.

Signs are decided in one place each: :func:`_bound_test` splits values
into u > +b and u < -b, for the zero-flag classes (b = zero_tol, a value
in neither class is flagged, NaN too) and for the corner proofs of the
2D validator (b = its margin); :func:`_sign_changes` finds where the
``signbit`` of a sampled sequence flips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

__all__ = [
    "CoeffSeq1D",
    "CoeffSeq2D",
    "Realization1D",
    "Realization2D",
    "SpectralMoments1D",
    "SpectralMoments2D",
    "trig_coeffs",
    "derive_seed",
    "draw_realization",
    "evaluate",
    "evaluate_grid_1d",
    "jet_1d",
    "classify_grid_2d",
    "spectral_moments",
    "covariance",
    "coeffs_to_json",
    "coeffs_from_json",
    "realization_to_json",
    "realization_from_json",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    a = np.asarray(arr, dtype=float).copy()
    a.flags.writeable = False
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CoeffSeq1D:
    """Deterministic coefficients a_0..a_K of a 1D random Fourier series on [0, L]."""

    L: float
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(self.a))
        if self.L <= 0:
            raise ValueError("period L must be positive")
        if self.a.ndim != 1 or self.a.size == 0:
            raise ValueError("a must be a nonempty 1D coefficient sequence")
        if np.count_nonzero(self.a) < 2:
            raise ValueError("at least two coefficients a_k must be nonzero")

    @property
    def K(self) -> int:
        return self.a.size - 1

    @property
    def dim(self) -> int:
        return 1

    @cached_property
    def moments(self) -> SpectralMoments1D:
        """A_l = sum_k k^(2l) a_k^2 for l = 0..3 (read-only)."""
        k = np.arange(self.K + 1, dtype=float)
        a2 = self.a**2
        return SpectralMoments1D(A=MappingProxyType(
            {ell: float(np.sum(k ** (2 * ell) * a2)) for ell in range(4)}))


def _has_valid_2d_pair(a: np.ndarray) -> bool:
    """Check the 2D nondegeneracy condition on the coefficient array.

    There must be indices (k1, l1) with k1, l1 >= 1 and (k2, l2) with
    k1 != k2, l1 != l2 and k1^2 + l1^2 != k2^2 + l2^2 such that both
    coefficients are nonzero.
    """
    nz = np.argwhere(a != 0.0)
    for k1, l1 in nz:
        if k1 < 1 or l1 < 1:
            continue
        for k2, l2 in nz:
            if k1 != k2 and l1 != l2 and k1 * k1 + l1 * l1 != k2 * k2 + l2 * l2:
                return True
    return False


@dataclass(frozen=True)
class CoeffSeq2D:
    """Deterministic coefficients a_{k,l}, 0 <= k, l <= K, of a doubly periodic series."""

    L: float
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(self.a))
        if self.L <= 0:
            raise ValueError("period L must be positive")
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("a must be a square 2D coefficient array")
        if not _has_valid_2d_pair(self.a):
            raise ValueError(
                "coefficients violate the 2D nondegeneracy condition: need "
                "a_{k1,l1} != 0 with k1,l1 >= 1 and a second nonzero a_{k2,l2} "
                "with k1 != k2, l1 != l2, k1^2+l1^2 != k2^2+l2^2"
            )

    @property
    def K(self) -> int:
        return self.a.shape[0] - 1

    @property
    def dim(self) -> int:
        return 2

    @cached_property
    def moments(self) -> SpectralMoments2D:
        """A_{p,q} = sum_{k,l} k^(2p) l^(2q) a_{k,l}^2 for p + q <= 2 (read-only)."""
        k = np.arange(self.K + 1, dtype=float)
        a2 = self.a**2
        return SpectralMoments2D(A=MappingProxyType(
            {(p, q): float(k ** (2 * p) @ a2 @ k ** (2 * q))
             for p in range(3) for q in range(3 - p)}))


@dataclass(frozen=True)
class Realization1D:
    """One sample of the 1D series: coefficients plus 2K+1 standard-normal draws.

    g[2k] multiplies cos(2 pi k x / L) and g[2k-1] multiplies
    sin(2 pi k x / L); the k = 0 term only carries g[0].
    """

    coeffs: CoeffSeq1D
    g: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "g", _freeze(self.g))
        if self.g.shape != (2 * self.coeffs.K + 1,):
            raise ValueError("g must have exactly 2K+1 entries")

    @property
    def dim(self) -> int:
        return 1

    @cached_property
    def spectrum(self) -> np.ndarray:
        """c_0 = a_0 g_0 and c_k = a_k (g_2k - i g_2k-1), k = 1..K (read-only).

        u(x) = Re sum_k c_k e^(2 pi i k x / L).
        """
        a, g = self.coeffs.a, self.g
        return _readonly(a * (g[0::2] - 1j * np.append(0.0, g[1::2])))

    def __call__(self, x):
        return evaluate(self, x)


# Each computed value of u is a sum of 2(K+1) products of entries of W
# with trig values whose phases reach 2 pi K, so its rounding error is a
# small multiple of (K+1) * 1e-16 * sum |W|.  The bound below leaves a
# factor of about 1e3 on top of that.
_ROUNDING = 1e-12


@dataclass(frozen=True)
class Realization2D:
    """One sample of the 2D series: g has shape (K+1, K+1, 4).

    The last axis indexes the cos*cos, cos*sin, sin*cos, sin*sin terms,
    in that order.
    """

    coeffs: CoeffSeq2D
    g: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "g", _freeze(self.g))
        K = self.coeffs.K
        if self.g.shape != (K + 1, K + 1, 4):
            raise ValueError("g must have shape (K+1, K+1, 4)")

    @property
    def dim(self) -> int:
        return 2

    @cached_property
    def weights(self) -> np.ndarray:
        """W = [[a g0, a g1], [a g2, a g3]], so that u(x1, x2) = A(x1) W A(x2)^T.

        Read-only, like every constant cached below.
        """
        ag = self.coeffs.a[:, :, None] * self.g
        return _readonly(np.block([[ag[:, :, 0], ag[:, :, 1]],
                                   [ag[:, :, 2], ag[:, :, 3]]]))

    @cached_property
    def hessian_bounds(self) -> tuple:
        """(H11, H22): bounds on |d2u/dx1^2| and |d2u/dx2^2| everywhere.

        Entry (p, q) of W multiplies a product of two trig functions of
        frequencies omega k_p and omega k_q (omega = 2 pi / L), so
        H11 = sum (omega k_p)^2 |W_pq| and H22 = sum (omega k_q)^2 |W_pq|.
        """
        w, K, L = np.abs(self.weights), self.coeffs.K, self.coeffs.L
        omega = np.tile(2.0 * np.pi * np.arange(K + 1) / L, 2)  # per column
        return float(omega**2 @ w.sum(axis=1)), float(w.sum(axis=0) @ omega**2)

    @cached_property
    def rounding_bound(self) -> float:
        """Bound on the rounding error of any value of u computed in this module."""
        return _ROUNDING * (self.coeffs.K + 1) * float(np.abs(self.weights).sum())

    def __call__(self, x):
        return evaluate(self, x)


@dataclass(frozen=True)
class SpectralMoments1D:
    """Moments A_l = sum_k k^{2l} a_k^2 for l = 0..3."""

    A: dict

    def __getitem__(self, ell: int) -> float:
        return self.A[ell]


@dataclass(frozen=True)
class SpectralMoments2D:
    """Moments A_{p,q} = sum_{k,l} k^{2p} l^{2q} a_{k,l}^2 for p + q <= 2."""

    A: dict

    def __getitem__(self, pq) -> float:
        return self.A[tuple(pq)]


@lru_cache(maxsize=16)
def trig_coeffs(dim: int, N: int):
    """Coefficients of the degree-N random trigonometric polynomial (L = 2 pi).

    1D: a_k = 1 for 1 <= k <= N, a_0 = 0.  2D: a_{k,l} = 1 for
    1 <= k, l <= N, zero otherwise.  Requires N >= 2 so that the
    nondegeneracy conditions hold.  The frozen result is cached, with
    its ``moments``, so a run of one-trial experiments builds it once.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    L = 2.0 * np.pi
    if dim == 1:
        a = np.ones(N + 1)
        a[0] = 0.0
        return CoeffSeq1D(L=L, a=a)
    if dim == 2:
        a = np.ones((N + 1, N + 1))
        a[0, :] = 0.0
        a[:, 0] = 0.0
        return CoeffSeq2D(L=L, a=a)
    raise ValueError("dim must be 1 or 2")


def derive_seed(master_seed: int, *indices: int) -> int:
    """Derive a 64-bit substream seed from a master seed and trial indices.

    Uses numpy's SeedSequence hashing, so substreams are independent of
    the order in which trials are executed.
    """
    ss = np.random.SeedSequence([int(master_seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def draw_realization(coeffs, seed: int):
    """Draw one realization: i.i.d. N(0,1) Gaussians from the Philox stream `seed`."""
    rng = _rng(seed)
    if isinstance(coeffs, CoeffSeq1D):
        g = rng.standard_normal(2 * coeffs.K + 1)
        return Realization1D(coeffs=coeffs, g=g, seed=int(seed))
    if isinstance(coeffs, CoeffSeq2D):
        K = coeffs.K
        g = rng.standard_normal((K + 1, K + 1, 4))
        return Realization2D(coeffs=coeffs, g=g, seed=int(seed))
    raise TypeError("coeffs must be CoeffSeq1D or CoeffSeq2D")


def _check_domain(x: np.ndarray, L: float):
    # written as "every point is inside", so that NaN is rejected too
    if not np.all((x >= -1e-9 * L) & (x <= L * (1 + 1e-9))):
        raise ValueError("evaluation point outside [0, L]")


def evaluate(r, x):
    """Evaluate a realization at a point (or array of points) of [0, L]^dim."""
    if isinstance(r, Realization1D):
        x = np.asarray(x, dtype=float)
        _check_domain(x, r.coeffs.L)
        return _eval_1d(r, x)
    if isinstance(r, Realization2D):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 2:
            raise ValueError("2D evaluation point must have two components")
        _check_domain(x, r.coeffs.L)
        return _eval_2d(r, x[..., 0], x[..., 1])
    raise TypeError("r must be a Realization1D or Realization2D")


def _powers_1d(r: Realization1D, x: np.ndarray) -> np.ndarray:
    """The powers z^0..z^K of z = e^(2 pi i x / L), shape (K + 1, x.size).

    One complex ``exp`` per point and a running product along the
    leading frequency axis replace 2(K + 1) ``cos``/``sin`` calls.  The
    power z^k carries a relative error of about k ulps, so a sum
    Re sum_k c_k z^k is within a small multiple of (K + 1) ulps of
    sum |c_k|, the rounding level of the cosine and sine sums.
    """
    powers = np.empty((r.spectrum.size, x.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = np.exp((2j * np.pi / r.coeffs.L) * x.ravel())
    np.cumprod(powers, axis=0, out=powers)
    return powers


def _eval_1d(r: Realization1D, x: np.ndarray):
    """u(x) = Re sum_k c_k z^k, z = e^(2 pi i x / L), c the cached spectrum."""
    out = (r.spectrum @ _powers_1d(r, x)).real.reshape(x.shape)
    return out if out.shape else float(out)


def jet_1d(r: Realization1D, x: np.ndarray) -> tuple:
    """(u(x), u'(x)) at a 1D array of points, from one set of powers z^k.

    u' = Re sum_k (2 pi i k / L) c_k z^k.  The values of u are the ones
    :func:`evaluate` computes, bit for bit.  The points are not checked
    against [0, L]: the periodic series is evaluated at any real x.
    """
    c, powers = r.spectrum, _powers_1d(r, x)
    dc = c * ((2j * np.pi / r.coeffs.L) * np.arange(c.size))
    return (c @ powers).real, (dc @ powers).real


def evaluate_grid_1d(r: Realization1D, n: int) -> np.ndarray:
    """Evaluate a 1D realization at the n + 1 grid points j L / n, j = 0..n.

    u is a trigonometric polynomial of degree K, so its values on a
    periodic grid are the inverse DFT of its coefficients: one inverse
    real FFT with X_0 = size c_0 and X_k = size/2 c_k, c the cached
    ``Realization1D.spectrum``.  The transform runs at size = n m,
    m = ceil((2K + 1) / n), so that every frequency k <= K lies below the
    Nyquist one; every m-th value is kept, and v[n] = v[0] by
    periodicity.  The transform writes into a buffer of size + m values
    whose entry ``size`` is then set to its first, so the result is a
    view of every m-th entry, with no copy.  The values agree with
    :func:`evaluate` at those points to rounding level, at O(n log n)
    cost instead of K complex products per point.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    c = r.spectrum
    m = -(-(2 * c.size - 1) // n)
    size = n * m
    X = 0.5 * size * c
    X[0] = size * c[0]
    out = np.empty(size + m)
    np.fft.irfft(X, size, out=out[:size])
    out[size] = out[0]
    return out[::m]


def _trig_block(L: float, K: int, x) -> np.ndarray:
    """A(x) = [cos | sin](2 pi k x / L), k = 0..K, along a new last axis."""
    k = np.arange(K + 1)
    x = np.asarray(x, dtype=float)
    phase = 2.0 * np.pi * np.multiply.outer(x, k) / L
    return np.concatenate((np.cos(phase), np.sin(phase)), axis=-1)


def _trig_blocks(coeffs, x1, x2) -> tuple:
    """(A(x1), A(x2)), built once when the two axes hold the same values."""
    A1 = _trig_block(coeffs.L, coeffs.K, x1)
    return A1, (A1 if np.array_equal(x1, x2)
                else _trig_block(coeffs.L, coeffs.K, x2))


def _row_blocks(A: np.ndarray, width: int) -> np.ndarray:
    """A in blocks of ``width`` rows: entry q is
    ``A[q * width:(q + 1) * width]``, the last row of A repeated past it."""
    count = -(-len(A) // width)
    return np.pad(A, ((0, count * width - len(A)), (0, 0)),
                  mode="edge").reshape(count, width, -1)


def _column_blocks(A: np.ndarray, width: int) -> np.ndarray:
    """A^T in blocks of ``width`` columns: entry q is
    ``A[q * width:(q + 1) * width].T``, the last row of A repeated past it.

    C-contiguous, so that a window's columns are one contiguous block,
    laid out as the window product reads them.
    """
    return np.ascontiguousarray(_row_blocks(A, width).transpose(0, 2, 1))


@lru_cache(maxsize=16)
def _lattice_table(L: float, K: int, n: int, width: int = 1) -> tuple:
    """``(A, blocks)``: A(x) on the lattice x = arange(n + 1) * (L / n)
    and its transpose in blocks of ``width`` columns
    (:func:`_column_blocks`), read-only and cached.

    The 2D grids of a Monte Carlo run lie on a few lattices that depend
    on (L, K) and the resolution only, not on the draw: a 2D homology
    trial at M = 8, 16, 32, D = 6 reads one of them, the fine lattice of
    its validations (n = 4096).  Its sign grids (n = 8, 16, 32) and
    reference grids (256, 512) are read from its fine pass
    (:func:`~nodalcheck.cubical.sign_grid`); only a grid with zero flags,
    or off that pass's nest, reads a table of its own.  The blocks are
    what :func:`_window_classifier` takes the columns of its windows
    from, one block per window of the pass's subsquare width.
    At most 16 pairs are kept, the least recently used dropped first.  A
    table holds 16 (K + 1)(n + 1) bytes and its blocks at most
    16 (K + 1)(n + width) bytes, so the cache holds at most about
    512 (K + 1)(n + 1) bytes for the largest K and n in it: 8.4 MB at
    K = 3, n = 4096, where the one pair of that trial takes 0.52 MB.
    A table is no larger than the product A(x) W its caller
    forms from it.  A is computed point by point, so a strided run of
    rows is the table of those points: ``validate_2d`` reads its coarse
    grid (its subsquare corners) as every S-th row of the fine table, and
    the lattice of n / 2^p steps as every 2^p-th row of the lattice of n.
    """
    table = _trig_block(L, K, np.arange(n + 1) * (L / n))
    return _readonly(table), _readonly(_column_blocks(table, width))


def _eval_2d(r: Realization2D, x1, x2):
    L, K = r.coeffs.L, r.coeffs.K
    out = np.sum((_trig_block(L, K, x1) @ r.weights) * _trig_block(L, K, x2),
                 axis=-1)
    return out if out.shape else float(out)


# Rows of x1 per band of the tensor-grid evaluation: the float scratch is
# _BAND_ROWS * len(x2) values (2 MB for a 4097-point axis), small enough to
# stay in cache while it is classified.
_BAND_ROWS = 64


def _grid_bands(r: Realization2D, A1: np.ndarray, A2: np.ndarray):
    """Yield ``(rows, u[rows, :])`` on the tensor grid x1 (x) x2, band by band.

    The grid is given by its tables A1 = A(x1) and A2 = A(x2).  One block
    product [C1 S1] W [C2 S2]^T per band.  The yielded values live in one
    scratch buffer that the next band overwrites.
    """
    left, right = A1 @ r.weights, A2.T
    n = len(left)
    buf = np.empty((min(n, _BAND_ROWS), right.shape[1]))
    for start in range(0, n, _BAND_ROWS):
        stop = min(start + _BAND_ROWS, n)
        yield slice(start, stop), np.matmul(left[start:stop], right,
                                            out=buf[: stop - start])


def evaluate_grid_2d(r: Realization2D, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Evaluate a 2D realization on the tensor grid x1 (x) x2.

    Uses the separable structure of the series, the block product
    [C1 S1] W [C2 S2]^T, instead of len(x1)*len(x2) independent sums.
    Returns an array of shape (len(x1), len(x2)).
    """
    out = np.empty((len(x1), len(x2)))
    for rows, values in _grid_bands(r, *_trig_blocks(r.coeffs, x1, x2)):
        out[rows] = values
    return out


def classify_grid_2d(r: Realization2D, x1, x2, zero_tol: float) -> tuple:
    """Sign classes of a 2D realization on the tensor grid x1 (x) x2.

    Returns ``(positive, zeros)``: the boolean grid of u > zero_tol and
    the number of zero-flagged points, where neither u > zero_tol nor
    u < -zero_tol holds (so NaN is flagged).  The values are those of
    :func:`evaluate_grid_2d`, classified band by band, so no float grid
    of the full size is ever formed.
    """
    positive, negative = _classify_grid(r, *_trig_blocks(r.coeffs, x1, x2),
                                        zero_tol)
    signed = np.count_nonzero(positive) + np.count_nonzero(negative)
    return positive, positive.size - signed


def _check_zero_tol(zero_tol: float) -> None:
    """Raise ``ValueError`` unless ``zero_tol`` is finite and nonnegative;
    a NaN or infinite tolerance would flag every point."""
    if not 0 <= zero_tol < np.inf:
        raise ValueError("zero_tol must be finite and nonnegative")


def _bound_test(values, bound: float, above=None, below=None) -> tuple:
    """``(values > bound, values < -bound)`` elementwise, written into the
    boolean arrays ``above`` and ``below`` when they are given.

    The one place where a sign of u is decided against a bound: at
    b = zero_tol a value in neither class is zero-flagged (NaN too), and
    ``validate_2d``'s corner proof takes its corners at b = its margin.
    """
    return (np.greater(values, bound, out=above),
            np.less(values, -bound, out=below))


def _sign_changes(v: np.ndarray) -> np.ndarray:
    """The indices i at which ``signbit`` differs between v[i] and v[i + 1]."""
    neg = np.signbit(v)
    return np.flatnonzero(neg[1:] != neg[:-1])


def _classify_grid(r: Realization2D, A1, A2, zero_tol: float) -> tuple:
    """``(positive, negative)`` on the tensor grid of the tables
    A1 = A(x1) and A2 = A(x2): the :func:`_bound_test` at ``zero_tol``,
    band by band."""
    _check_zero_tol(zero_tol)
    positive = np.empty((len(A1), len(A2)), dtype=bool)
    negative = np.empty_like(positive)
    for rows, values in _grid_bands(r, A1, A2):
        _bound_test(values, zero_tol, positive[rows], negative[rows])
    return positive, negative


def _window_classifier(r: Realization2D, A1, blocks, zero_tol: float):
    """Sign classes of a 2D realization on stacks of windows of the grid x1 (x) x2.

    The grid is given by the table A1 = A(x1) and ``blocks``, the table
    A(x2) transposed in blocks of w columns (:func:`_column_blocks`).
    Returns ``classify(a, b) -> (positive, flagged)``.  Window k is the
    w x w tensor grid ``x1[a[k] w:(a[k] + 1) w] (x) x2[b[k] w:(b[k] + 1) w]``,
    the last point of each axis repeated past its end; both results are
    (n, w, w) booleans with the zero-flag rule of :func:`classify_grid_2d`.
    The factor A(x1) W is formed once, in blocks of w rows
    (:func:`_row_blocks`), and each window is the product of one block of
    each.
    """
    _check_zero_tol(zero_tol)
    rows = _row_blocks(A1 @ r.weights, blocks.shape[-1])

    def classify(a, b):
        positive, flagged = _bound_test(np.matmul(rows[a], blocks[b]),
                                        zero_tol)
        flagged |= positive
        return positive, np.logical_not(flagged, out=flagged)

    return classify


def spectral_moments(coeffs):
    """Spectral moments of a coefficient sequence (finite exact sums).

    They are computed once per coefficient object and cached as its
    ``moments``.
    """
    if isinstance(coeffs, (CoeffSeq1D, CoeffSeq2D)):
        return coeffs.moments
    raise TypeError("coeffs must be CoeffSeq1D or CoeffSeq2D")


def covariance(coeffs, lag):
    """Stationary covariance r(lag) of the random series.

    1D: sum_k a_k^2 cos(2 pi k lag / L).  2D: the product-cosine double
    sum with lag = (d1, d2).  Defined for every lag (entire, periodic).
    """
    if isinstance(coeffs, CoeffSeq1D):
        lag = np.asarray(lag, dtype=float)
        k = np.arange(coeffs.K + 1)
        phase = 2.0 * np.pi * np.multiply.outer(lag, k) / coeffs.L
        out = np.cos(phase) @ (coeffs.a**2)
        return out if out.shape else float(out)
    if isinstance(coeffs, CoeffSeq2D):
        lag = np.asarray(lag, dtype=float)
        k = np.arange(coeffs.K + 1)
        p1 = 2.0 * np.pi * np.multiply.outer(lag[..., 0], k) / coeffs.L
        p2 = 2.0 * np.pi * np.multiply.outer(lag[..., 1], k) / coeffs.L
        out = np.einsum("...k,kl,...l->...", np.cos(p1), coeffs.a**2, np.cos(p2))
        return out if out.shape else float(out)
    raise TypeError("coeffs must be CoeffSeq1D or CoeffSeq2D")


# ---------------------------------------------------------------------------
# JSON interchange: {dim, L, K, a} for coefficients, plus {seed, g} for draws.


def _json_object(text: str, kind: str, keys) -> dict:
    """Parse a JSON file's text as an object that holds every one of ``keys``."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"a {kind} file must hold a JSON object")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{kind} file has no {key!r} key")
    return payload


def coeffs_to_json(coeffs) -> str:
    payload = {
        "dim": coeffs.dim,
        "L": coeffs.L,
        "K": coeffs.K,
        "a": coeffs.a.tolist(),
    }
    return json.dumps(payload)


def coeffs_from_json(text: str):
    payload = _json_object(text, "coefficient", ("dim", "L", "a"))
    dim = payload["dim"]
    a = np.asarray(payload["a"], dtype=float)
    if dim == 1:
        return CoeffSeq1D(L=float(payload["L"]), a=a)
    if dim == 2:
        return CoeffSeq2D(L=float(payload["L"]), a=a)
    raise ValueError(f"unsupported dim {dim!r} in coefficient file")


def realization_to_json(r) -> str:
    payload = json.loads(coeffs_to_json(r.coeffs))
    payload["seed"] = r.seed
    payload["g"] = r.g.tolist()
    return json.dumps(payload)


def realization_from_json(text: str):
    payload = _json_object(text, "realization", ("dim", "L", "a", "seed", "g"))
    coeffs = coeffs_from_json(text)
    g = np.asarray(payload["g"], dtype=float)
    seed = int(payload["seed"])
    if payload["dim"] == 1:
        return Realization1D(coeffs=coeffs, g=g, seed=seed)
    return Realization2D(coeffs=coeffs, g=g, seed=seed)
