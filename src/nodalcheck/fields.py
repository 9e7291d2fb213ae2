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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    "classify_grid_2d",
    "window_classifier_2d",
    "sign_definite_2d",
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
        """(H11, H12, H22): bounds on |d2u/dx1^2|, |d2u/dx1dx2|, |d2u/dx2^2| everywhere.

        Entry (p, q) of W multiplies a product of two trig functions of
        frequencies omega k_p and omega k_q (omega = 2 pi / L), so
        H11 = sum (omega k_p)^2 |W_pq|, H12 = sum omega^2 k_p k_q |W_pq| and
        H22 = sum (omega k_q)^2 |W_pq|.
        """
        w, omega = np.abs(self.weights), _frequencies(self.coeffs)
        return (float(omega**2 @ w.sum(axis=1)), float(omega @ w @ omega),
                float(w.sum(axis=0) @ omega**2))

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


def trig_coeffs(dim: int, N: int):
    """Coefficients of the degree-N random trigonometric polynomial (L = 2 pi).

    1D: a_k = 1 for 1 <= k <= N, a_0 = 0.  2D: a_{k,l} = 1 for
    1 <= k, l <= N, zero otherwise.  Requires N >= 2 so that the
    nondegeneracy conditions hold.
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


def _eval_1d(r: Realization1D, x: np.ndarray):
    """u(x) = Re sum_k c_k z^k from the powers z^0..z^K of z = e^(2 pi i x / L).

    One complex ``exp`` per point and a running product along a new
    leading frequency axis replace 2(K + 1) ``cos``/``sin`` calls.  The
    power z^k carries a relative error of about k ulps, so the value is
    within a small multiple of (K + 1) ulps of sum |c_k|, the rounding
    level of the cosine and sine sums.
    """
    c = r.spectrum
    powers = np.empty((c.size,) + x.shape, dtype=complex)
    powers[0] = 1.0
    powers[1:] = np.exp((2j * np.pi / r.coeffs.L) * x)
    np.cumprod(powers, axis=0, out=powers)
    out = (c @ powers.reshape(c.size, -1)).real.reshape(x.shape)
    return out if out.shape else float(out)


def evaluate_grid_1d(r: Realization1D, n: int) -> np.ndarray:
    """Evaluate a 1D realization at the n + 1 grid points j L / n, j = 0..n.

    u is a trigonometric polynomial of degree K, so its values on a
    periodic grid are the inverse DFT of its coefficients: one inverse
    real FFT with X_0 = size c_0 and X_k = size/2 c_k, c the cached
    ``Realization1D.spectrum``.  The transform runs at size = n m,
    m = ceil((2K + 1) / n), so that every frequency k <= K lies below the
    Nyquist one; every m-th value is kept, and v[n] = v[0] by
    periodicity.  The values agree with :func:`evaluate` at those points
    to rounding level, at O(n log n) cost instead of K complex products
    per point.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    c = r.spectrum
    m = -(-(2 * c.size - 1) // n)
    size = n * m
    X = 0.5 * size * c
    X[0] = size * c[0]
    v = np.fft.irfft(X, size)[::m]
    return np.append(v, v[0])


def _trig_block(coeffs, x) -> np.ndarray:
    """A(x) = [cos | sin](2 pi k x / L), k = 0..K, along a new last axis."""
    k = np.arange(coeffs.K + 1)
    x = np.asarray(x, dtype=float)
    phase = 2.0 * np.pi * np.multiply.outer(x, k) / coeffs.L
    return np.concatenate((np.cos(phase), np.sin(phase)), axis=-1)


def _trig_blocks(coeffs, x1, x2) -> tuple:
    """(A(x1), A(x2)), built once when the two axes hold the same values."""
    A1 = _trig_block(coeffs, x1)
    return A1, A1 if np.array_equal(x1, x2) else _trig_block(coeffs, x2)


def _frequencies(coeffs) -> np.ndarray:
    """The angular frequency 2 pi k / L of each column of A(x)."""
    return np.tile(2.0 * np.pi * np.arange(coeffs.K + 1) / coeffs.L, 2)


def _trig_derivative(coeffs, A: np.ndarray) -> np.ndarray:
    """dA/dx = (2 pi k / L) [-sin | cos](2 pi k x / L), from A(x) = [cos | sin]."""
    cos, sin = np.split(A, 2, axis=-1)
    return np.concatenate((-sin, cos), axis=-1) * _frequencies(coeffs)


def _eval_2d(r: Realization2D, x1, x2):
    out = np.sum((_trig_block(r.coeffs, x1) @ r.weights)
                 * _trig_block(r.coeffs, x2), axis=-1)
    return out if out.shape else float(out)


# Rows of x1 per band of the tensor-grid evaluation: the float scratch is
# _BAND_ROWS * len(x2) values (2 MB for a 4097-point axis), small enough to
# stay in cache while it is classified.
_BAND_ROWS = 64


def _grid_bands(r: Realization2D, x1, x2):
    """Yield ``(rows, u[rows, :])`` on the tensor grid x1 (x) x2, band by band.

    One block product [C1 S1] W [C2 S2]^T per band.  The yielded values
    live in one scratch buffer that the next band overwrites.
    """
    A1, A2 = _trig_blocks(r.coeffs, x1, x2)
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
    for rows, values in _grid_bands(r, x1, x2):
        out[rows] = values
    return out


def classify_grid_2d(r: Realization2D, x1, x2, zero_tol: float,
                     flagged: np.ndarray | None = None) -> tuple:
    """Sign classes of a 2D realization on the tensor grid x1 (x) x2.

    Returns ``(positive, zeros)``: the boolean grid of u > zero_tol and
    the number of zero-flagged points, where neither u > zero_tol nor
    u < -zero_tol holds (so NaN is flagged).  If ``flagged`` is given, a
    boolean array of the grid's shape, it receives the zero-flag mask.
    The values are those of :func:`evaluate_grid_2d`, classified band by
    band, so no float grid of the full size is ever formed.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    positive = np.empty((len(x1), len(x2)), dtype=bool)
    negative = np.empty((min(len(x1), _BAND_ROWS), len(x2)), dtype=bool)
    zeros = 0
    for rows, values in _grid_bands(r, x1, x2):
        pos, neg = positive[rows], negative[: len(values)]
        np.greater(values, zero_tol, out=pos)
        np.less(values, -zero_tol, out=neg)
        zeros += neg.size - np.count_nonzero(pos) - np.count_nonzero(neg)
        if flagged is not None:
            np.logical_not(pos | neg, out=flagged[rows])
    return positive, zeros


def window_classifier_2d(r: Realization2D, x1, x2, size: int, zero_tol: float):
    """Sign classes of a 2D realization on stacks of windows of the grid x1 (x) x2.

    Returns ``classify(i, j) -> (positive, flagged)``.  Window w is the
    size x size tensor grid ``x1[i[w]:i[w] + size] (x) x2[j[w]:j[w] + size]``;
    both results are (n, size, size) booleans with the zero-flag rule of
    :func:`classify_grid_2d`.  The factors A(x1) W and A(x2)^T are formed
    once; each window is the block product of a run of rows of the one
    and of columns of the other.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    A1, A2 = _trig_blocks(r.coeffs, x1, x2)
    left, right = A1 @ r.weights, np.ascontiguousarray(A2.T)
    # runs[i] = left[i:i + size] and columns[j] = right[:, j:j + size], as views
    runs = sliding_window_view(left, size, axis=0).transpose(0, 2, 1)
    columns = sliding_window_view(right, size, axis=1).transpose(1, 0, 2)

    def classify(i, j):
        values = np.matmul(runs[i], columns[j])
        positive = values > zero_tol
        flagged = values < -zero_tol
        flagged |= positive
        return positive, np.logical_not(flagged, out=flagged)

    return classify


def _jet_bands(r: Realization2D, x1, x2):
    """Yield ``(rows, u, du/dx1, du/dx2)`` on the tensor grid x1 (x) x2, band by band."""
    W = r.weights
    A1, A2 = _trig_blocks(r.coeffs, x1, x2)
    left, dleft = A1 @ W, _trig_derivative(r.coeffs, A1) @ W
    right, dright = A2.T, _trig_derivative(r.coeffs, A2).T
    for start in range(0, len(left), _BAND_ROWS):
        rows = slice(start, start + _BAND_ROWS)
        yield rows, left[rows] @ right, dleft[rows] @ right, left[rows] @ dright


def sign_definite_2d(r: Realization2D, x1, x2, radius: float,
                     zero_tol: float) -> np.ndarray:
    """The sign u provably keeps around each point of the grid x1 (x) x2.

    Entry (i, j) of the int8 result is the sign of u(c), c = (x1[i], x2[j]),
    if every value of u within sup-distance ``radius`` of c, as this
    module computes it, exceeds ``zero_tol`` in magnitude, and 0
    (undecided) otherwise; a NaN value is never decided.

    The proof is the second-order Taylor bound
    |u(c + d) - u(c)| <= (|du/dx1(c)| + |du/dx2(c)|) rho
    + rho^2 (H11 + 2 H12 + H22) / 2 for |d|_inf <= rho, with the global
    bounds ``r.hessian_bounds``, plus twice ``r.rounding_bound``: once
    for u(c) and once for the value at c + d.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    H11, H12, H22 = r.hessian_bounds
    curvature = 0.5 * (H11 + 2.0 * H12 + H22)
    slack = zero_tol + 2.0 * r.rounding_bound
    out = np.zeros((len(x1), len(x2)), dtype=np.int8)
    for rows, u, d1, d2 in _jet_bands(r, x1, x2):
        grad = np.abs(d1, out=d1)
        grad += np.abs(d2, out=d2)
        band = out[rows]
        # written as "exceeds", so NaN on either side stays undecided
        band[np.abs(u) - slack > grad * radius + curvature * radius * radius] = 1
        np.negative(band, out=band, where=u < 0)
    return out


def spectral_moments(coeffs):
    """Spectral moments of a coefficient sequence (finite exact sums)."""
    if isinstance(coeffs, CoeffSeq1D):
        k = np.arange(coeffs.K + 1, dtype=float)
        a2 = coeffs.a**2
        return SpectralMoments1D(
            A={ell: float(np.sum(k ** (2 * ell) * a2)) for ell in range(4)}
        )
    if isinstance(coeffs, CoeffSeq2D):
        K = coeffs.K
        k = np.arange(K + 1, dtype=float)
        a2 = coeffs.a**2
        A = {}
        for p in range(3):
            for q in range(3 - p):
                A[(p, q)] = float(k ** (2 * p) @ a2 @ k ** (2 * q))
        return SpectralMoments2D(A=A)
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


def coeffs_to_json(coeffs) -> str:
    payload = {
        "dim": coeffs.dim,
        "L": coeffs.L,
        "K": coeffs.K,
        "a": coeffs.a.tolist(),
    }
    return json.dumps(payload)


def coeffs_from_json(text: str):
    payload = json.loads(text)
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
    payload = json.loads(text)
    coeffs = coeffs_from_json(text)
    g = np.asarray(payload["g"], dtype=float)
    seed = int(payload["seed"])
    if payload["dim"] == 1:
        return Realization1D(coeffs=coeffs, g=g, seed=seed)
    return Realization2D(coeffs=coeffs, g=g, seed=seed)
