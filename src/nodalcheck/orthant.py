"""Gaussian orthant probabilities at shrinking sign-pattern stencils.

The probability that a stationary Gaussian field realizes a given sign
pattern at a stencil of points spaced by delta vanishes polynomially as
delta -> 0.  The machinery here builds the stencil covariance, computes
the orthant probability (exactly for n <= 3, numerically for larger n),
tracks the eigenvalue branches of the covariance across delta, and
compares the rescaled probability P(delta) * sqrt(det C / lambda_1^n)
against its closed-form limit
Gamma(n/2) / (2 pi^{n/2} (n-1)!) * |prod_j v1_j|^{-1},
where v1 is the limit eigenvector of the distinguished branch lambda_1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import covariance, spectral_moments

__all__ = [
    "CovMatrix",
    "OrthantQuery",
    "SpectralExpansion",
    "ExpansionReport",
    "StencilPattern",
    "PATTERNS",
    "pattern_cov",
    "orthant_exact_small",
    "orthant_numeric",
    "prop41_limit",
    "expected_expansion",
    "expansion_check",
    "asymptotic_functional",
]


@dataclass(frozen=True)
class CovMatrix:
    """A symmetric covariance matrix with its dimension."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float).copy()
        if e.shape != (self.n, self.n):
            raise ValueError("entries must be an n x n matrix")
        scale = np.abs(e).max() or 1.0
        if np.abs(e - e.T).max() > 1e-12 * scale:
            raise ValueError("covariance matrix must be symmetric")
        e = 0.5 * (e + e.T)
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    def corr(self) -> np.ndarray:
        d = np.sqrt(np.diag(self.entries))
        if np.any(d <= 0):
            raise ValueError("zero variance entry")
        return self.entries / np.outer(d, d)


@dataclass(frozen=True)
class OrthantQuery:
    """Ask for P(s_i Z_i >= 0 for all i) with Z ~ N(0, cov)."""

    signs: tuple
    cov: CovMatrix

    def __post_init__(self):
        if len(self.signs) != self.cov.n:
            raise ValueError("signs and covariance dimension must agree")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class SpectralExpansion:
    """Expected leading-order behavior of det C(delta) and its eigenvalues."""

    det_exponent: int
    eigen_exponents: tuple
    v1_limit: tuple
    det_coefficient: float | None = None
    eigen_coefficients: tuple | None = None

    def __post_init__(self):
        if sum(self.eigen_exponents) != self.det_exponent:
            raise ValueError("eigenvalue exponents must sum to the det exponent")
        v = np.asarray(self.v1_limit, dtype=float)
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValueError("v1_limit must be a unit vector")


@dataclass(frozen=True)
class StencilPattern:
    """A named sign pattern at delta-scaled stencil offsets."""

    name: str
    dim: int
    offsets: tuple  # in units of delta; scalars (1D) or pairs (2D)
    signs: tuple
    v1_limit: tuple

    @property
    def n(self) -> int:
        return len(self.offsets)

    def points(self, delta: float):
        return [tuple(delta * c for c in p) if self.dim == 2 else delta * p
                for p in self.offsets]


_S6 = 1.0 / math.sqrt(6.0)
_S20 = 1.0 / (2.0 * math.sqrt(5.0))

PATTERNS: dict = {}


def _register(name, dim, offsets, signs, v1):
    PATTERNS[name] = StencilPattern(name=name, dim=dim, offsets=tuple(offsets),
                                    signs=tuple(signs), v1_limit=tuple(v1))


# double crossover on an interval: endpoints vs midpoint
_register("crossover-1d", 1, (0.0, 0.5, 1.0), (1, -1, 1), (_S6, -2 * _S6, _S6))
# the same three collinear points embedded in 2D, along each axis
_register("line-x", 2, ((0, 0), (0.5, 0), (1, 0)), (1, -1, 1),
          (_S6, -2 * _S6, _S6))
_register("line-y", 2, ((0, 0), (0, 0.5), (0, 1)), (1, -1, 1),
          (_S6, -2 * _S6, _S6))
# alternating signs around four-point parallelograms (cyclic corner order)
_register("square", 2, ((0, 0), (1, 0), (1, 1), (0, 1)), (1, -1, 1, -1),
          (0.5, -0.5, 0.5, -0.5))
_register("half-square", 2, ((0, 0), (0.5, 0), (0.5, 0.5), (0, 0.5)),
          (1, -1, 1, -1), (0.5, -0.5, 0.5, -0.5))
_register("half-slant-x", 2, ((0, 0), (0.5, 0), (1, 0.5), (0.5, 0.5)),
          (1, -1, 1, -1), (0.5, -0.5, 0.5, -0.5))
_register("half-slant-y", 2, ((0, 0), (0, 0.5), (0.5, 1), (0.5, 0.5)),
          (1, -1, 1, -1), (0.5, -0.5, 0.5, -0.5))
# corners of the unit square all one sign, center the other
_register("five-point", 2, ((0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)),
          (1, 1, 1, 1, -1), (_S20, _S20, _S20, _S20, -4 * _S20))


def pattern_cov(coeffs, L: float, points) -> CovMatrix:
    """Stencil covariance: C[i][j] = r(p_i - p_j) for the stationary series."""
    if abs(L - coeffs.L) > 1e-12 * coeffs.L:
        raise ValueError("L must match the coefficient sequence period")
    pts = np.asarray(points, dtype=float).reshape(-1, coeffs.dim)
    lags = pts[:, None, :] - pts[None, :, :]
    C = covariance(coeffs, lags[..., 0] if coeffs.dim == 1 else lags)
    return CovMatrix(n=len(pts), entries=np.asarray(C, dtype=float))


def orthant_exact_small(q: OrthantQuery) -> float:
    """Closed-form orthant probability for n <= 3 (arcsine formulas)."""
    n = q.cov.n
    if n > 3:
        raise ValueError("closed forms exist only for n <= 3")
    if n == 1:
        return 0.5
    corr = q.cov.corr()
    s = np.asarray(q.signs, dtype=float)
    rho = np.outer(s, s) * corr
    off = rho[np.triu_indices(n, k=1)]
    if np.any(np.abs(off) >= 1.0):
        raise ValueError("degenerate correlation (|rho| = 1)")
    if n == 2:
        return 0.25 + math.asin(off[0]) / (2.0 * math.pi)
    return 0.125 + float(np.sum(np.arcsin(off))) / (4.0 * math.pi)


def orthant_numeric(q: OrthantQuery, samples: int = 1_000_000,
                    seed: int = 0) -> tuple:
    """Importance-sampled orthant probability for near-degenerate covariances.

    The orthant event is a fixed cone; only the covariance degenerates.
    Sampling isotropically at the scale of the smallest eigenvalue hits
    the cone with O(1) probability, and the density-ratio weights stay
    O(1) because cone directions are well separated from the large
    eigendirections.  Returns (estimate, stderr); works where both plain
    Monte Carlo and the Genz integrator lose the tiny probability.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    n = q.cov.n
    vals, vecs = np.linalg.eigh(q.cov.entries)
    if vals.min() <= 0:
        raise np.linalg.LinAlgError("covariance not positive definite")
    sigma2 = 2.0 * vals.min()
    s = np.asarray(q.signs, dtype=float)
    # log density ratio p/q up to the quadratic forms
    log_norm = 0.5 * (n * math.log(sigma2) - np.sum(np.log(vals)))
    inv_vals = 1.0 / vals
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    total = total_sq = 0.0
    left = samples
    while left > 0:
        batch = min(left, 1 << 19)
        z = math.sqrt(sigma2) * rng.standard_normal((batch, n))
        in_cone = np.all(s * z >= 0.0, axis=1)
        zc = z[in_cone]
        y = zc @ vecs
        log_w = log_norm + 0.5 * (np.sum(zc * zc, axis=1) / sigma2
                                  - (y * y) @ inv_vals)
        w = np.exp(log_w)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        left -= batch
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def prop41_limit(signs, v1_limit) -> float:
    """Limit of P(delta) sqrt(det C / lambda_1^n) as the stencil shrinks.

    Equals Gamma(n/2) / (2 pi^{n/2} (n-1)!) / |prod_j v1_j|, valid when
    every sign agrees with the corresponding v1 component.
    """
    v = np.asarray(v1_limit, dtype=float)
    s = np.asarray(signs, dtype=float)
    n = v.size
    if np.any(v == 0.0):
        raise ValueError("v1_limit must have no zero component")
    if np.any(s * v <= 0.0):
        raise ValueError("signs must agree with the v1 components")
    prod = float(np.abs(np.prod(v)))
    return math.gamma(n / 2.0) / (2.0 * math.pi ** (n / 2.0)
                                  * math.factorial(n - 1)) / prod


def _best_ordering(overlap):
    """The first of the n! column orderings with the greatest summed overlap."""
    perms = np.array(list(itertools.permutations(range(len(overlap)))))
    return perms[np.argmax(overlap[np.arange(len(overlap)), perms].sum(axis=1))]


def _tracked_eigensystem(coeffs, L, pattern, deltas):
    """Eigenvalues/vectors of C(delta), branches matched across delta.

    Returns (deltas, lams, vecs, min_overlap): the deltas in descending
    order, and lams[i, b] and vecs[i, :, b] for delta i and branch b;
    branches are continued by ``_best_ordering`` of the eigenvector
    overlaps, and min_overlap, the least matched overlap, is a
    branch-tracking confidence.
    """
    if pattern.n > 8:
        raise ValueError(f"too many points to try all {pattern.n}! orderings")
    deltas = sorted(deltas, reverse=True)
    lams, vecs = [], []
    min_overlap = 1.0
    for d in deltas:
        C = pattern_cov(coeffs, L, pattern.points(d))
        w, V = np.linalg.eigh(C.entries)
        if vecs:
            overlap = np.abs(vecs[-1].T @ V)
            perm = _best_ordering(overlap)
            w, V = w[perm], V[:, perm]
            min_overlap = min(min_overlap, float(overlap[:, perm].diagonal().min()))
        lams.append(w)
        vecs.append(V)
    return np.array(deltas), np.array(lams), np.array(vecs), min_overlap


@dataclass(frozen=True)
class ExpansionReport:
    """Fitted leading-order behavior vs the expected expansion."""

    det_slope: float
    det_coefficient: float
    eigen_slopes: tuple
    v1_estimate: tuple
    exponents_ok: bool
    coefficient_ok: bool | None
    v1_ok: bool
    v1_error: float
    branch_confidence: float
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.exponents_ok and self.v1_ok
                and self.coefficient_ok is not False)


def expected_expansion(name: str, coeffs) -> SpectralExpansion:
    """Expected spectral expansion of a registered pattern's covariance.

    Exponents and v1 limits are pattern-class facts; the determinant
    coefficient has a clean closed form only for the collinear stencils,
    elsewhere it is left None (to be measured, not asserted).
    """
    pattern = PATTERNS[name]
    m = spectral_moments(coeffs)
    w = 2.0 * math.pi / coeffs.L  # converts moments to derivative scale
    if name == "crossover-1d":
        R0, R1, R2 = m[0], w**2 * m[1], w**4 * m[2]
        coeff = (R1 / 64.0) * (R0 * R2 - R1 * R1)
        return SpectralExpansion(6, (4, 2, 0), pattern.v1_limit, coeff)
    if name in ("line-x", "line-y"):
        p, q = (1, 0) if name == "line-x" else (0, 1)
        R0 = m[0, 0]
        R1 = w**2 * m[p, q]
        R2 = w**4 * m[2 * p, 2 * q]
        coeff = (R1 / 64.0) * (R0 * R2 - R1 * R1)
        return SpectralExpansion(6, (4, 2, 0), pattern.v1_limit, coeff)
    if pattern.n == 4:
        return SpectralExpansion(8, (4, 2, 2, 0), pattern.v1_limit)
    if pattern.n == 5:
        return SpectralExpansion(12, (4, 4, 2, 2, 0), pattern.v1_limit)
    raise KeyError(name)


def expansion_check(coeffs, L, pattern, delta_seq,
                    expected: SpectralExpansion,
                    slope_tol: float = 0.1, coeff_tol: float = 0.02,
                    v1_tol: float = 1e-2) -> ExpansionReport:
    """Fit det/eigenvalue scaling of C(delta) and compare to ``expected``.

    Slopes come from log-log least squares over delta_seq; the
    determinant coefficient from the smallest deltas at the expected
    exponent; v1 from the eigenvector branch closest to the expected
    limit at the smallest delta.
    """
    if isinstance(pattern, str):
        pattern = PATTERNS[pattern]
    deltas, lams, vecs, confidence = _tracked_eigensystem(
        coeffs, L, pattern, delta_seq)
    logd = np.log(deltas)
    dets = np.prod(lams, axis=1)
    det_slope = float(np.polyfit(logd, np.log(dets), 1)[0])
    det_coeff = float(np.exp(np.mean(
        np.log(dets[-3:]) - expected.det_exponent * logd[-3:])))

    branch_slopes = []
    for b in range(lams.shape[1]):
        lam = lams[:, b]
        if np.allclose(lam / lam[0], 1.0, rtol=1e-6):
            branch_slopes.append(0.0)  # constant branch; avoid noise fits
        else:
            branch_slopes.append(float(np.polyfit(logd, np.log(lam), 1)[0]))
    fitted = tuple(sorted(branch_slopes, reverse=True))
    want = tuple(sorted(expected.eigen_exponents, reverse=True))
    exponents_ok = (abs(det_slope - expected.det_exponent) <= slope_tol
                    and all(abs(f - e) <= slope_tol
                            for f, e in zip(fitted, want)))

    v1_want = np.asarray(expected.v1_limit, dtype=float)
    V_last = vecs[-1]
    b1 = int(np.argmax(np.abs(V_last.T @ v1_want)))
    v1_est = V_last[:, b1]
    if v1_est @ v1_want < 0:
        v1_est = -v1_est
    v1_error = float(np.linalg.norm(v1_est - v1_want))
    v1_ok = v1_error <= v1_tol

    coefficient_ok = None
    if expected.det_coefficient is not None:
        coefficient_ok = (abs(det_coeff / expected.det_coefficient - 1.0)
                          <= coeff_tol)
    return ExpansionReport(
        det_slope=det_slope, det_coefficient=det_coeff,
        eigen_slopes=fitted, v1_estimate=tuple(float(x) for x in v1_est),
        exponents_ok=exponents_ok, coefficient_ok=coefficient_ok,
        v1_ok=v1_ok, v1_error=v1_error, branch_confidence=confidence,
        details={"deltas": deltas.tolist(), "dets": dets.tolist()})


def asymptotic_functional(coeffs, L, pattern, delta: float,
                          samples: int = 1_000_000, seed: int = 0) -> float:
    """P(delta) * sqrt(det C(delta) / lambda_1(delta)^n) for a registered pattern.

    lambda_1 is the eigenvalue branch whose eigenvector matches the
    pattern's v1 limit.  P comes from the exact arcsine formulas for
    n <= 3 and from the importance-sampled estimator for larger n (the
    probabilities there are far below plain-Monte-Carlo reach).
    """
    return _functional(coeffs, L, pattern, delta, samples, seed)[2]


def _functional(coeffs, L, pattern, delta, samples, seed) -> tuple:
    """``(P, stderr of P, functional)`` of :func:`asymptotic_functional`."""
    if isinstance(pattern, str):
        pattern = PATTERNS[pattern]
    C = pattern_cov(coeffs, L, pattern.points(delta))
    w, V = np.linalg.eigh(C.entries)
    if w.min() <= 0:
        raise np.linalg.LinAlgError("covariance not positive definite")
    v1_want = np.asarray(pattern.v1_limit, dtype=float)
    b1 = int(np.argmax(np.abs(V.T @ v1_want)))
    lam1 = float(w[b1])
    det = float(np.prod(w))
    q = OrthantQuery(signs=pattern.signs, cov=C)
    n = pattern.n
    if n <= 3:
        P, stderr = orthant_exact_small(q), 0.0
    else:
        P, stderr = orthant_numeric(q, samples, seed)
    return P, stderr, P * math.sqrt(det / lam1**n)
