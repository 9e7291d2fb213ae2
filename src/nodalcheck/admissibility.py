"""Double crossovers, dyadic recursion and forbidden-pattern admissibility.

The 2D checks work on the 3x3 stencil of a square (corners, edge
midpoints, center).  A stencil of strict signs is encoded as a 9-bit
integer (bit i set iff position i is positive, row-major), and each
pattern library is compiled to a 512-entry lookup table, so dyadic
sweeps over millions of subsquares reduce to strided slicing plus a
table lookup.  No pattern collection forbids a *staircase* code or an
I code with two adjacent rows or columns of one sign
(:class:`PatternCollection`), so the whole-grid check evaluates and
sweeps neither the subsquares that their four corner values and a bound
on the curvature prove sign-definite nor the windows whose signs are a
staircase, which one test finds from flags packed per block before any
window is assembled.  In 1D the sweep visits only the grid intervals in
which the fine samples change sign twice or touch zero, since no other
can hold a double crossover.

Admissibility in the source definitions quantifies over all dyadic
levels; a machine checks finitely many, so ``Certified`` here always
means "no violation down to depth D" with D recorded in the outcome.
Every check takes its depth through :func:`_fine_steps`, decides its
signs by :func:`~nodalcheck.fields._bound_test` and builds its outcome
with :func:`_verdict`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .fields import (_BAND_ROWS, Realization1D, Realization2D, _bound_test,
                     _check_zero_tol, _grid_bands, _lattice_table,
                     _sign_changes, _window_classifier, classify_grid_2d,
                     evaluate_grid_1d)

__all__ = [
    "SignPattern",
    "PatternLibrary",
    "PatternCollection",
    "ValidationOutcome",
    "double_crossover",
    "interval_admissible",
    "load_patterns",
    "default_patterns",
    "count_surviving",
    "b_admissible",
    "i_admissible",
    "validate_1d",
    "validate_2d",
]

CERTIFIED = "Certified"
NOT_CERTIFIED = "NotCertified"
DEGENERATE = "Degenerate"

ENV_PATTERN_PATH = "NODALCHECK_PATTERNS"

# expected survivor counts among the 512 stencil assignments
CHECKSUM_B = 66
CHECKSUM_I4 = 92
CHECKSUM_I = 90

_B_BIT, _I_BIT = 1, 2  # bits of PatternCollection.code_table

# entry (c, r, k): the sign bit of point (r, k) in stencil code c
_STENCIL_BITS = ((np.arange(512)[:, None] >> np.arange(9)) & 1).reshape(
    512, 3, 3).astype(bool)


# the dihedral group of the square on row-major 3x3 positions: the four
# rotations of the index grid and of its transpose
_GRID = np.arange(9).reshape(3, 3)
_DIHEDRAL = np.array([np.rot90(g, k).ravel() for g in (_GRID, _GRID.T)
                      for k in range(4)])


@dataclass(frozen=True)
class SignPattern:
    """A constraint mask on the 3x3 stencil: +1 / -1 required, 0 unconstrained."""

    mask: tuple
    id: str

    def __post_init__(self):
        if len(self.mask) != 9 or any(v not in (-1, 0, 1) for v in self.mask):
            raise ValueError("mask must be 9 values in {-1, 0, +1}")
        if sum(v != 0 for v in self.mask) < 3:
            raise ValueError("pattern must constrain at least 3 positions")

    def orbit(self) -> list:
        """All distinct masks in the dihedral-times-polarity orbit."""
        images = np.array(self.mask)[_DIHEDRAL]
        images = np.concatenate((images, -images)).tolist()
        return sorted(set(map(tuple, images)))


@dataclass(frozen=True)
class PatternLibrary:
    """A named forbidden-pattern library: its base patterns, each standing
    for its whole orbit under the eight symmetries and the sign flip."""

    name: str
    base_patterns: tuple

    def __post_init__(self):
        object.__setattr__(self, "base_patterns", tuple(self.base_patterns))

    @cached_property
    def closure(self) -> tuple:
        """The orbits' masks, each once and sorted; a mask's id is
        ``<base id>/<its index in the base's sorted orbit>``, from the first
        base pattern whose orbit holds it."""
        ids = {}
        for p in self.base_patterns:
            for j, mask in enumerate(p.orbit()):
                ids.setdefault(mask, f"{p.id}/{j}")
        return tuple(SignPattern(mask, ids[mask]) for mask in sorted(ids))

    @cached_property
    def _match_table(self) -> np.ndarray:
        """(len(closure), 512) bool: closure pattern k matches stencil code c."""
        masks = np.array([p.mask for p in self.closure]).reshape(-1, 9)
        bits = 1 << np.arange(9)
        constrained, plus = (masks != 0) @ bits, (masks > 0) @ bits
        return (np.arange(512) & constrained[:, None]) == plus[:, None]

    @cached_property
    def _table(self) -> np.ndarray:
        table = self._match_table.any(axis=0)
        table.flags.writeable = False
        return table

    def forbidden_table(self) -> np.ndarray:
        """512-entry bool table: code -> contains some pattern of the closure."""
        return self._table

    @cached_property
    def _ids(self) -> tuple:
        """Entry c: the ids of the closure patterns matching code c, in order."""
        return tuple(tuple(self.closure[k].id for k in np.flatnonzero(column))
                     for column in self._match_table.T)

    def pattern_ids(self, code: int) -> list:
        """Ids of the closure patterns matched by a 9-bit stencil code."""
        return list(self._ids[code])


@dataclass(frozen=True)
class PatternCollection:
    """The three libraries B, I4, I5 plus the combined interior library.

    ``validate_2d`` skips stencils that it takes as admissible, so every
    collection must satisfy two rules, checked when it is built
    (``ValueError`` otherwise):

    - No B- or I-forbidden code is a *staircase* code, one whose three
      rows are all non-decreasing or all non-increasing, and whose
      three columns are too; the uniform codes 0 and 511 are staircases.
      A stencil row at any level is a subsequence, in index order, of a
      row of the window it lies in, so a window whose rows and columns
      are monotone in this way holds only staircase codes.  The rule is
      checked with the windows' own test, :func:`_staircases` on each
      stencil as a block of its own.
    - No I-forbidden code has two adjacent rows or columns of one sign.
      Every half-side shift of a subsquare keeps two adjacent rows (or
      columns) of its stencil inside the subsquare, so a subsquare
      sign-definite on its closed square holds no I-violation at any
      depth, whatever lies around it.
    """

    B: PatternLibrary
    I4: PatternLibrary
    I5: PatternLibrary

    def __post_init__(self):
        stencils = _STENCIL_BITS
        alone = np.arange(512).reshape(1, 1, 512)
        if np.any(self.code_table[_staircases(_block_flags(stencils),
                                              alone)]):
            raise ValueError("a pattern forbids a staircase stencil, "
                             "such as a uniform one")
        pairs = (stencils[:, :2], stencils[:, 1:],
                 stencils[:, :, :2], stencils[:, :, 1:])
        uniform = np.any([p.min(axis=(1, 2)) == p.max(axis=(1, 2))
                          for p in pairs], axis=0)
        if np.any(self.code_table[uniform] & _I_BIT):
            raise ValueError("an I pattern forbids a stencil with two "
                             "adjacent rows or columns of one sign")

    @cached_property
    def I(self) -> PatternLibrary:
        return PatternLibrary("I", self.I4.base_patterns
                              + self.I5.base_patterns)

    @cached_property
    def code_table(self) -> np.ndarray:
        """512-entry uint8 table over stencil codes: bit 0 B-, bit 1 I-forbidden."""
        table = (self.B.forbidden_table() * _B_BIT
                 | self.I.forbidden_table() * _I_BIT).astype(np.uint8)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class ValidationOutcome:
    """Verdict of one check, with the violations it found.

    ``violations`` holds at most the first 200 in sorted order;
    ``violation_count`` is the number found before that cap and defaults
    to ``len(violations)``.
    """

    status: str
    max_depth_checked: int
    violations: tuple = ()
    zero_flag_count: int = 0
    violation_count: int | None = None

    def __post_init__(self):
        if self.violation_count is None:
            object.__setattr__(self, "violation_count", len(self.violations))
        if self.violation_count < len(self.violations):
            raise ValueError("violation_count is below the number of violations")
        if self.status == CERTIFIED and (self.violation_count or self.zero_flag_count):
            raise ValueError("Certified outcome cannot carry violations or zero flags")

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


_MAX_VIOLATIONS = 200


def _verdict(D: int, violations, zeros: int = 0) -> ValidationOutcome:
    """The outcome of every check to depth D: Degenerate when it counted
    ``zeros`` zero flags, NotCertified when it found ``violations`` (the
    first 200 listed in sorted order, all of them counted), Certified
    otherwise."""
    if zeros:
        return ValidationOutcome(DEGENERATE, D, zero_flag_count=int(zeros))
    if violations:
        return ValidationOutcome(NOT_CERTIFIED, D,
                                 tuple(sorted(violations)[:_MAX_VIOLATIONS]),
                                 violation_count=len(violations))
    return ValidationOutcome(CERTIFIED, D)


def _fine_steps(D: int) -> int:
    """The 2^(D+1) fine steps across a level-0 interval or square swept to
    depth D; raises ``ValueError`` unless D >= 0."""
    if D < 0:
        raise ValueError("depth D must be nonnegative")
    return 1 << (D + 1)


def double_crossover(v_left: float, v_mid: float, v_right: float) -> bool:
    """True iff (sigma*left >= 0, sigma*mid <= 0, sigma*right >= 0) for some sigma.

    The depth-0 sweep of :func:`_double_crossovers` over the three values.
    """
    return bool(_double_crossovers(np.array([v_left, v_mid, v_right],
                                            dtype=float), 0))


def _double_crossovers(v: np.ndarray, D: int) -> list:
    """(k, n) of every dyadic subinterval with a double crossover, levels 0..D.

    ``v`` samples u at 2^(D+1) equal steps per level-0 interval, so it
    has m 2^(D+1) + 1 samples for m level-0 intervals, and subinterval k
    of level n spans v[k 2h : (k + 1) 2h + 1], h = 2^(D-n): ends v[2kh]
    and v[2(k+1)h], midpoint v[(2k+1)h].  A double crossover is ends
    >= 0 around a midpoint <= 0, or the reverse.  The list is sorted by
    level, then by k.

    Only *hot* level-0 intervals are swept: those with at least two
    ``signbit`` flips between consecutive samples
    (:func:`~nodalcheck.fields._sign_changes`), or with a sample
    equal to 0 (a zero at a shared end makes both neighbours hot).  No
    other interval can hold a double crossover.  If none of the triple
    v_l, v_m, v_r is zero, a crossover has v_l and v_r strictly of one
    sign and v_m strictly of the other, so ``signbit`` flips at least
    once in [l, m) and again in [m, r), both inside the level-0 interval
    that holds the subinterval.  A zero in the triple makes that
    interval hot itself.  A NaN passes neither >= 0 nor <= 0, so it is
    never part of a crossover, and the flips it adds only make more
    intervals hot.  The work thus grows with the sign changes of u, not
    with the length of ``v``.
    """
    shift = D + 1
    m = (v.size - 1) >> shift
    flips = _sign_changes(v) >> shift
    is_hot = np.bincount(flips, minlength=m) >= 2
    zeros = np.flatnonzero(v == 0)
    is_hot[np.minimum(zeros >> shift, m - 1)] = True
    is_hot[np.maximum(zeros - 1, 0) >> shift] = True
    hot = np.flatnonzero(is_hot)
    if not hot.size:
        return []
    w = v[(hot << shift)[:, None] + np.arange((1 << shift) + 1)]
    nonneg, nonpos = w >= 0, w <= 0
    found = []
    for n in range(D + 1):
        h = 1 << (D - n)
        ends_up, ends_dn = nonneg[:, :: 2 * h], nonpos[:, :: 2 * h]
        hits = ends_up[:, :-1] & nonpos[:, h :: 2 * h] & ends_up[:, 1:]
        hits |= ends_dn[:, :-1] & nonneg[:, h :: 2 * h] & ends_dn[:, 1:]
        row, j = np.nonzero(hits)
        found += [(int(k), n) for k in (hot[row] << n) + j]
    return found


def interval_admissible(r: Realization1D, interval, D: int) -> ValidationOutcome:
    """Depth-truncated admissibility of one interval for a 1D realization.

    Checks every dyadic subinterval of depth 0..D for a double
    crossover.  Certified means none was found down to depth D (a
    necessary finite check of the full countable condition).
    """
    alpha, beta = float(interval[0]), float(interval[1])
    if not (0.0 <= alpha < beta <= r.coeffs.L):
        raise ValueError("interval must be a nondegenerate subinterval of [0, L]")
    n_fine = _fine_steps(D)
    xs = alpha + (beta - alpha) * np.arange(n_fine + 1) / n_fine
    return _verdict(D, [(k, n, "double-crossover")
                        for k, n in _double_crossovers(r(xs), D)])


# ---------------------------------------------------------------------------
# Pattern file parsing


def load_patterns(text: str) -> PatternCollection:
    """Parse a pattern file and validate the survivor checksums.

    The file holds blocks ``#<lib>:<id>`` followed by three lines of
    three characters from ``{+, -, .}``; lines starting with ``//`` are
    comments.  A checksum mismatch rejects the whole file, since it
    means the transcription is wrong.  The B and I4 checksums are checked
    before the rules of :class:`PatternCollection`, the I checksum on its I.
    """
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("//")]
    by_lib: dict = {"B": [], "I4": [], "I5": []}
    i = 0
    while i < len(lines):
        header = lines[i]
        if not header.startswith("#") or ":" not in header:
            raise ValueError(f"expected pattern header, got {header!r}")
        lib, pat_id = header[1:].split(":", 1)
        if lib not in by_lib:
            raise ValueError(f"unknown library {lib!r} in pattern file")
        rows = lines[i + 1 : i + 4]
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError(f"pattern {pat_id!r} must have 3 rows of 3 characters")
        lut = {"+": 1, "-": -1, ".": 0}
        try:
            mask = tuple(lut[c] for row in rows for c in row)
        except KeyError as exc:
            raise ValueError(f"bad character {exc} in pattern {pat_id!r}") from exc
        by_lib[lib].append(SignPattern(mask=mask, id=pat_id))
        i += 4

    expected_base = {"B": 7, "I4": 16, "I5": 1}
    for lib, want in expected_base.items():
        if len(by_lib[lib]) != want:
            raise ValueError(
                f"library {lib} has {len(by_lib[lib])} base patterns, expected {want}"
            )

    libs = {lib: PatternLibrary(lib, by_lib[lib]) for lib in by_lib}
    _check_survivors(libs["B"], CHECKSUM_B)
    _check_survivors(libs["I4"], CHECKSUM_I4)
    coll = PatternCollection(**libs)
    _check_survivors(coll.I, CHECKSUM_I)
    return coll


def _check_survivors(lib: PatternLibrary, want: int) -> None:
    """Raise ``ValueError`` unless ``want`` stencils survive ``lib``."""
    got = count_surviving(lib)
    if got != want:
        raise ValueError(f"pattern library {lib.name} checksum mismatch: "
                         f"{got} surviving stencils, expected {want}")


@lru_cache(maxsize=1)
def default_patterns() -> PatternCollection:
    """The shipped pattern file, or the one named by $NODALCHECK_PATTERNS."""
    path = os.environ.get(ENV_PATTERN_PATH)
    if path:
        with open(path, encoding="utf-8") as fh:
            return load_patterns(fh.read())
    text = resources.files("nodalcheck").joinpath("patterns.txt").read_text()
    return load_patterns(text)


def count_surviving(lib: PatternLibrary) -> int:
    """Number of the 512 stencil assignments containing no pattern of the library."""
    return int(512 - np.count_nonzero(lib.forbidden_table()))


# ---------------------------------------------------------------------------
# Dyadic sweeps over squares

# the own stencil of a subsquare and its four half-side shifts, as steps
# of the level's code array
_I_STENCILS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def _level_codes(positive: np.ndarray, h: int) -> np.ndarray:
    """9-bit stencil codes at every stencil corner of ``positive[..., ::h, ::h]``.

    Entry (..., a, b) encodes the 3x3 block with corner (a, b) of the
    subsampled grid: bit 3r + c is set iff point (a + r, b + c) is
    positive, the row-major order of the pattern masks.  Leading axes,
    if any, are carried along.  Built separably, 3-bit codes along the
    last axis first.
    """
    p = positive[..., ::h, ::h].view(np.uint8)
    rows = p[..., 2:] << 1
    rows |= p[..., 1:-1]
    rows <<= 1
    rows |= p[..., :-2]
    codes = rows[..., 2:, :].astype(np.uint16)
    codes <<= 3
    codes |= rows[..., 1:-1, :]
    codes <<= 3
    codes |= rows[..., :-2, :]
    return codes


def _matched(hits: np.ndarray, codes: np.ndarray, lib: PatternLibrary,
             first: int, n: int) -> list:
    """``((*w, first + i, first + j), n, pattern_id)`` per hit (*w, i, j) and match."""
    found = []
    for at in zip(*np.nonzero(hits)):
        *w, i, j = map(int, at)
        found += [((*w, first + i, first + j), n, pid)
                  for pid in lib.pattern_ids(int(codes[at]))]
    return found


def _sweep(positive: np.ndarray, nsq: int, ring: int, margin: int, D: int,
           coll: PatternCollection, collect_all: bool) -> list:
    """Forbidden-pattern matches of a block of grid squares, levels 0..D.

    ``positive`` covers a window holding nsq x nsq grid squares of
    2^(D+1) fine steps each, ``margin`` fine steps in from its edges;
    leading axes, if any, stack such windows.  Squares in the outer
    ``ring`` layers are checked for B-admissibility (own stencils), the
    others for I-admissibility (own stencils plus the four half-side
    shifts; those reach half a square out, so the margin is either 0,
    when they stay inside the block, or half a square).  Returns
    ``((*w, i, j), n, pattern_id)`` per match, w the window and (i, j)
    the level-n subsquare, and stops after the first level with a match
    unless ``collect_all`` is set.

    Each level computes one code array and one table lookup; own stencils
    sit at its even/even entries, the x- and y-shifts at the odd/even and
    even/odd entries between two subsquares, which share them.  The array
    reaches into the margin only as far as the level's shifts do.
    """
    found = []
    for n in range(D + 1):
        h = 1 << (D - n)
        crop = margin - min(margin, h)
        codes = _level_codes(positive[..., crop:positive.shape[-2] - crop,
                                      crop:positive.shape[-1] - crop], h)
        flags = np.take(coll.code_table, codes)
        if flags.any():
            m, nside, lo = (margin - crop) // h, nsq << n, ring << n
            hi = nside - lo  # subsquares [lo, hi)^2 are I-checked
            own = slice(m, m + 2 * nside - 1, 2)
            b_hits = (flags[..., own, own] & _B_BIT).astype(bool)
            b_hits[..., lo:hi, lo:hi] = False
            found += _matched(b_hits, codes[..., own, own], coll.B, 0, n)
            for dr, dc in _I_STENCILS if hi > lo else ():
                rows = slice(m + 2 * lo + dr, m + 2 * hi - 1 + dr, 2)
                cols = slice(m + 2 * lo + dc, m + 2 * hi - 1 + dc, 2)
                found += _matched(flags[..., rows, cols] & _I_BIT,
                                  codes[..., rows, cols], coll.I, lo, n)
        if found and not collect_all:
            break
    return found


def _square_outcome(r: Realization2D, corner, delta: float, D: int,
                    coll: PatternCollection, zero_tol: float, shifts: bool,
                    collect_all: bool) -> ValidationOutcome:
    """Dyadic sweep of one square: B-checked, or I-checked with ``shifts``."""
    L = r.coeffs.L
    cx, cy = float(corner[0]), float(corner[1])
    unit = _fine_steps(D)  # fine steps across the square
    if not delta > 0:
        raise ValueError("the side length of the square must be positive")
    pad = 0.5 * delta if shifts else 0.0
    if not (0.0 <= cx - pad and cx + delta + pad <= L * (1 + 1e-12)
            and 0.0 <= cy - pad and cy + delta + pad <= L * (1 + 1e-12)):
        raise ValueError("square (with its delta/2 neighborhood, if required) "
                         "must lie inside [0, L]^2")
    margin = unit // 2 if shifts else 0
    total = unit + 2 * margin
    step = delta / unit
    xs = cx - margin * step + np.arange(total + 1) * step
    ys = cy - margin * step + np.arange(total + 1) * step
    positive, zeros = classify_grid_2d(r, xs, ys, zero_tol)
    if zeros:
        return _verdict(D, (), zeros)
    ring = 0 if shifts else 1
    return _verdict(D, _sweep(positive, 1, ring, margin, D, coll, collect_all))


def b_admissible(r: Realization2D, square, D: int, zero_tol: float = 0.0,
                 collect_all: bool = False,
                 patterns: PatternCollection | None = None) -> ValidationOutcome:
    """Depth-truncated B-admissibility of one square (corner, side length)."""
    corner, delta = square
    return _square_outcome(r, corner, float(delta), D,
                           patterns or default_patterns(), zero_tol,
                           shifts=False, collect_all=collect_all)


def i_admissible(r: Realization2D, square, D: int, zero_tol: float = 0.0,
                 collect_all: bool = False,
                 patterns: PatternCollection | None = None) -> ValidationOutcome:
    """Depth-truncated I-admissibility of one square.

    Every dyadic subsquare, together with its four half-side shifts,
    must avoid the I4 and I5 configurations; the shifts reach into the
    delta/2 neighborhood of the square, which therefore must lie inside
    the domain.
    """
    corner, delta = square
    return _square_outcome(r, corner, float(delta), D,
                           patterns or default_patterns(), zero_tol,
                           shifts=True, collect_all=collect_all)


# ---------------------------------------------------------------------------
# Whole-grid validation criteria


def validate_1d(r: Realization1D, M: int, D: int, zero_tol: float = 0.0) -> ValidationOutcome:
    """Certify the M-discretization of a 1D realization to dyadic depth D.

    Certified iff no grid sample is zero-flagged and no dyadic
    subinterval (depth <= D) of any grid interval carries a double
    crossover; by the 1D validation criterion this certifies that the
    homology of the cubical approximation is correct, up to the depth
    truncation recorded in the outcome.  A grid sample is zero-flagged
    when neither u > zero_tol nor u < -zero_tol holds (so NaN is flagged),
    as in 2D.  The M 2^(D+1) + 1 fine samples come from one call of
    :func:`~nodalcheck.fields.evaluate_grid_1d`: a block product of two
    small cached trig tables, or one inverse FFT above
    ``fields._PRODUCT_TERMS`` terms.  The dyadic sweep then visits only
    the *hot* grid intervals, where the fine samples change ``signbit``
    at least twice or touch an exact zero.  A double crossover needs one
    or the other, so no other interval can hold one
    (``_double_crossovers`` gives the argument).  Past the evaluation,
    the cost grows with the sign changes of u.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    unit = _fine_steps(D)
    _check_zero_tol(zero_tol)
    v = evaluate_grid_1d(r, M * unit)
    above, below = _bound_test(v[::unit], zero_tol)
    zero_flags = above.size - np.count_nonzero(above) - np.count_nonzero(below)
    if zero_flags:
        return _verdict(D, (), zero_flags)
    # subinterval k of level n lies in grid interval k >> n
    return _verdict(D, [(k >> n, n, "double-crossover")
                        for k, n in _double_crossovers(v, D)])


# Pruning unit: the subsquares of level n0, _PRUNE_STEPS fine steps wide
# (the grid squares themselves when those are narrower).  Windows are
# evaluated and swept in stacks of at most _WINDOWS.
_PRUNE_STEPS = 8
_WINDOWS = 1024


# times a word of 0/1 bytes, moves byte k to bit 56 + k
_PACK = np.uint64(0x0102040810204080)


def _block_flags(blocks: np.ndarray) -> np.ndarray:
    """One uint64 flag set per S x S bool block, S <= 8.

    Bits 0-7 hold the block's first row, 8-15 its last row, 16-23 its
    first column and 24-31 its last column, bit k the k-th point.  Bits
    32 and 33 are set when some row falls (a positive point followed by
    a negative one) and when some row rises, bits 34 and 35 the same for
    the columns.  Each block is read as one 64-bit word, bit 8 r + c its
    point (r, c); a block of S < 8 packs its S rows into the word's first
    S bytes.
    """
    S = blocks.shape[-1]
    if S < 8:
        rows = np.zeros((len(blocks), 8), dtype=np.uint8)
        rows[:, :S] = np.packbits(blocks, axis=-1, bitorder="little")[..., 0]
        word = rows.view("<u8")[:, 0]
    else:
        word = np.packbits(blocks, bitorder="little").view("<u8")
    ones = sum(1 << 8 * r for r in range(S))  # column 0
    right = ones * ((1 << S - 1) - 1)  # the points with a right neighbour
    below = (ones >> 8) * ((1 << S) - 1)  # those with a neighbour below
    flags = word & 0xFF | (word >> 8 * (S - 1)) << 8
    for c, shift in ((0, 16), (S - 1, 24)):
        flags |= (word >> c & ones) * _PACK >> 56 << shift
    inverse = ~word
    for k, turn in enumerate((word & inverse >> 1 & right,
                              inverse & word >> 1 & right,
                              word & inverse >> 8 & below,
                              inverse & word >> 8 & below)):
        flags |= (turn != 0).astype(np.uint64) << 32 + k
    return flags


def _staircases(flags: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Whether each mosaic of blocks ``nbrs[:, :, w]`` (k x k) is a staircase.

    A staircase has its rows all non-decreasing or all non-increasing,
    and its columns too.  ``flags`` are the blocks' :func:`_block_flags`;
    k = 1 tests single blocks.
    Beside the turns inside each block, a row falls across the seam of
    two blocks side by side where the last column of the left one is
    positive and the first column of the right one is not; likewise a
    row rises, and a column falls or rises across the seam of two
    blocks one above the other.
    """
    f = np.take(flags, nbrs)
    turns = np.bitwise_or.reduce(f, axis=(0, 1)) >> 32
    shifted = f >> 8  # the last row in bits 0-7, the last column in 16-23
    clean = np.ones(nbrs.shape[-1], dtype=bool)
    for k, (last, first) in enumerate(((shifted[:, :-1], f[:, 1:]),
                                       (shifted[:-1], f[1:]))):
        seam = 0xFF << 16 * (1 - k)
        falls = turns >> 2 * k & 1 | np.bitwise_or.reduce(
            last & ~first, axis=(0, 1)) & seam
        rises = turns >> 2 * k + 1 & 1 | np.bitwise_or.reduce(
            first & ~last, axis=(0, 1)) & seam
        clean &= (falls == 0) | (rises == 0)
    return clean


def _mosaics(block_rows: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """The k S x k S mosaic of the blocks ``nbrs[:, :, w]`` (k x k) for each w.

    Each row of an S x S bool block is read as one unsigned integer of S
    bytes (``block_rows``), so that the mosaics are gathered and
    transposed S points at a time.
    """
    k, S = len(nbrs), block_rows.dtype.itemsize
    rows = block_rows[nbrs]
    mosaic = np.ascontiguousarray(rows.transpose(2, 0, 3, 1)).view(bool)
    return mosaic.reshape(-1, k * S, k * S)


def _windows(fine: _FinePass, per_square: int):
    """Yield ``(positive, a, b, ring, margin)``: stacks of windows for ``_sweep``.

    The windows are the level-n0 subsquares (a, b) of the lattice that
    ``fine.level`` leaves undecided, S fine steps wide, ``per_square`` of
    them across a grid square.  ``fine.blocks`` holds the evaluated
    half-open blocks, those past the lattice's last subsquares the far
    row or column repeated, then an all-negative and an all-positive
    block, which the proven subsquares read by the sign of ``level``.
    B windows are the subsquares of boundary grid squares, their closed
    blocks alone, read from the 2S x 2S mosaic of the block and the
    three after it.  I windows are the subsquares of interior grid
    squares, with S/2 margins that are read from the 3S x 3S mosaic of
    the block and its eight neighbours.  A proven neighbour reads as its
    constant sign, which its proof holds on its closed square.

    A staircase holds only staircase codes, which no collection forbids
    (:class:`PatternCollection`).  Every window is tested on its mosaic,
    a superset of the points the sweep reads, from the flags of its
    blocks (:func:`_staircases`), and only the windows it does not clear
    are assembled and yielded.  The test runs here, at the window stage,
    and never in the fine pass that every trial builds.
    """
    level, a, b, blocks, S = fine.level, fine.a, fine.b, fine.blocks, fine.S
    Q, n = len(level) - 1, len(a)

    block_rows = blocks.view(f"u{S}")[..., 0]
    flags = _block_flags(blocks)
    # where each subsquare finds its block in that stack
    index = np.add(level > 0, n, dtype=np.int32)
    index[a, b] = np.arange(n)

    def interior(t):
        return (t >= per_square) & (t < Q - per_square)

    inner = interior(a) & interior(b)
    half = S // 2
    for kind, ring, margin, near, window in (
            (~inner & (a < Q) & (b < Q), 1, 0, np.arange(2), slice(S + 1)),
            (inner, 0, half, np.arange(-1, 2), slice(half, half + 2 * S + 1))):
        wa, wb = a[kind], b[kind]
        # nbrs[i, j, w]: block (i, j) of window w's neighbourhood
        nbrs = index[near[:, None, None] + wa, near[:, None] + wb]
        swept = np.flatnonzero(~_staircases(flags, nbrs))
        wa, wb, nbrs = wa[swept], wb[swept], nbrs[..., swept]
        for k in range(0, len(wa), _WINDOWS):
            mosaic = _mosaics(block_rows, nbrs[..., k:k + _WINDOWS])
            yield (mosaic[:, window, window], wa[k:k + _WINDOWS],
                   wb[k:k + _WINDOWS], ring, margin)


def _lattice(M: int, D: int) -> tuple:
    """(S, G) of ``validate_2d(r, M, D)``, after checking its arguments."""
    if M < 3:
        raise ValueError("M must be at least 3 so that interior squares exist")
    unit = _fine_steps(D)
    return min(_PRUNE_STEPS, unit), M * unit


def _corner_proof(r: Realization2D, grid: np.ndarray, delta: float,
                  zero_tol: float) -> np.ndarray:
    """The int8 proof on the tensor grid of the trig table ``grid``.

    Entry (i, j) is the sign u keeps on the closed cell with corners
    (i, j) and (i + 1, j + 1), ``delta`` apart, if every value of u in
    it, as this package computes it, exceeds ``zero_tol`` in magnitude,
    and 0 (undecided) otherwise.  On the cell, u differs from the
    bilinear interpolant of its corners, which lies between the corner
    values, by at most delta^2 (H11 + H22) / 8 (``r.hessian_bounds``).
    So the cell is proven when its four corners exceed that plus zero_tol
    plus twice ``r.rounding_bound`` (corner and inner value) in magnitude
    with one sign; a NaN corner is never decided.  Band by band, with the
    last row of the band before, so no float grid of the full size forms.
    Its one job is the proof: no point is classified at ``zero_tol``
    here.  It is laid out as ``_FinePass.level``: its last row and
    column, past the cells, repeat the ones before them.
    """
    _check_zero_tol(zero_tol)
    H11, H22 = r.hessian_bounds
    margin = (delta * delta * (H11 + H22) / 8 + zero_tol
              + 2.0 * r.rounding_bound)
    n = len(grid)
    proven = np.empty((n, n), dtype=np.int8)
    # corners above margin and below -margin; row 0 is the band before's
    corners = np.empty((2, min(n, _BAND_ROWS) + 1, n), dtype=bool)
    for rows, values in _grid_bands(r, grid, grid):
        k, top = len(values), int(rows.start == 0)
        _bound_test(values, margin, corners[0, 1:k + 1], corners[1, 1:k + 1])
        signs = corners[:, top:k + 1]
        pairs = signs[:, :-1] & signs[:, 1:]  # corner above and below
        up, down = pairs[..., :-1] & pairs[..., 1:]
        np.subtract(up, down, dtype=np.int8,
                    out=proven[rows.start + top - 1:rows.stop - 1, :-1])
        corners[:, 0] = corners[:, k]
    proven[:, -1] = proven[:, -2]
    proven[-1] = proven[-2]
    return proven


@dataclass(eq=False)
class _FinePass:
    """The fine classification of one realization on the lattice of G steps.

    ``level`` is the sign :func:`_corner_proof` proves on each subsquare
    S fine steps wide (0: undecided), plus one row and one column of
    subsquares past the lattice, whose blocks hold its far row and
    column repeated and whose sign is that of the subsquares before
    them.  ``a, b`` are the subsquares it leaves undecided and ``blocks``
    their evaluated half-open S x S blocks (u > zero_tol), without the
    closing row and column that the next blocks hold, then an
    all-negative and an all-positive block.  ``coarse`` is u > zero_tol
    on every S-th fine point, the subsquares' first corners, read from
    the proof and the blocks: ``level > 0`` where a subsquare is proven,
    the first point of its block where it is not.  A corner of an
    undecided subsquare is evaluated twice, by the proof and by its
    block, but classified once, by its block.  ``zeros[p]`` counts the
    zero-flagged fine points whose two indices are multiples of 2^p; each
    point is evaluated, and counted, once.  Made by :func:`_fine_pass`;
    :func:`validate_2d` reads all of it on this lattice, and
    ``zeros[log2 c]`` and every c-th point of ``coarse`` on the lattice
    of G / c steps for every power of two c.
    :func:`~nodalcheck.cubical.sign_grid` reads the signs of the lattice
    of G / c steps from every c/S-th point of ``coarse`` when c is a
    multiple of S (:meth:`nest` gives c).
    """

    r: Realization2D
    zero_tol: float
    G: int
    S: int
    coarse: np.ndarray
    level: np.ndarray
    a: np.ndarray
    b: np.ndarray
    blocks: np.ndarray
    zeros: np.ndarray

    def nest(self, r, zero_tol: float, n: int) -> int:
        """The power of two c with n c = G, or 0 if there is none.

        With c > 0 the lattice of n steps is every c-th point of this
        one, bit for bit: fl(L / (c n)) = fl(L / n) / c, so row c i of
        this pass's trig table is row i of that lattice's.  Its
        zero-flagged points number ``zeros[log2 c]``, since a proven
        subsquare holds none.  Raises ``ValueError`` when the pass
        belongs to another realization or ``zero_tol``.
        """
        if self.r is not r or self.zero_tol != zero_tol:
            raise ValueError("the fine pass belongs to another realization "
                             "or zero_tol")
        c = self.G // n if self.G % n == 0 else 0
        return 0 if c & (c - 1) else c


def _fine_pass(r: Realization2D, M: int, D: int,
               zero_tol: float = 0.0) -> _FinePass:
    """The fine classification ``validate_2d(r, M, D, zero_tol)`` reads.

    Each undecided subsquare is evaluated on its half-open S x S block,
    so that every fine point is evaluated once: the closing row and
    column of a block are the first of the next one's.  The lattice's
    far row and column are one more row and column of subsquares, whose
    blocks repeat them (:func:`~nodalcheck.fields._lattice_table`) and
    whose proof is that of the subsquare before (:func:`_corner_proof`),
    as its closed cell holds them; only the points on the lattice are
    counted.  The stack of blocks ends in the two constant ones.  The
    coarse grid is read from the proof and the blocks, so every point
    has one classification.
    """
    S, G = _lattice(M, D)
    table, columns = _lattice_table(r.coeffs.L, r.coeffs.K, G, S)
    level = _corner_proof(r, table[::S], S * (r.coeffs.L / G), zero_tol)
    a, b = np.divmod(np.flatnonzero(level == 0), len(level))
    classify = _window_classifier(r, table, columns, zero_tol)
    blocks = np.empty((len(a) + 2, S, S), dtype=bool)
    blocks[-2], blocks[-1] = False, True
    zeros = np.zeros(G.bit_length(), dtype=np.int64)
    for k in range(0, len(a), _WINDOWS):
        sa, sb = a[k:k + _WINDOWS], b[k:k + _WINDOWS]
        blocks[k:k + len(sa)], flagged = classify(sa, sb)
        if flagged.any():
            w, i, j = np.nonzero(flagged)
            x, y = sa[w] * S + i, sb[w] * S + j
            xy = (x | y)[(x <= G) & (y <= G)]
            zeros += [np.count_nonzero(xy & ((1 << p) - 1) == 0)
                      for p in range(len(zeros))]
    coarse = level > 0
    coarse[a, b] = blocks[:len(a), 0, 0]
    return _FinePass(r, zero_tol, G, S, coarse, level, a, b, blocks, zeros)


def validate_2d(r: Realization2D, M: int, D: int, zero_tol: float = 0.0,
                collect_all: bool = False,
                patterns: PatternCollection | None = None, *,
                fine: _FinePass | None = None) -> ValidationOutcome:
    """Certify the M-discretization of a 2D realization to dyadic depth D.

    Boundary-touching grid squares must be B-admissible and interior
    squares I-admissible (with their four half-shifts), all samples
    nonzero, down to depth D, on the fine grid of G = M * 2^(D+1) steps
    per axis.  The sweep stops at the first violating level unless
    ``collect_all`` is set.

    No full fine grid is formed.  With S = min(8, 2^(D+1)), levels
    below n0 = D + 1 - log2(S) are swept on the grid of every S-th fine
    point, the corners of the level-n0 subsquares (S fine steps wide),
    from whose values an interpolation bound proves most subsquares
    sign-definite (:func:`_corner_proof`).  Fine points are evaluated
    only in the subsquares not proven, each point once: a subsquare owns
    its half-open block, and the lattice's far row and column are one
    more row and column of subsquares.  That gives the exact zero-flag
    count, and levels n0..D are swept on windows around those subsquares
    alone, whose closed blocks and margins are read from their neighbours'
    blocks (:func:`_windows`), except those whose neighbourhood of blocks
    is a staircase, as the flags of the blocks tell before any window is
    assembled.
    The rules every :class:`PatternCollection` keeps make the proven
    subsquares and the staircases admissible, so the outcome is the full
    sweep's.

    The proof, the evaluated subsquares, the zero flags and the coarse
    grid, which is read from the proof and the blocks, come from one fine
    pass, built here unless ``fine`` is given; the pass does not depend
    on ``patterns``.  A pass of the same realization and ``zero_tol`` on
    a lattice of c G steps, c a power of two, serves this call, so that
    several M of one experiment share the finest M's pass.  Its lattice
    nests this one bit for bit: fl(L / (c G)) = fl(L / G) / c, so row
    c i of its trig table is row i of this one's.  The zero count is
    then that of its flagged points with both indices multiples of c
    (a proven subsquare holds none), and the coarse grid is every c-th
    point of its coarse grid.  Only when those leave the verdict open is
    this M validated wholly on a pass of its own, about 1/c^2 the cost of
    the given one, so that no verdict reads two classifications of one
    point.  A pass on any other lattice, or with another S, is not used:
    this call builds its own.  A pass of another realization or
    ``zero_tol`` raises ``ValueError``.
    """
    coll = patterns or default_patterns()
    S, G = _lattice(M, D)
    c = 0 if fine is None else fine.nest(r, zero_tol, G)
    if not c or fine.S != S:
        fine, c = _fine_pass(r, M, D, zero_tol), 1
    zeros = fine.zeros[c.bit_length() - 1]
    if zeros:
        return _verdict(D, (), zeros)

    n0 = D + 2 - S.bit_length()
    found = []
    if n0:
        positive = np.ascontiguousarray(fine.coarse[::c, ::c])
        found = [((i >> n, j >> n), n, pid) for (i, j), n, pid
                 in _sweep(positive, M, 1, 0, n0 - 1, coll, collect_all)]
    if found and not collect_all:
        return _verdict(D, found)
    if c > 1:
        return validate_2d(r, M, D, zero_tol, collect_all, patterns)
    depth = S.bit_length() - 2  # window levels 0..depth are n0..D
    for positive, wa, wb, ring, margin in _windows(fine, 1 << n0):
        found += [((int(wa[w]) >> n0, int(wb[w]) >> n0), n0 + n, pid)
                  for (w, _, _), n, pid in _sweep(positive, 1, ring, margin,
                                                  depth, coll, collect_all)]
    if found and not collect_all:
        # each stack stopped at its own first violating level
        first = min(n for _, n, _ in found)
        found = [v for v in found if v[1] == first]
    return _verdict(D, found)
