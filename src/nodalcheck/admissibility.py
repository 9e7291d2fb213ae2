"""Double crossovers, dyadic recursion and forbidden-pattern admissibility.

The 2D checks work on the 3x3 stencil of a square (corners, edge
midpoints, center).  A stencil of strict signs is encoded as a 9-bit
integer (bit i set iff position i is positive, row-major), and each
pattern library is compiled to a 512-entry lookup table, so dyadic
sweeps over millions of subsquares reduce to strided slicing plus a
table lookup.  Subsquares that their four corner values and a bound on
the curvature prove sign-definite hold only the uniform codes 0 and 511,
which no pattern may forbid, so the whole-grid check evaluates and
sweeps only the rest.
In 1D the sweep visits only the grid intervals in which the fine samples
change sign twice or touch zero, since no other can hold a double
crossover.

Admissibility in the source definitions quantifies over all dyadic
levels; a machine checks finitely many, so ``Certified`` here always
means "no violation down to depth D" with D recorded in the outcome.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from importlib import resources

import numpy as np

from .fields import (_BAND_ROWS, Realization1D, Realization2D, _grid_bands,
                     _lattice_table, _window_classifier, classify_grid_2d,
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


# the dihedral group of the square acting on row-major 3x3 positions
def _dihedral_perms() -> list:
    def pos(r, c):
        return 3 * r + c

    transforms = [
        lambda r, c: (r, c),
        lambda r, c: (c, 2 - r),
        lambda r, c: (2 - r, 2 - c),
        lambda r, c: (2 - c, r),
        lambda r, c: (r, 2 - c),
        lambda r, c: (2 - r, c),
        lambda r, c: (c, r),
        lambda r, c: (2 - c, 2 - r),
    ]
    perms = []
    for t in transforms:
        perms.append(tuple(pos(*t(r, c)) for r in range(3) for c in range(3)))
    return perms

_DIHEDRAL = _dihedral_perms()


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

    def canonical(self) -> tuple:
        """Lexicographic minimum over dihedral symmetry and polarity flip."""
        best = None
        for perm in _DIHEDRAL:
            img = tuple(self.mask[perm[i]] for i in range(9))
            for pol in (1, -1):
                cand = tuple(pol * v for v in img)
                if best is None or cand < best:
                    best = cand
        return best

    def orbit(self) -> list:
        """All distinct masks in the dihedral-times-polarity orbit."""
        seen = set()
        for perm in _DIHEDRAL:
            img = tuple(self.mask[perm[i]] for i in range(9))
            for pol in (1, -1):
                seen.add(tuple(pol * v for v in img))
        return sorted(seen)

    def matches(self, values) -> bool:
        return all(m == 0 or m == v for m, v in zip(self.mask, values))


def _mask_bits(mask) -> tuple:
    """(constrained-position bits, required-plus bits) for code matching."""
    cmask = want = 0
    for i, v in enumerate(mask):
        if v != 0:
            cmask |= 1 << i
            if v > 0:
                want |= 1 << i
    return cmask, want


@dataclass(frozen=True)
class PatternLibrary:
    """A named forbidden-pattern library with its symmetry closure."""

    name: str
    base_patterns: tuple
    closure: tuple = field(default=())

    @staticmethod
    def build(name: str, base_patterns) -> "PatternLibrary":
        closed = {}
        for p in base_patterns:
            for j, mask in enumerate(p.orbit()):
                key = mask
                if key not in closed:
                    closed[key] = SignPattern(mask=mask, id=f"{p.id}/{j}")
        closure = tuple(closed[k] for k in sorted(closed))
        return PatternLibrary(name=name, base_patterns=tuple(base_patterns),
                              closure=closure)

    @cached_property
    def _match_table(self) -> np.ndarray:
        """(len(closure), 512) bool: closure pattern k matches stencil code c."""
        codes = np.arange(512)
        rows = [(codes & cmask) == want
                for cmask, want in (_mask_bits(p.mask) for p in self.closure)]
        return np.array(rows, dtype=bool).reshape(len(self.closure), 512)

    @cached_property
    def _table(self) -> np.ndarray:
        table = self._match_table.any(axis=0)
        table.flags.writeable = False
        return table

    def forbidden_table(self) -> np.ndarray:
        """512-entry bool table: code -> contains some pattern of the closure."""
        return self._table

    def pattern_ids(self, code: int) -> list:
        """Ids of the closure patterns matched by a 9-bit stencil code."""
        return [self.closure[k].id for k in np.flatnonzero(self._match_table[:, code])]


@dataclass(frozen=True)
class PatternCollection:
    """The three libraries B, I4, I5 plus the combined interior library."""

    B: PatternLibrary
    I4: PatternLibrary
    I5: PatternLibrary

    @cached_property
    def I(self) -> PatternLibrary:
        return PatternLibrary.build(
            "I", self.I4.base_patterns + self.I5.base_patterns
        )

    @cached_property
    def code_table(self) -> np.ndarray:
        """512-entry uint8 table over stencil codes: bit 0 B-, bit 1 I-forbidden."""
        table = (self.B.forbidden_table() * _B_BIT
                 | self.I.forbidden_table() * _I_BIT).astype(np.uint8)
        table.flags.writeable = False
        return table

    @cached_property
    def proven_blocks_admissible(self) -> bool:
        """Whether no I-forbidden code has two adjacent rows or columns of one sign.

        Every half-side shift of a subsquare keeps two adjacent rows (or
        columns) of its stencil inside the subsquare.  When this holds, a
        subsquare sign-definite on its closed square therefore holds no
        I-violation at any depth, whatever lies around it.
        """
        bits = (np.arange(512)[:, None] >> np.arange(9)) & 1
        stencils = bits.reshape(512, 3, 3)
        pairs = (stencils[:, :2], stencils[:, 1:],
                 stencils[:, :, :2], stencils[:, :, 1:])
        uniform = np.any([p.min(axis=(1, 2)) == p.max(axis=(1, 2))
                          for p in pairs], axis=0)
        return not np.any(self.code_table[uniform] & _I_BIT)


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


def double_crossover(v_left: float, v_mid: float, v_right: float) -> bool:
    """True iff (sigma*left >= 0, sigma*mid <= 0, sigma*right >= 0) for some sigma."""
    for sigma in (1.0, -1.0):
        if sigma * v_left >= 0 and sigma * v_mid <= 0 and sigma * v_right >= 0:
            return True
    return False


def _double_crossovers(v: np.ndarray, D: int) -> list:
    """(k, n) of every dyadic subinterval with a double crossover, levels 0..D.

    ``v`` samples u at 2^(D+1) equal steps per level-0 interval, so it
    has m 2^(D+1) + 1 samples for m level-0 intervals, and subinterval k
    of level n spans v[k 2h : (k + 1) 2h + 1], h = 2^(D-n): ends v[2kh]
    and v[2(k+1)h], midpoint v[(2k+1)h].  A double crossover is ends
    >= 0 around a midpoint <= 0, or the reverse.  The list is sorted by
    level, then by k.

    Only *hot* level-0 intervals are swept: those with at least two
    ``signbit`` flips between consecutive samples, or with a sample
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
    neg = np.signbit(v)
    flips = np.flatnonzero(neg[1:] != neg[:-1]) >> shift
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
    if D < 0:
        raise ValueError("depth D must be nonnegative")
    n_fine = 1 << (D + 1)
    xs = alpha + (beta - alpha) * np.arange(n_fine + 1) / n_fine
    violations = [(k, n, "double-crossover")
                  for k, n in _double_crossovers(r(xs), D)]
    if violations:
        return ValidationOutcome(NOT_CERTIFIED, D, tuple(sorted(violations)))
    return ValidationOutcome(CERTIFIED, D)


# ---------------------------------------------------------------------------
# Pattern file parsing


def load_patterns(text: str) -> PatternCollection:
    """Parse a pattern file and validate the survivor checksums.

    The file holds blocks ``#<lib>:<id>`` followed by three lines of
    three characters from ``{+, -, .}``; lines starting with ``//`` are
    comments.  A checksum mismatch rejects the whole file, since it
    means the transcription is wrong.
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

    coll = PatternCollection(
        B=PatternLibrary.build("B", by_lib["B"]),
        I4=PatternLibrary.build("I4", by_lib["I4"]),
        I5=PatternLibrary.build("I5", by_lib["I5"]),
    )
    checks = [
        (coll.B, CHECKSUM_B),
        (coll.I4, CHECKSUM_I4),
        (coll.I, CHECKSUM_I),
    ]
    for lib, want in checks:
        got = count_surviving(lib)
        if got != want:
            raise ValueError(
                f"pattern library {lib.name} checksum mismatch: "
                f"{got} surviving stencils, expected {want}"
            )
    return coll


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

_MAX_VIOLATIONS = 200


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


def _verdict(D: int, violations: list) -> ValidationOutcome:
    if violations:
        return ValidationOutcome(NOT_CERTIFIED, D,
                                 tuple(sorted(violations)[:_MAX_VIOLATIONS]),
                                 violation_count=len(violations))
    return ValidationOutcome(CERTIFIED, D)


def _square_outcome(r: Realization2D, corner, delta: float, D: int,
                    coll: PatternCollection, zero_tol: float, shifts: bool,
                    collect_all: bool) -> ValidationOutcome:
    """Dyadic sweep of one square: B-checked, or I-checked with ``shifts``."""
    L = r.coeffs.L
    cx, cy = float(corner[0]), float(corner[1])
    pad = 0.5 * delta if shifts else 0.0
    if not (0.0 <= cx - pad and cx + delta + pad <= L * (1 + 1e-12)
            and 0.0 <= cy - pad and cy + delta + pad <= L * (1 + 1e-12)):
        raise ValueError("square (with its delta/2 neighborhood, if required) "
                         "must lie inside [0, L]^2")
    unit = 1 << (D + 1)  # fine steps across the square
    margin = unit // 2 if shifts else 0
    total = unit + 2 * margin
    step = delta / unit
    xs = cx - margin * step + np.arange(total + 1) * step
    ys = cy - margin * step + np.arange(total + 1) * step
    positive, zeros = classify_grid_2d(r, xs, ys, zero_tol)
    if zeros:
        return ValidationOutcome(DEGENERATE, D, zero_flag_count=zeros)
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
    as in 2D.  The M 2^(D+1) + 1 fine samples come from one inverse FFT.
    The dyadic sweep then visits only the *hot* grid intervals, where the
    fine samples change ``signbit`` at least twice or touch an exact
    zero.  A double crossover needs one or the other, so no other
    interval can hold one (``_double_crossovers`` gives the argument).
    Past the FFT, the cost grows with the sign changes of u.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    if D < 0:
        raise ValueError("depth D must be nonnegative")
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    unit = 1 << (D + 1)
    v = evaluate_grid_1d(r, M * unit)
    grid_vals = v[::unit]
    signed = (grid_vals > zero_tol) | (grid_vals < -zero_tol)
    zero_flags = grid_vals.size - int(np.count_nonzero(signed))
    if zero_flags:
        return ValidationOutcome(DEGENERATE, D, zero_flag_count=zero_flags)
    # subinterval k of level n lies in grid interval k >> n
    return _verdict(D, [(k >> n, n, "double-crossover")
                        for k, n in _double_crossovers(v, D)])


# Pruning unit: the subsquares of level n0, _PRUNE_STEPS fine steps wide
# (the grid squares themselves when those are narrower).  Windows are
# evaluated and swept in stacks of at most _WINDOWS.
_PRUNE_STEPS = 8
_WINDOWS = 1024


def _windows(fine: _FinePass, per_square: int):
    """Yield ``(positive, a, b, ring, margin)``: stacks of windows for ``_sweep``.

    The windows are the level-n0 subsquares (a, b) that ``fine.level``
    leaves undecided, S fine steps wide, ``per_square`` of them across a
    grid square.  ``fine.own`` holds their evaluated closed blocks; every
    other block is constant, the sign of ``level``.  B windows are the
    subsquares of boundary grid squares, their blocks alone.  I windows
    are the subsquares of interior grid squares, with S/2 margins that are
    read from the neighbouring blocks.
    """
    level, a, b, own, S = fine.level, fine.a, fine.b, fine.own, fine.S
    Q = len(level)

    def interior(t):
        return (t >= per_square) & (t < Q - per_square)

    inner = interior(a) & interior(b)
    edge = np.flatnonzero(~inner)
    for k in range(0, len(edge), _WINDOWS):
        sel = edge[k:k + _WINDOWS]
        yield own[sel], a[sel], b[sel], 1, 0

    # S x S blocks, the closing row and column left to the next block:
    # the evaluated ones, then all-negative and all-positive.  A row of a
    # block is read as one unsigned integer of S bytes, so that the
    # mosaics below are gathered and transposed S points at a time.
    blocks = np.concatenate((own[:, :S, :S], np.zeros((1, S, S), dtype=bool),
                             np.ones((1, S, S), dtype=bool)))
    block_rows = blocks.view(f"u{S}")[..., 0]
    # where each subsquare finds its block in that stack
    index = np.where(level > 0, len(a) + 1, len(a))
    index[a, b] = np.arange(len(a))
    ia, ib = a[inner], b[inner]
    near = np.arange(-1, 2)
    window = slice(S // 2, S // 2 + 2 * S + 1)
    for k in range(0, len(ia), _WINDOWS):
        wa, wb = ia[k:k + _WINDOWS], ib[k:k + _WINDOWS]
        # the 3S x 3S mosaic of the block and its eight neighbours
        rows = block_rows[index[wa[:, None, None] + near[:, None],
                                wb[:, None, None] + near]]
        mosaic = np.ascontiguousarray(rows.transpose(0, 1, 3, 2)).view(bool)
        mosaic = mosaic.reshape(-1, 3 * S, 3 * S)
        yield mosaic[:, window, window], wa, wb, 0, S // 2


def _lattice(M: int, D: int, coll: PatternCollection) -> tuple:
    """(S, G) of ``validate_2d(r, M, D)``, after checking its arguments."""
    if M < 3:
        raise ValueError("M must be at least 3 so that interior squares exist")
    if D < 0:
        raise ValueError("depth D must be nonnegative")
    if coll.code_table[0] or coll.code_table[511]:
        raise ValueError("a pattern forbids a uniform stencil, so sign-definite "
                         "subsquares cannot be skipped")
    unit = 1 << (D + 1)
    return min(_PRUNE_STEPS, unit), M * unit


def _corner_proof(r: Realization2D, grid: np.ndarray, delta: float,
                  zero_tol: float) -> tuple:
    """``(coarse, proven)`` on the tensor grid of the trig table ``grid``.

    ``coarse`` is u > zero_tol at the grid points, ``delta`` apart.
    Entry (i, j) of the int8 ``proven`` is the sign u keeps on the closed
    cell with corners (i, j) and (i + 1, j + 1) if every value of u in
    it, as this package computes it, exceeds ``zero_tol`` in magnitude,
    and 0 (undecided) otherwise.  On the cell, u differs from the
    bilinear interpolant of its corners, which lies between the corner
    values, by at most delta^2 (H11 + H22) / 8 (``r.hessian_bounds``).
    So the cell is proven when its four corners exceed that plus zero_tol
    plus twice ``r.rounding_bound`` (corner and inner value) in magnitude
    with one sign; a NaN corner is never decided.  Band by band, with the
    last row of the band before, so no float grid of the full size forms.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    H11, H22 = r.hessian_bounds
    margin = (delta * delta * (H11 + H22) / 8 + zero_tol
              + 2.0 * r.rounding_bound)
    n = len(grid)
    coarse = np.empty((n, n), dtype=bool)
    proven = np.empty((n - 1, n - 1), dtype=np.int8)
    # corners above margin and below -margin; row 0 is the band before's
    corners = np.empty((2, min(n, _BAND_ROWS) + 1, n), dtype=bool)
    for rows, values in _grid_bands(r, grid, grid):
        k, top = len(values), int(rows.start == 0)
        np.greater(values, zero_tol, out=coarse[rows])
        np.greater(values, margin, out=corners[0, 1:k + 1])
        np.less(values, -margin, out=corners[1, 1:k + 1])
        up, down = _fold(corners[:, top:k + 1], np.minimum, 2)
        np.subtract(up, down, out=proven[rows.start + top - 1:rows.stop - 1],
                    dtype=np.int8)
        corners[:, 0] = corners[:, k]
    return coarse, proven


def _fold(signs: np.ndarray, extreme, width: int) -> np.ndarray:
    """``extreme`` of ``signs[..., i + k, j + l]``, k, l < width."""
    m, n = (size - width + 1 for size in signs.shape[-2:])
    rows = reduce(extreme, [signs[..., k:k + m, :] for k in range(width)])
    return reduce(extreme, [rows[..., k:k + n] for k in range(width)])


def _level(proven: np.ndarray, coll: PatternCollection) -> np.ndarray:
    """The signs the sweep takes as given on the cells of ``proven``.

    When the library forbids a stencil a proven subsquare can hold
    (``PatternCollection.proven_blocks_admissible`` is False), a cell keeps
    its sign only if its 8 neighbours, undecided beyond the edges, carry
    it too: they cover a halo of a whole cell, more than the half-side
    shifts reach.
    """
    if coll.proven_blocks_admissible:
        return proven
    padded = np.pad(proven, 1)
    lo, hi = _fold(padded, np.minimum, 3), _fold(padded, np.maximum, 3)
    return np.where(lo == hi, lo, 0)


@dataclass(eq=False)
class _FinePass:
    """The fine classification of one realization on the lattice of G steps.

    ``coarse`` is u > zero_tol on every S-th fine point, the corners of
    the subsquares S fine steps wide.  ``level`` is the sign the sweep
    takes as given on each subsquare (0: undecided, :func:`_level`),
    ``a, b`` the subsquares it leaves undecided and ``own`` their
    evaluated closed blocks (u > zero_tol).  ``zeros[p]`` counts the
    zero-flagged fine points whose two indices are multiples of 2^p, each
    point once.  Made by :func:`_fine_pass`; :func:`validate_2d` reads all
    of it on this lattice, and ``zeros[log2 c]`` and every c-th point of
    ``coarse`` on the lattice of G / c steps for every power of two c.
    """

    r: Realization2D
    zero_tol: float
    coll: PatternCollection
    G: int
    S: int
    coarse: np.ndarray
    level: np.ndarray
    a: np.ndarray
    b: np.ndarray
    own: np.ndarray
    zeros: np.ndarray


def _fine_pass(r: Realization2D, M: int, D: int, zero_tol: float = 0.0,
               patterns: PatternCollection | None = None) -> _FinePass:
    """The fine classification ``validate_2d(r, M, D, zero_tol)`` reads."""
    coll = patterns or default_patterns()
    S, G = _lattice(M, D, coll)
    table = _lattice_table(r.coeffs.L, r.coeffs.K, G)
    coarse, proven = _corner_proof(r, table[::S], S * (r.coeffs.L / G),
                                   zero_tol)
    level = _level(proven, coll)
    a, b = np.divmod(np.flatnonzero(level == 0), len(level))
    classify = _window_classifier(r, table, table, S + 1, zero_tol)
    own = np.empty((len(a), S + 1, S + 1), dtype=bool)
    zeros = np.zeros(G.bit_length(), dtype=np.int64)
    for k in range(0, len(a), _WINDOWS):
        sel = slice(k, k + _WINDOWS)
        own[sel], flagged = classify(a[sel] * S, b[sel] * S)
        # count each fine point once: the closing row and column of a
        # block belong to the next block, except at the far edge
        flagged[a[sel] < len(level) - 1, S] = False
        flagged[b[sel] < len(level) - 1, :, S] = False
        if flagged.any():
            w, i, j = np.nonzero(flagged)
            xy = (a[sel][w] * S + i) | (b[sel][w] * S + j)
            zeros += [np.count_nonzero(xy & ((1 << p) - 1) == 0)
                      for p in range(len(zeros))]
    return _FinePass(r, zero_tol, coll, G, S, coarse, level, a, b, own, zeros)


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
    only in the subsquares not proven, which gives the exact zero-flag
    count, and levels n0..D are swept on windows around those alone.
    Every half-side shift keeps two adjacent rows or columns of its
    stencil inside the subsquare, so a proven subsquare and its
    descendants hold only the uniform stencils and stencils with two
    uniform rows or columns.  A proven subsquare is therefore skipped
    when the library forbids none of the latter
    (``PatternCollection.proven_blocks_admissible``), and otherwise only
    when its 8 neighbours, which cover the S/2 halo the shifts reach,
    are proven with its sign too.  The outcome is the full sweep's.

    The proof, the coarse grid, the evaluated subsquares and the zero
    flags come from one fine pass, built here unless ``fine`` is given.
    A pass of the same realization, ``zero_tol`` and patterns on a
    lattice of c G steps, c a power of two, serves this call, so that
    several M of one experiment share the finest M's pass.  Its lattice
    nests this one bit for bit: fl(L / (c G)) = fl(L / G) / c, so row
    c i of its trig table is row i of this one's.  The zero count is
    then that of its flagged points with both indices multiples of c
    (a proven subsquare holds none), and the coarse grid is every c-th
    point of its coarse grid.  Only when those leave the verdict open
    does this call build its own pass, about 1/c^2 the cost of the given
    one, for the proven subsquares and the windows.  A pass on any other
    lattice, or with another S, is not used: this call builds its own.
    A pass of another realization, ``zero_tol`` or pattern collection
    raises ``ValueError``.
    """
    coll = patterns or default_patterns()
    S, G = _lattice(M, D, coll)
    if fine is not None and (fine.r is not r or fine.zero_tol != zero_tol
                             or fine.coll is not coll):
        raise ValueError("the fine pass belongs to another realization, "
                         "zero_tol or pattern collection")
    c = (fine.G // G if fine is not None and fine.S == S and fine.G % G == 0
         else 0)
    if not c or c & (c - 1):
        fine, c = _fine_pass(r, M, D, zero_tol, coll), 1
    zeros = int(fine.zeros[c.bit_length() - 1])
    if zeros:
        return ValidationOutcome(DEGENERATE, D, zero_flag_count=zeros)

    n0 = D + 2 - S.bit_length()
    found = []
    if n0:
        positive = np.ascontiguousarray(fine.coarse[::c, ::c])
        found = [((i >> n, j >> n), n, pid) for (i, j), n, pid
                 in _sweep(positive, M, 1, 0, n0 - 1, coll, collect_all)]
    if found and not collect_all:
        return _verdict(D, found)
    if c > 1:
        fine = _fine_pass(r, M, D, zero_tol, coll)
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
