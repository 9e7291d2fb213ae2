import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nodalcheck import admissibility as adm
from nodalcheck.admissibility import (CERTIFIED, DEGENERATE, NOT_CERTIFIED,
                                      PatternCollection, PatternLibrary,
                                      SignPattern, ValidationOutcome,
                                      b_admissible, count_surviving,
                                      default_patterns,
                                      double_crossover, i_admissible,
                                      interval_admissible, load_patterns,
                                      validate_1d, validate_2d)
from nodalcheck.cubical import sign_grid
from nodalcheck.fields import (CoeffSeq1D, CoeffSeq2D, Realization1D,
                               Realization2D, classify_grid_2d,
                               draw_realization, evaluate_grid_2d,
                               trig_coeffs)

from test_cubical import constant_1d
from test_fields import cosine_1d
from test_homology import cosine_2d

COLL = default_patterns()


def constant_2d(value=1.0):
    a = np.zeros((4, 4))
    a[0, 0] = a[1, 1] = a[2, 3] = 1.0
    c = CoeffSeq2D(L=2 * np.pi, a=a)
    g = np.zeros((4, 4, 4))
    g[0, 0, 0] = value
    return Realization2D(coeffs=c, g=g, seed=0)


class TestDoubleCrossover:
    def test_examples(self):
        assert double_crossover(1, -1, 1)
        assert not double_crossover(1, 1, 1)
        assert double_crossover(-0.2, 0.5, -0.3)
        assert double_crossover(0, 0, 0)  # weak inequalities

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_flip_symmetric(self, a, b, c):
        assert double_crossover(a, b, c) == double_crossover(-a, -b, -c)
        assert double_crossover(a, b, c) == double_crossover(c, b, a)

    def test_special_values_match_oracle(self):
        """Every triple of values on which >= 0, <= 0 and ``signbit`` can
        disagree, against the oracle's weak inequalities."""
        special = (-1.0, -0.0, 0.0, 1.0, 1e-300, -1e-300, np.inf, -np.inf,
                   np.nan)
        for triple in itertools.product(special, repeat=3):
            want = oracles.crossover_mask(np.array(triple), 1)[0]
            assert double_crossover(*triple) == want, triple


class TestIntervalAdmissible:
    def test_monotone_interval_certified(self):
        # cos(2 pi x) is monotone on [0.05, 0.45]: no crossover at any depth
        out = interval_admissible(cosine_1d(), (0.05, 0.45), D=6)
        assert out.status == CERTIFIED

    def test_cosine_crossover(self):
        out = interval_admissible(cosine_1d(), (0.2, 0.8), D=0)
        assert out.status == NOT_CERTIFIED
        assert out.violations[0] == (0, 0, "double-crossover")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000), st.floats(0.01, 0.5))
    def test_depth_monotone(self, seed, width):
        r = draw_realization(trig_coeffs(1, 4), seed)
        lo = 0.3 * r.coeffs.L
        interval = (lo, lo + width)
        if interval_admissible(r, interval, D=3).certified:
            assert interval_admissible(r, interval, D=0).certified

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            interval_admissible(cosine_1d(), (0.5, 0.2), D=2)
        with pytest.raises(ValueError, match="depth"):
            interval_admissible(cosine_1d(), (0.2, 0.5), D=-1)

    def test_violation_list_capped(self):
        """The first 200 violations are listed, in sorted order, and all
        are counted, as by ``validate_1d``."""
        r = draw_realization(trig_coeffs(1, 1000), 3)
        out = interval_admissible(r, (0.0, r.coeffs.L), D=12)
        assert out.violation_count == validate_1d(r, 1, 12).violation_count
        assert out.violation_count == 590
        assert len(out.violations) == 200
        assert list(out.violations) == sorted(out.violations)


class TestPatternLoading:
    def test_checksums(self):
        assert count_surviving(COLL.B) == 66
        assert count_surviving(COLL.I4) == 92
        assert count_surviving(COLL.I) == 90

    def test_base_counts(self):
        assert len(COLL.B.base_patterns) == 7
        assert len(COLL.I4.base_patterns) == 16
        assert len(COLL.I5.base_patterns) == 1

    def test_closure_sizes(self):
        assert len(COLL.B.closure) == 14
        assert len(COLL.I4.closure) == 32
        assert len(COLL.I5.closure) == 2

    def test_staircase_codes(self):
        """Exactly 66 codes have their three rows all non-decreasing or all
        non-increasing, and their columns too.  In the shipped file they
        are the B survivors and lie inside the I survivors, so the
        loader's checksums leave no room for a file that forbids one.
        The block-flag test of the windows and of the collection rule
        marks exactly these codes."""

        def one_way(lines):
            return (all(p <= q for line in lines for p, q in zip(line, line[1:]))
                    or all(p >= q for line in lines
                           for p, q in zip(line, line[1:])))

        staircases = set()
        for code in range(512):
            rows = [[code >> 3 * i + k & 1 for k in range(3)] for i in range(3)]
            if one_way(rows) and one_way(list(zip(*rows))):
                staircases.add(code)
        assert len(staircases) == 66
        flags = adm._block_flags(adm._STENCIL_BITS)
        marked = adm._staircases(flags, np.arange(512).reshape(1, 1, 512))
        assert set(np.flatnonzero(marked)) == staircases
        b_survivors = set(np.flatnonzero(~COLL.B.forbidden_table()))
        i_survivors = set(np.flatnonzero(~COLL.I.forbidden_table()))
        assert staircases == b_survivors and staircases < i_survivors

    @pytest.mark.parametrize("lib, mask, message", [
        # ++++++++- is a staircase code; it is I-forbidden only here
        ("I4", (1, 1, 1, 1, 1, 1, 1, 1, -1), "staircase"),
        # ++- / ... / ... matches the staircase ++- / +-- / ---
        ("B", (1, 1, -1, 0, 0, 0, 0, 0, 0), "staircase"),
        # +++ / +++ / +-+ is no staircase, but two rows are all +
        ("I4", (1, 1, 1, 1, 1, 1, 1, -1, 1), "adjacent rows"),
    ], ids=["notch", "b-staircase", "i-two-rows"])
    def test_collection_contract_enforced(self, lib, mask, message):
        """A collection whose library forbids a stencil that the sweep
        skips is refused when it is built."""
        libs = {"B": COLL.B, "I4": COLL.I4, "I5": COLL.I5}
        extra = SignPattern(mask=mask, id="extra")
        libs[lib] = PatternLibrary.build(lib, libs[lib].base_patterns
                                         + (extra,))
        with pytest.raises(ValueError, match=message):
            PatternCollection(**libs)

    def test_count_surviving_trivial(self):
        empty = PatternLibrary.build("empty", ())
        assert count_surviving(empty) == 512
        one_corner = PatternLibrary.build(
            "corner", (SignPattern(mask=(1, 1, 1, 0, 0, 0, 0, 0, 0), id="p"),))
        # the orbit of a corner row covers all 4 sides; each row pattern
        # kills 2^6 = 64 codes per sign, overlaps counted once
        assert count_surviving(one_corner) < 512

    def test_each_library_built_once(self, monkeypatch):
        """A load builds B, I4, I5 and the combined I library once each:
        the I checksum is read from the collection's own I."""
        import importlib.resources as res
        text = res.files("nodalcheck").joinpath("patterns.txt").read_text()
        built, build = [], PatternLibrary.build
        monkeypatch.setattr(PatternLibrary, "build", staticmethod(
            lambda name, base: built.append(name) or build(name, base)))
        coll = load_patterns(text)
        assert count_surviving(coll.I) == 90 and coll.code_table.any()
        assert sorted(built) == ["B", "I", "I4", "I5"]

    def test_checksum_mismatch_rejected(self):
        text = "#B:only\n+-+\n...\n...\n"
        with pytest.raises(ValueError, match="base patterns"):
            load_patterns(text)

    def test_corrupted_pattern_rejected(self):
        import importlib.resources as res
        text = res.files("nodalcheck").joinpath("patterns.txt").read_text()
        # flip one constrained entry; the checksum must catch it
        bad = text.replace("#B:alt-corners\n+.-", "#B:alt-corners\n+.+", 1)
        with pytest.raises(ValueError, match="checksum"):
            load_patterns(bad)


def stencil_code(values) -> int:
    """9-bit code of a row-major 3x3 sign stencil: bit i set iff values[i] > 0."""
    return sum(1 << i for i, v in enumerate(values) if v > 0)


class TestForbiddenInStencil:
    """Pattern matches of single stencils, by their 9-bit codes."""

    def test_all_plus_clean(self):
        for lib in (COLL.B, COLL.I4, COLL.I5):
            assert lib.pattern_ids(stencil_code([1] * 9)) == []
            assert lib.pattern_ids(stencil_code([-1] * 9)) == []

    def test_five_point(self):
        vals = [1, 1, 1, 1, -1, 1, 1, 1, 1]  # corners +, center -
        hits = COLL.I5.pattern_ids(stencil_code(vals))
        assert hits  # matches the corner/center pattern

    def test_checkerboard_corners(self):
        vals = [1, 1, -1, 1, 1, 1, -1, 1, 1]  # corners +,-,-,+ cyclic
        assert COLL.B.pattern_ids(stencil_code(vals))

    def test_stencil_code_layout(self):
        """The sweep's codes put point (r, c) of a stencil at bit 3r + c."""
        for code in (0, 1, 0b100000000, 0b010101010, 511, 0b110010011):
            positive = np.array([[bool(code >> (3 * r + c) & 1)
                                  for c in range(3)] for r in range(3)])
            assert adm._level_codes(positive, 1)[0, 0] == code
            signs = [1 if code >> i & 1 else -1 for i in range(9)]
            assert COLL.B.pattern_ids(code) == [
                p.id for p in COLL.B.closure if p.matches(signs)]

    def test_pattern_ids_of_every_code(self):
        """The ids of every code, in closure order, for every library."""
        for code in range(512):
            signs = [1 if code >> i & 1 else -1 for i in range(9)]
            for lib in (COLL.B, COLL.I4, COLL.I5, COLL.I):
                assert lib.pattern_ids(code) == [
                    p.id for p in lib.closure if p.matches(signs)], code


def square_matches(r, square, lib) -> list:
    """Ids of the patterns of ``lib`` in the own stencil of one square."""
    corner, delta = square
    pts = np.array([0.0, 0.5, 1.0]) * delta
    values = evaluate_grid_2d(r, corner[0] + pts, corner[1] + pts)
    assert np.all((values > 0) | (values < 0)), "zero-flagged stencil point"
    return lib.pattern_ids(stencil_code(values.ravel()))


class TestSquareAdmissibility:
    def test_constant_certified(self):
        r = constant_2d()
        sq = ((1.0, 1.0), 0.5)
        assert b_admissible(r, sq, D=3).certified
        assert not square_matches(r, sq, COLL.I4)
        assert not square_matches(r, sq, COLL.I5)
        assert i_admissible(r, sq, D=3).certified

    def test_alternating_corners_b_violation(self):
        # u = cos(x1) cos(x2) has alternating corner signs on a square
        # centered at a saddle; scaled so the corners straddle (pi/2, pi/2)
        a = np.zeros((4, 4))
        a[1, 1] = a[2, 3] = 1.0
        c = CoeffSeq2D(L=2 * np.pi, a=a)
        g = np.zeros((4, 4, 4))
        g[1, 1, 0] = 1.0
        r = Realization2D(coeffs=c, g=g, seed=0)
        delta = 1.0
        corner = (np.pi / 2 - delta / 2, np.pi / 2 - delta / 2)
        out = b_admissible(r, (corner, delta), D=0)
        assert out.status == NOT_CERTIFIED
        assert any(v[1] == 0 for v in out.violations)
        assert square_matches(r, (corner, delta), COLL.I4)

    def test_i5_example(self):
        # u = cos(x1) + cos(x2) around (pi, pi) with half-width 0.6 pi:
        # corners -2 cos(0.6 pi) > 0, center -2 < 0
        a = np.zeros((4, 4))
        a[1, 0] = a[0, 1] = a[1, 1] = a[2, 3] = 1.0
        c = CoeffSeq2D(L=2 * np.pi, a=a)
        g = np.zeros((4, 4, 4))
        g[1, 0, 0] = g[0, 1, 0] = 1.0
        r = Realization2D(coeffs=c, g=g, seed=0)
        delta = 1.2 * np.pi
        corner = (np.pi - delta / 2, np.pi - delta / 2)
        corners = [r((corner[0] + a_ * delta, corner[1] + b_ * delta))
                   for a_ in (0, 1) for b_ in (0, 1)]
        assert min(corners) > 0
        assert r((np.pi, np.pi)) < 0
        assert square_matches(r, (corner, delta), COLL.I5)
        # shrinking to half-width 0.3 pi makes everything negative
        small = 0.6 * np.pi
        assert not square_matches(
            r, ((np.pi - small / 2, np.pi - small / 2), small), COLL.I5)

    @pytest.mark.parametrize("check", [b_admissible, i_admissible])
    @pytest.mark.parametrize("D, delta, message", [
        (-1, 0.5, "depth"), (-2, 0.5, "depth"),
        (2, 0.0, "side"), (2, -0.5, "side")])
    def test_bad_depth_or_side_rejected(self, check, D, delta, message):
        """Nothing is checked at a negative depth or on a degenerate
        square, so neither may come out Certified."""
        with pytest.raises(ValueError, match=message):
            check(constant_2d(), ((1.0, 1.0), delta), D)

    def test_i_neighborhood_precondition(self):
        r = constant_2d()
        with pytest.raises(ValueError):
            i_admissible(r, ((0.0, 0.0), 0.5), D=2)

    def test_depth_monotone_b(self):
        r = draw_realization(trig_coeffs(2, 3), 8)
        sq = ((1.0, 1.0), 0.4)
        if b_admissible(r, sq, D=4).certified:
            assert b_admissible(r, sq, D=1).certified


def _i_admissible_unshifted(r, square, D):
    """I4/I5 on the own stencil of every dyadic subsquare, without the
    half-shifts."""
    corner, delta = square
    for n in range(D + 1):
        sub = delta / 2**n
        for a in range(2**n):
            for b in range(2**n):
                c = (corner[0] + a * sub, corner[1] + b * sub)
                if square_matches(r, (c, sub), COLL.I):
                    return False
    return True


def test_shift_checking_is_load_bearing():
    """A violation visible only in a half-shifted square must be caught."""
    coeffs = trig_coeffs(2, 3)
    found = False
    for seed in range(120):
        r = draw_realization(coeffs, seed)
        for corner in ((1.5, 1.5), (2.5, 2.5), (1.5, 3.0)):
            sq = (corner, 0.8)
            out = i_admissible(r, sq, D=2)
            if out.status == NOT_CERTIFIED and _i_admissible_unshifted(
                    r, sq, 2):
                found = True
                break
        if found:
            break
    assert found, "no shift-only violation found in the search budget"


def test_violation_budget():
    """At most 5 stencils are checked per subsquare per level."""
    r = draw_realization(trig_coeffs(2, 3), 42)
    D = 2
    out = i_admissible(r, ((1.2, 1.2), 1.5), D, collect_all=True)
    if out.status == NOT_CERTIFIED:
        budget = 5 * sum(4**n for n in range(D + 1))
        per_stencil_max = len(COLL.I.closure)
        assert len(out.violations) <= budget * per_stencil_max


_BAD_ZERO_TOLS = pytest.mark.parametrize(
    "zero_tol", [-1e-9, np.nan, np.inf], ids=["negative", "nan", "inf"])


@_BAD_ZERO_TOLS
@pytest.mark.parametrize("entry", [
    "validate_1d", "validate_2d", "b_admissible", "i_admissible",
    "sign_grid_1d", "sign_grid_2d", "classify_grid_2d", "fine_pass"])
def test_bad_zero_tol_rejected(entry, zero_tol):
    """A negative, NaN or infinite tolerance is refused by every entry
    point; NaN and infinity would otherwise flag every point."""
    from nodalcheck.fields import classify_grid_2d
    r1, r2 = cosine_1d(), draw_realization(trig_coeffs(2, 3), 1)
    xs = np.linspace(0.0, r2.coeffs.L, 9)
    calls = {
        "validate_1d": lambda: validate_1d(r1, 10, 2, zero_tol),
        "validate_2d": lambda: validate_2d(r2, 4, 2, zero_tol),
        "b_admissible": lambda: b_admissible(r2, ((0.0, 0.0), 1.0), 2,
                                             zero_tol),
        "i_admissible": lambda: i_admissible(r2, ((1.0, 1.0), 1.0), 2,
                                             zero_tol),
        "sign_grid_1d": lambda: sign_grid(r1, 8, zero_tol),
        "sign_grid_2d": lambda: sign_grid(r2, 8, zero_tol),
        "classify_grid_2d": lambda: classify_grid_2d(r2, xs, xs, zero_tol),
        "fine_pass": lambda: adm._fine_pass(r2, 4, 2, zero_tol),
    }
    with pytest.raises(ValueError, match="zero_tol must be finite and "
                                         "nonnegative"):
        calls[entry]()


_TOL = 1e-9


@pytest.mark.parametrize("c, sign", [
    (_TOL * (1 + 1e-6), 1), (-_TOL * (1 + 1e-6), -1),
    (_TOL * (1 - 1e-6), 0), (-_TOL * (1 - 1e-6), 0),
    (0.0, 0), (-0.0, 0), (np.nan, 0)])
def test_one_sign_rule_at_the_bound(c, sign):
    """Constant fields u = c just outside or inside +-zero_tol, exact zeros
    of both signs and NaN: every entry point decides them alike, with the
    sign of c outside the bound and every point zero-flagged inside (the
    factors 1 +- 1e-6 leave room for the rounding of the 1D grid)."""
    r1 = Realization1D(coeffs=CoeffSeq1D(L=1.0, a=np.ones(2)),
                       g=np.array([c, 0.0, 0.0]), seed=0)
    r2 = constant_2d(c)
    M, D = 4, 2
    G, unit = M << (D + 1), 1 << (D + 1)
    fine = adm._fine_pass(r2, M, D, _TOL)
    for grid in (sign_grid(r1, M, _TOL), sign_grid(r2, M, _TOL),
                 sign_grid(r2, M, _TOL, fine=fine)):
        assert np.all(grid.signs == sign)
    xs = np.linspace(0.0, r2.coeffs.L, M + 1)
    positive, zeros = classify_grid_2d(r2, xs, xs, _TOL)
    assert np.all(positive == (sign > 0))
    assert zeros == (0 if sign else (M + 1) ** 2)
    assert list(fine.zeros) == [0 if sign else ((G >> p) + 1) ** 2
                                for p in range(G.bit_length())]
    square = ((1.0, 1.0), 0.5)
    for outcome, points in (
            (validate_1d(r1, M, D, _TOL), M + 1),
            (validate_2d(r2, M, D, _TOL), (G + 1) ** 2),
            (b_admissible(r2, square, D, _TOL), (unit + 1) ** 2),
            (i_admissible(r2, square, D, _TOL), (2 * unit + 1) ** 2)):
        if sign:
            assert outcome.certified
        else:
            assert outcome.status == DEGENERATE
            assert outcome.zero_flag_count == points


class TestValidate1D:
    def test_cosine_m3_certified(self):
        r = cosine_1d()
        out = validate_1d(r, M=3, D=6)
        assert out.certified
        from nodalcheck.cubical import sign_grid
        from nodalcheck.homology import betti_pair, homology_match, \
            reference_betti
        # the zeros L/4 and 3L/4 lie on neither the 63- nor the 126-point grid
        assert homology_match(betti_pair(sign_grid(r, 3)),
                              reference_betti(r, 63))
        assert reference_betti(r, 64, zero_tol=1e-12) is None

    def test_cosine_m1_crossover(self):
        out = validate_1d(cosine_1d(), M=1, D=2)
        assert out.status == NOT_CERTIFIED
        assert out.violations[0][0] == 0

    def test_constant_certified(self):
        for M in (1, 3, 10):
            assert validate_1d(constant_1d(), M=M, D=5).certified

    def test_zero_flag_degenerate(self):
        out = validate_1d(cosine_1d(), M=4, D=3, zero_tol=1e-12)
        assert out.status == DEGENERATE
        assert out.zero_flag_count == 2

    def test_nan_degenerate(self):
        """NaN is zero-flagged, as by sign_grid and in 2D."""
        r = Realization1D(coeffs=cosine_1d().coeffs, g=np.full(5, np.nan),
                          seed=0)
        out = validate_1d(r, M=6, D=2)
        assert out.status == DEGENERATE
        assert out.zero_flag_count == 7
        assert sign_grid(r, 6).zero_count == 7

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            validate_1d(cosine_1d(), M=10, D=-1)

    def test_negative_zero_tol_rejected(self):
        with pytest.raises(ValueError, match="zero_tol"):
            validate_1d(cosine_1d(), M=10, D=2, zero_tol=-1e-9)


class TestValidate2D:
    def test_constant_certified(self):
        assert validate_2d(constant_2d(), M=4, D=4).certified

    def test_cosine_bands_certified(self):
        r = cosine_2d()
        out = validate_2d(r, M=8, D=4)
        assert out.certified
        from nodalcheck.cubical import sign_grid
        from nodalcheck.homology import betti_pair, homology_match, \
            reference_betti
        pair = betti_pair(sign_grid(r, 8))
        assert pair[0].b0 == 2 and pair[1].b0 == 1
        assert homology_match(pair, reference_betti(r, 64))

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            validate_2d(constant_2d(), M=2, D=2)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            validate_2d(constant_2d(), M=4, D=-1)

    def test_uniform_stencil_pattern_rejected(self):
        """Skipping sign-definite subsquares is sound only while codes 0
        and 511 are admissible; a collection forbidding one is refused
        when it is built."""
        assert not COLL.code_table[0] and not COLL.code_table[511]
        plus = SignPattern(mask=(1,) * 9, id="all-plus")
        # built by hand, so the checksums of load_patterns do not apply
        lib = PatternLibrary.build("B", (plus,))
        assert lib.forbidden_table()[[0, 511]].all()  # polarity closure
        with pytest.raises(ValueError, match="staircase"):
            PatternCollection(B=lib, I4=COLL.I4, I5=COLL.I5)

    def test_memory_bounded(self):
        """No fine-grid-sized array: at M = 64, D = 6 the dense sweep's
        positive grid, uint16 codes and flags alone take 4 * 8193^2 B,
        about 270 MB."""
        import tracemalloc
        r = draw_realization(trig_coeffs(2, 3), 2)
        tracemalloc.start()
        try:
            validate_2d(r, M=64, D=6, zero_tol=1e-12, collect_all=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_depth_monotone(self):
        r = draw_realization(trig_coeffs(2, 3), 5)
        if validate_2d(r, M=8, D=4).certified:
            assert validate_2d(r, M=8, D=1).certified
        # and NotCertified at low depth stays NotCertified deeper
        if validate_2d(r, M=8, D=1).status == NOT_CERTIFIED:
            assert validate_2d(r, M=8, D=4).status == NOT_CERTIFIED

    def test_matches_slow_square_checks(self):
        """The global vectorized sweep agrees with per-square checks."""
        r = draw_realization(trig_coeffs(2, 3), 17)
        M, D = 4, 1
        out = validate_2d(r, M, D, collect_all=True)
        L = r.coeffs.L
        delta = L / M
        bad = set()
        for i in range(M):
            for j in range(M):
                corner = (i * delta, j * delta)
                if i in (0, M - 1) or j in (0, M - 1):
                    o = b_admissible(r, (corner, delta), D, collect_all=True)
                else:
                    o = i_admissible(r, (corner, delta), D, collect_all=True)
                if o.status == NOT_CERTIFIED:
                    bad.add((i, j))
        got = set(v[0] for v in out.violations)
        assert (out.status == NOT_CERTIFIED) == bool(bad)
        assert got == bad


class TestEquivariance:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500))
    def test_polarity(self, seed):
        c = trig_coeffs(2, 3)
        r = draw_realization(c, seed)
        flipped = Realization2D(coeffs=c, g=-r.g, seed=seed)
        a = validate_2d(r, M=4, D=3)
        b = validate_2d(flipped, M=4, D=3)
        assert a.status == b.status

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500))
    def test_transpose(self, seed):
        c = trig_coeffs(2, 3)
        r = draw_realization(c, seed)
        # swapping the two axes permutes the mixed trig channels
        gt = np.transpose(r.g, (1, 0, 2))[:, :, [0, 2, 1, 3]]
        rt = Realization2D(coeffs=c, g=gt, seed=seed)
        xs = np.array([0.4, 1.7])
        ys = np.array([2.9, 0.3])
        assert np.allclose(evaluate_grid_2d(r, xs, ys),
                           evaluate_grid_2d(rt, ys, xs).T)
        assert validate_2d(r, M=4, D=3).status == validate_2d(
            rt, M=4, D=3).status

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500))
    def test_reflection(self, seed):
        c = trig_coeffs(2, 3)
        r = draw_realization(c, seed)
        # x1 -> L - x1 keeps cosines and negates the sin(x1) channels
        gr = r.g.copy()
        gr[:, :, 2] *= -1
        gr[:, :, 3] *= -1
        rr = Realization2D(coeffs=c, g=gr, seed=seed)
        assert rr((c.L - 0.7, 1.1)) == pytest.approx(r((0.7, 1.1)), rel=1e-10)
        assert validate_2d(r, M=4, D=3).status == validate_2d(
            rr, M=4, D=3).status


class TestSignPropagation:
    def test_certified_interval_stays_positive(self):
        """Dense sampling on a deep-certified interval with positive
        endpoint samples never goes below zero."""
        checked = 0
        for seed in range(30):
            r = draw_realization(trig_coeffs(1, 4), seed)
            L = r.coeffs.L
            M = 12
            for k in range(M):
                a, b = k * L / M, (k + 1) * L / M
                if r(a) > 0 and r(b) > 0 and interval_admissible(
                        r, (a, b), D=10).certified:
                    xs = np.linspace(a, b, 1000)
                    assert np.all(r(xs) > -1e-12)
                    checked += 1
        assert checked > 50

    def test_b_admissible_square_stays_positive(self):
        """Deep B-admissible squares with all-positive corners have no
        interior sign dip (2D sign-propagation analogue)."""
        checked = 0
        for seed in range(15):
            r = draw_realization(trig_coeffs(2, 3), seed)
            L = r.coeffs.L
            M = 10
            delta = L / M
            for i in range(0, M, 3):
                for j in range(0, M, 3):
                    corner = (i * delta, j * delta)
                    corners = [r((corner[0] + a * delta, corner[1] + b * delta))
                               for a in (0, 1) for b in (0, 1)]
                    if min(corners) > 0 and b_admissible(
                            r, (corner, delta), D=8).certified:
                        xs = np.linspace(corner[0], corner[0] + delta, 40)
                        ys = np.linspace(corner[1], corner[1] + delta, 40)
                        assert evaluate_grid_2d(r, xs, ys).min() > -1e-12
                        checked += 1
        assert checked > 10


def test_outcome_invariant():
    with pytest.raises(ValueError):
        ValidationOutcome(CERTIFIED, 3, violations=((0, 0, "x"),))
    with pytest.raises(ValueError):
        ValidationOutcome(CERTIFIED, 3, zero_flag_count=1)


def test_outcome_violation_count():
    """A direct construction counts its violations; a count below them is refused."""
    v = ((0, 0, "x"), (1, 0, "x"))
    assert ValidationOutcome(NOT_CERTIFIED, 3, v).violation_count == 2
    assert ValidationOutcome(NOT_CERTIFIED, 3, v) == \
        ValidationOutcome(NOT_CERTIFIED, 3, v, violation_count=2)
    assert ValidationOutcome(NOT_CERTIFIED, 3, v,
                             violation_count=500).violation_count == 500
    with pytest.raises(ValueError):
        ValidationOutcome(NOT_CERTIFIED, 3, v, violation_count=1)
    with pytest.raises(ValueError):
        ValidationOutcome(CERTIFIED, 3, violation_count=1)


def test_env_var_pattern_path(tmp_path, monkeypatch):
    import importlib.resources as res
    text = res.files("nodalcheck").joinpath("patterns.txt").read_text()
    p = tmp_path / "pats.txt"
    p.write_text(text)
    monkeypatch.setenv(adm.ENV_PATTERN_PATH, str(p))
    adm.default_patterns.cache_clear()
    try:
        coll = default_patterns()
        assert count_surviving(coll.B) == 66
    finally:
        monkeypatch.delenv(adm.ENV_PATTERN_PATH)
        adm.default_patterns.cache_clear()
