"""The fast paths against the slow reference paths kept in oracles.py.

In 2D the library evaluates the field as one banded block product,
classifies signs band by band, and sweeps each dyadic level through one
stencil-code array; ``validate_2d`` further skips the subsquares that their
corner values prove sign-definite.  In 1D it evaluates every equispaced grid
as a block product of two small trig tables (by one inverse FFT above
``fields._PRODUCT_TERMS`` terms), and single points from the powers of one
complex exponential, instead of cosine and sine sums, and it finds zeros by a
few Newton steps, checked for a sign change, instead of bisection.  Betti
numbers come from the graph of row runs instead of 8-neighbour labels and
the face closure's Euler characteristic.  Every outcome must equal
the straightforward formulation's, and the pruned one the dense
whole-grid sweep's, field for field, on many seeds, at the experiment's
zero tolerance and at 0.  Zeros agree in number, and in position to
within 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nodalcheck import admissibility as adm
from nodalcheck import cubical, experiments, fields
from nodalcheck.admissibility import (PatternCollection, PatternLibrary,
                                      b_admissible, default_patterns,
                                      i_admissible, interval_admissible,
                                      validate_1d, validate_2d)
from nodalcheck.cubical import SignGrid, cubical_approx, sign_grid
from nodalcheck.experiments import default_zero_tol
from nodalcheck.fields import (CoeffSeq1D, CoeffSeq2D, Realization1D,
                               Realization2D, derive_seed, draw_realization,
                               evaluate, evaluate_grid_1d, evaluate_grid_2d,
                               trig_coeffs)
from nodalcheck.homology import (BettiVector, betti_pair,
                                 connected_components, default_reference_M,
                                 reference_betti)

from test_homology import cosine_2d

COLL = default_patterns()
SEEDS = range(200)
SIZES = ((3, 2), (5, 3), (8, 4), (3, 4), (8, 1), (5, 0))  # (M, D)
# depths at which the sweep is pruned below level D - 2 (D >= 3)
PRUNED_SIZES = ((3, 3), (5, 4), (8, 5), (4, 6), (6, 3), (3, 5))


def _realizations():
    """Degree 2..4 random fields by seed, plus fields with planted zero flags."""
    for seed in SEEDS:
        yield seed, draw_realization(trig_coeffs(2, 2 + seed % 3), seed)
    # cos(x1): rounding-level values at x1 = pi/2, 3 pi/2 on every grid
    yield "cosine", cosine_2d()
    coeffs = trig_coeffs(2, 2)
    for label, value in (("zero", 0.0), ("nan", np.nan)):
        yield label, Realization2D(coeffs=coeffs, g=np.full((3, 3, 4), value),
                                   seed=0)


def _tolerances(r):
    return (default_zero_tol(r.coeffs), 0.0)


def test_validate_2d_matches_oracle():
    for k, (seed, r) in enumerate(_realizations()):
        M, D = SIZES[k % len(SIZES)]
        for zero_tol in _tolerances(r):
            for collect_all in (False, True):
                got = validate_2d(r, M, D, zero_tol, collect_all)
                want = oracles.validate_2d(r, M, D, zero_tol, collect_all,
                                           COLL)
                assert got == want, (seed, M, D, zero_tol, collect_all)


def test_pruned_matches_dense():
    for k, (seed, r) in enumerate(_realizations()):
        M, D = PRUNED_SIZES[k % len(PRUNED_SIZES)]
        for zero_tol in _tolerances(r):
            for collect_all in (False, True):
                got = validate_2d(r, M, D, zero_tol, collect_all)
                want = oracles.validate_2d_dense(r, M, D, zero_tol,
                                                 collect_all, COLL)
                assert got == want, (seed, M, D, zero_tol, collect_all)


@pytest.mark.parametrize("seed", range(3))
def test_pruned_matches_dense_at_benchmark_size(seed):
    """M = 32, D = 6: the criterion-6 size, 4097^2 fine points."""
    r = draw_realization(trig_coeffs(2, 3), 1000 + seed)
    zero_tol = default_zero_tol(r.coeffs)
    for collect_all in (False, True):
        got = validate_2d(r, 32, 6, zero_tol, collect_all)
        want = oracles.validate_2d_dense(r, 32, 6, zero_tol, collect_all,
                                         COLL)
        assert got == want, (seed, collect_all)


@pytest.mark.parametrize("seed", range(3))
def test_violation_count_past_cap(seed):
    """N = 10, M = 8, D = 6 finds well over 200 violations with
    ``collect_all``: the outcome lists 200 and counts them all, as the
    slow oracle does."""
    r = draw_realization(trig_coeffs(2, 10), fields.derive_seed(seed, 0))
    for collect_all in (False, True):
        got = validate_2d(r, 8, 6, 0.0, collect_all)
        assert got == oracles.validate_2d(r, 8, 6, 0.0, collect_all, COLL)
        assert got.violation_count > len(got.violations) == 200, collect_all


def _cache_cases():
    """N = 3 fields on the criterion-6 resolutions, then one with L != 2 pi."""
    for seed in range(50):
        yield draw_realization(trig_coeffs(2, 3), 5000 + seed), 3 + seed % 2
    coeffs = CoeffSeq2D(L=3.7, a=trig_coeffs(2, 3).a)
    yield draw_realization(coeffs, 77), 4


def test_validate_2d_cold_and_warm_tables():
    """Outcomes do not depend on whether the lattice tables were cached."""
    for k, (r, D) in enumerate(_cache_cases()):
        zero_tol = default_zero_tol(r.coeffs)
        collect_all = k % 2 == 0
        for M in (8, 16, 32):
            fields._lattice_table.cache_clear()
            cold = validate_2d(r, M, D, zero_tol, collect_all)
            warm = validate_2d(r, M, D, zero_tol, collect_all)
            want = oracles.validate_2d_dense(r, M, D, zero_tol, collect_all,
                                             COLL)
            assert cold == warm == want, (r.seed, r.coeffs.L, M, D)


def test_first_violating_level_across_window_stacks():
    """Boundary windows are swept before interior ones.  Boundary square
    (4, 3) first violates at level 2, interior squares at level 0, so
    without collect_all only level 0 may be reported."""
    r = draw_realization(trig_coeffs(2, 2), 201)
    zero_tol = default_zero_tol(r.coeffs)
    every = validate_2d(r, 5, 2, zero_tol, collect_all=True)
    assert ((4, 3), 2) in {(sq, n) for sq, n, _ in every.violations}
    got = validate_2d(r, 5, 2, zero_tol)
    assert {n for _, n, _ in got.violations} == {0}
    assert got == oracles.validate_2d_dense(r, 5, 2, zero_tol, False, COLL)


def test_pruning_engages(window_stacks):
    """At a fine step of L/512, random fields leave most level-n0
    subsquares unevaluated, so the equivalence above is not met by
    evaluating everything."""
    for seed in range(10):
        r = draw_realization(trig_coeffs(2, 2 + seed % 3), seed)
        for M, D in ((8, 6), (16, 4)):
            window_stacks.clear()
            validate_2d(r, M, D, default_zero_tol(r.coeffs))
            evaluated = sum(len(a) for _, _, stacks in window_stacks
                            for a, _ in stacks)
            subsquares = (M << (D - 2)) ** 2  # S = 8 fine steps wide
            assert 0 < evaluated < subsquares / 2, (seed, M, D)


# The trial seeds of the benchmark's criterion-6 pool, then more draws of
# the same law.
NESTED_SEEDS = [fields.derive_seed(s, 0) for s in range(200)]


def _real(fine):
    """Which of the subsquares a fine pass leaves undecided lie on its
    lattice, not past its far row or column."""
    Q = len(fine.level) - 1
    return (fine.a < Q) & (fine.b < Q)


def test_pruning_power_on_pool():
    """The 60 trials of the criterion-6 pool (N = 3, M = 32, D = 6) leave
    exactly this many of their 60 * 512^2 level-n0 subsquares undecided."""
    coeffs = trig_coeffs(2, 3)
    zero_tol = default_zero_tol(coeffs)
    undecided = sum(np.count_nonzero(_real(adm._fine_pass(
        draw_realization(coeffs, seed), 32, 6, zero_tol)))
        for seed in NESTED_SEEDS[:60])
    assert undecided == 287_178


def _count_swept(monkeypatch) -> list:
    """``(ring, windows)`` of every window stack ``_sweep`` gets from now on."""
    swept = []
    sweep = adm._sweep

    def counting(positive, nsq, ring, *args):
        if positive.ndim == 3:
            swept.append((ring, len(positive)))
        return sweep(positive, nsq, ring, *args)

    monkeypatch.setattr(adm, "_sweep", counting)
    return swept


def _one_way(lines) -> bool:
    steps = np.diff(lines.astype(np.int8), axis=-1)
    return bool(np.all(steps >= 0) or np.all(steps <= 0))


def _is_staircase(points) -> bool:
    """Every row monotone one way, and every column one way."""
    return _one_way(points) and _one_way(points.T)


def _synthetic_pass(points, level, S):
    """A fine pass of Q x Q subsquares S steps wide with the proof
    ``level``: the undecided ones evaluate to the half-open blocks of the
    bool ``points``, (Q S + 1)^2 of them, repeated past their last row
    and column as the pass repeats its far row and column.  The pass's
    stack holds them, then an all-negative and an all-positive block."""
    level = np.pad(level, (0, 1), mode="edge")
    Q = len(level)
    a, b = np.divmod(np.flatnonzero(level == 0), Q)
    blocks = np.pad(points, (0, S - 1), mode="edge").reshape(Q, S, Q, S)
    stack = np.concatenate((blocks.transpose(0, 2, 1, 3)[a, b],
                            np.zeros((1, S, S), dtype=bool),
                            np.ones((1, S, S), dtype=bool)))
    return adm._FinePass(None, 0.0, (Q - 1) * S, S, None, level, a, b,
                         stack, None)


def _read(fine):
    """The points as the sweep reads them: the own block of an undecided
    subsquare and the sign of a proven one, each without its closing row
    and column; past the lattice, its far row and column repeated."""
    S = fine.S
    blocks = {(int(p), int(q)): own for p, q, own in zip(fine.a, fine.b,
                                                         fine.blocks)}
    return np.block([[blocks.get((p, q), np.full((S, S), sign > 0))
                      for q, sign in enumerate(row)]
                     for p, row in enumerate(fine.level)])


def _b_mosaic(padded, S, i, j):
    """The 2S x 2S points of subsquare (i, j) and the three subsquares
    after it, from ``_read``; its closed block is the first S + 1 rows
    and columns."""
    return padded[i * S:(i + 2) * S, j * S:(j + 2) * S]


def _check_windows(fine) -> int:
    """``_windows`` with one subsquare per grid square yields exactly the
    windows whose mosaic is no staircase, with the points the sweep would
    read: the 3S x 3S mosaic of an interior subsquare and its eight
    neighbours, cropped to S/2 margins, and the 2S x 2S mosaic of a
    boundary subsquare and the three after it, cropped to its closed
    block.  Returns their number."""
    S, Q, real = fine.S, len(fine.level) - 1, _real(fine)
    got = {(ring, int(i), int(j)): window
           for positive, wa, wb, ring, _ in adm._windows(fine, 1)
           for window, i, j in zip(positive, wa, wb)}
    want = {}
    padded = _read(fine)
    for i, j in zip(fine.a[real], fine.b[real]):
        if 0 < i < Q - 1 and 0 < j < Q - 1:
            mosaic = padded[(i - 1) * S:(i + 2) * S, (j - 1) * S:(j + 2) * S]
            if not _is_staircase(mosaic):
                want[0, int(i), int(j)] = mosaic[S // 2:S // 2 + 2 * S + 1,
                                                 S // 2:S // 2 + 2 * S + 1]
        else:
            mosaic = _b_mosaic(padded, S, i, j)
            if not _is_staircase(mosaic):
                want[1, int(i), int(j)] = mosaic[:S + 1, :S + 1]
    assert got.keys() == want.keys()
    for key, points in want.items():
        assert np.array_equal(got[key], points), key
    return len(want)


def _proof(points, S):
    """The sign of every subsquare whose closed block is of one sign."""
    Q = (len(points) - 1) // S
    level = np.zeros((Q, Q), dtype=np.int8)
    for i in range(Q):
        for j in range(Q):
            block = points[i * S:(i + 1) * S + 1, j * S:(j + 1) * S + 1]
            level[i, j] = 1 if block.all() else -1 if not block.any() else 0
    return level


@pytest.mark.parametrize("S", [2, 4, 8])
def test_staircase_windows_match_bruteforce(S):
    """Random neighbourhoods: thresholds of a plane through the points,
    monotone along both axes, with a few points flipped; proven
    subsquares left undecided or, now and then, given the wrong sign."""
    rng = np.random.default_rng(S)
    Q, swept = 5, 0
    y, x = np.mgrid[:Q * S + 1, :Q * S + 1]
    for _ in range(300):
        u = rng.choice([-1, 1]) * rng.random() * x + rng.choice(
            [-1, 1]) * rng.random() * y
        points = u > rng.uniform(u.min(), u.max())
        for _ in range(rng.integers(0, 3)):
            points[tuple(rng.integers(0, Q * S + 1, 2))] ^= True
        level = _proof(points, S)
        level[rng.random((Q, Q)) < 0.2] = 0
        if rng.random() < 0.2:
            level[tuple(rng.integers(0, Q, 2))] *= -1
        swept += _check_windows(_synthetic_pass(points, level, S))
    assert swept > 300


@pytest.mark.parametrize("S", [2, 4, 8])
@pytest.mark.parametrize("fault", ["falling seam", "falling seam, transposed",
                                   "proven neighbour", "flipped corner",
                                   "saddle at a seam", "saddle in a block",
                                   "turn in the closing row",
                                   "turn in the closing column"])
def test_staircase_windows_planted(S, fault):
    """Faults of the 3 x 3 neighbourhood of subsquare (2, 2), or, for the
    saddle in a block and the turns in a closing row or column, of
    boundary subsquare (0, 0), that the staircase test must not miss."""
    Q = 5
    y, x = np.mgrid[:Q * S + 1, :Q * S + 1]
    level = None
    if fault.startswith("falling seam"):
        # rows rise inside block column 3 and fall from column 1 to 2,
        # each block monotone on its own
        points = (x < 2 * S) | (x >= 3 * S + S // 2)
        if fault.endswith("transposed"):
            points = points.T
    elif fault == "proven neighbour":
        # a staircase whose left neighbour is proven with the wrong sign
        points = x >= 2 * S + S // 2
        level = _proof(points, S)
        assert level[2, 1] == -1
        level[2, 1] = 1
    elif fault == "flipped corner":
        points = x >= 4 * S
        points[2 * S, 2 * S] = True
    elif fault.startswith("turn in the closing"):
        # all negative but one point inside the closing row (column) of
        # subsquare (0, 0), which the blocks after it hold
        points = np.zeros(x.shape, dtype=bool)
        points[S, S // 2] = True
        if fault.endswith("column"):
            points = points.T
    else:
        # every row and column monotone, in opposite directions
        at = 2 * S if fault == "saddle at a seam" else S // 2
        points = (x < at) == (y < at)
    boundary = fault == "saddle in a block" or fault.startswith("turn")
    window = (1, 0, 0) if boundary else (0, 2, 2)
    level = _proof(points, S) if level is None else level
    level[window[1:]] = 0
    fine = _synthetic_pass(points, level, S)
    assert _check_windows(fine) > 0
    assert window in {(ring, int(i), int(j)) for _, wa, wb, ring, _
                      in adm._windows(fine, 1) for i, j in zip(wa, wb)}


def test_staircase_filter_on_pool(monkeypatch):
    """In the criterion-6 pool (N = 3, M = 32, D = 6) the 21 trials that
    reach the window stage test their B windows and their I windows in
    one call each, 11,648 and 87,354 windows, and sweep 3 and 96 of
    them."""
    tested = []
    staircases = adm._staircases
    monkeypatch.setattr(adm, "_staircases", lambda flags, nbrs: tested.append(
        nbrs.shape[-1]) or staircases(flags, nbrs))
    swept = _count_swept(monkeypatch)
    coeffs = trig_coeffs(2, 3)
    zero_tol = default_zero_tol(coeffs)
    for seed in NESTED_SEEDS[:60]:
        validate_2d(draw_realization(coeffs, seed), 32, 6, zero_tol)
    i_windows, b_windows = (sum(n for ring, n in swept if ring == b)
                            for b in (0, 1))
    assert (len(tested), sum(tested), i_windows, b_windows) == \
        (42, 11_648 + 87_354, 96, 3)


def test_staircase_test_runs_only_at_the_window_stage(monkeypatch):
    """Across the criterion-6 pool the staircase test runs twice, for the
    B and the I windows, in each trial whose M = 32 validation reaches the
    window stage, and never while a fine pass is being built."""
    events, building = [], []
    for module in (adm, experiments):
        fine_pass = module._fine_pass

        def building_pass(*args, f=fine_pass, **kwargs):
            building.append(True)
            try:
                return f(*args, **kwargs)
            finally:
                building.pop()

        monkeypatch.setattr(module, "_fine_pass", building_pass)
    windows, staircases = adm._windows, adm._staircases

    def reaching(*args):
        events.append("windows")
        yield from windows(*args)

    def testing(flags, nbrs):
        events.append("building" if building else "staircases")
        return staircases(flags, nbrs)

    monkeypatch.setattr(adm, "_windows", reaching)
    monkeypatch.setattr(adm, "_staircases", testing)
    per_trial = []
    for seed in range(60):
        events.clear()
        experiments.homology_experiment(2, 3, (8, 16, 32), trials=1,
                                        seed=seed)
        per_trial.append(tuple(events))
    assert set(per_trial) == {(), ("windows", "staircases", "staircases")}
    assert per_trial.count(()) == 39


def test_staircase_pruning_matches_dense_on_pool():
    """The 60 trials of the criterion-6 pool at M = 32, D = 6."""
    coeffs = trig_coeffs(2, 3)
    zero_tol = default_zero_tol(coeffs)
    for seed in NESTED_SEEDS[:60]:
        r = draw_realization(coeffs, seed)
        for collect_all in (False, True):
            want = oracles.validate_2d_dense(r, 32, 6, zero_tol, collect_all,
                                             COLL)
            assert validate_2d(r, 32, 6, zero_tol, collect_all) == want, \
                (seed, collect_all)


def _random_sizes(rng):
    """N in 2..6, M in 3..40 and D in 0..6, with at most 2048 fine steps."""
    N, M = int(rng.integers(2, 7)), int(rng.integers(3, 41))
    D = int(rng.integers(0, min(6, (2048 // M).bit_length() - 2) + 1))
    return N, M, D


def test_staircase_pruning_matches_dense():
    """At least 200 random fields over S = 2, 4 and 8, both tolerances,
    with and without ``collect_all``, every nested M read from one pass."""
    rng = np.random.default_rng(19)
    depths = set()
    for k in range(200):
        N, M_max, D = _random_sizes(rng)
        depths.add(D)
        r = draw_realization(trig_coeffs(2, N), derive_seed(19, k))
        for zero_tol in _tolerances(r):
            got = _read_from_pass(r, M_max, D, zero_tol)
            for (M, collect_all), out in got.items():
                want = oracles.validate_2d_dense(r, M, D, zero_tol,
                                                 collect_all, COLL)
                assert out == want, (k, N, M_max, M, D, zero_tol, collect_all)
    assert depths == set(range(7))


def _read_from_pass(r, M_max, D, zero_tol, coll=COLL):
    """``{(M, collect_all): outcome}`` at every M = M_max / 2^p >= 3, all
    read from one fine pass at M_max, each checked against a standalone
    call."""
    fine = adm._fine_pass(r, M_max, D, zero_tol)
    got = {}
    M = M_max
    while M >= 3:
        for collect_all in (False, True):
            out = validate_2d(r, M, D, zero_tol, collect_all, coll, fine=fine)
            assert out == validate_2d(r, M, D, zero_tol, collect_all, coll), \
                (r.seed, M_max, M, D, zero_tol, collect_all)
            got[M, collect_all] = out
        M //= 2
    return got


def test_fine_pass_matches_standalone_on_pool():
    """The criterion-6 size, D = 6, from passes at M = 32 and M = 16."""
    certified = 0
    for k, seed in enumerate(NESTED_SEEDS):
        r = draw_realization(trig_coeffs(2, 3), seed)
        got = _read_from_pass(r, 32 >> k % 2, 6, default_zero_tol(r.coeffs))
        certified += sum(out.certified for out in got.values())
    assert certified > 40


def test_fine_pass_matches_dense():
    """D = 3, so that the dense sweep stays small; both tolerances.  Some
    coarser lattices certify, so they build their own pass after the
    coarse sweep without ``collect_all`` too."""
    nested_certified = 0
    for k, seed in enumerate(NESTED_SEEDS):
        r = draw_realization(trig_coeffs(2, 2 + k % 3), seed)
        M_max = 32 >> k % 2
        for zero_tol in _tolerances(r):
            got = _read_from_pass(r, M_max, 3, zero_tol)
            for (M, collect_all), out in got.items():
                want = oracles.validate_2d_dense(r, M, 3, zero_tol,
                                                 collect_all, COLL)
                assert out == want, (seed, M, zero_tol, collect_all)
                nested_certified += M < M_max and out.certified
    assert nested_certified > 10


@pytest.mark.parametrize("M_max", [16, 32, 64])
def test_fine_pass_planted_zeros(M_max):
    """cos(x1) flags the rows x1 = pi/2, 3 pi/2 of every lattice at the
    experiment's tolerance; every coarser lattice counts its own points
    of them."""
    r = cosine_2d()
    zero_tol = default_zero_tol(r.coeffs)
    got = _read_from_pass(r, M_max, 4, zero_tol)
    for (M, _), out in got.items():
        assert out.status == "Degenerate"
        assert out.zero_flag_count == 2 * (M * 32 + 1), M
    assert _read_from_pass(r, M_max, 4, 0.0)[4, True].status != "Degenerate"


def _sine_2d(axis):
    """u = sin(x1) (axis 0) or sin(x2) (axis 1) on [0, 2 pi]^2, which
    vanishes on the first, middle and last row (column) of every lattice
    with an even number of steps, the far one included."""
    a = np.zeros((4, 4))
    a[1, 0] = a[0, 1] = a[1, 1] = a[2, 3] = 1.0  # nondegenerate support
    g = np.zeros((4, 4, 4))
    if axis == 0:
        g[1, 0, 2] = 1.0  # sin(x1) * cos(0)
    else:
        g[0, 1, 1] = 1.0  # cos(0) * sin(x2)
    return Realization2D(coeffs=CoeffSeq2D(L=2 * np.pi, a=a), g=g, seed=0)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("M_max", [16, 32, 64])
def test_fine_pass_far_edge_zeros(M_max, axis):
    """Zeros planted on the far row (column) of the lattice, which no
    half-open block holds: the pass counts them, on every nested lattice,
    as a dense classification of the fine lattice does."""
    r, D = _sine_2d(axis), 4
    zero_tol = default_zero_tol(r.coeffs)
    G = M_max << (D + 1)
    xs = np.arange(G + 1) * (r.coeffs.L / G)
    flagged = np.concatenate([
        oracles.sign_array(oracles.evaluate_grid_2d(r, xs[k:k + 256], xs),
                           zero_tol)[0] == 0 for k in range(0, G + 1, 256)])
    assert flagged[-1].all() if axis == 0 else flagged[:, -1].all()
    fine = adm._fine_pass(r, M_max, D, zero_tol)
    assert list(fine.zeros) == [np.count_nonzero(flagged[::c, ::c])
                                for c in 1 << np.arange(len(fine.zeros))]
    for (M, _), out in _read_from_pass(r, M_max, D, zero_tol).items():
        c = M_max // M
        assert out.status == "Degenerate"
        assert out.zero_flag_count == np.count_nonzero(flagged[::c, ::c]), M


def test_fine_pass_evaluates_each_point_once(window_stacks):
    """On the criterion-6 pool (N = 3, M = 32, D = 6) the passes evaluate
    no fine point of the lattice twice: 64 points per undecided
    subsquare, its half-open block, and the lattice's far row and column
    where the subsquares before them are undecided.  Those are evaluated
    on the blocks past the lattice, which repeat them."""
    coeffs = trig_coeffs(2, 3)
    zero_tol = default_zero_tol(coeffs)
    total = repeats = far = undecided = 0
    for seed in NESTED_SEEDS[:60]:
        window_stacks.clear()
        fine = adm._fine_pass(draw_realization(coeffs, seed), 32, 6, zero_tol)
        [(G, S, stacks)] = window_stacks
        a, b = (np.concatenate(t) for t in zip(*stacks))
        x = (a[:, None] * S + np.arange(S))[:, :, None]
        y = (b[:, None] * S + np.arange(S))[:, None, :]
        real = (x <= G) & (y <= G)
        points = (x * (1 << 13) + y)[real]
        assert len(np.unique(points)) == len(points), seed
        total += len(points)
        repeats += real.size - len(points)
        far += np.count_nonzero((a == G // S) | (b == G // S))
        undecided += np.count_nonzero(_real(fine))
    # the closed blocks evaluated before held 287,178 * 81 = 23,261,418
    # points; 1,047 blocks lie past the far row or column, 2 of them past
    # both, and their repeats add 0.3% products
    assert undecided == 287_178
    assert total == 287_178 * 64 + 8_362
    assert (far, repeats) == (1_047, 58_646)


def test_windows_read_the_pass_block_stack(monkeypatch):
    """A fine pass keeps one stack of S x S blocks: the evaluated ones,
    then an all-negative and an all-positive block.  The window stage
    takes its block flags and its mosaics from that stack itself, with
    no copy."""
    r = draw_realization(trig_coeffs(2, 3), NESTED_SEEDS[0])
    fine = adm._fine_pass(r, 32, 6, default_zero_tol(r.coeffs))
    n, S = len(fine.a), fine.S
    assert fine.blocks.shape == (n + 2, S, S) and n > 0
    assert not fine.blocks[n].any() and fine.blocks[n + 1].all()
    read = []
    for name in ("_block_flags", "_mosaics"):
        monkeypatch.setattr(adm, name, lambda blocks, *args, fn=getattr(
            adm, name): read.append(blocks) or fn(blocks, *args))
    assert list(adm._windows(fine, 16))
    assert read[0] is fine.blocks and len(read) > 1
    assert all(np.shares_memory(blocks, fine.blocks) for blocks in read)


@pytest.mark.parametrize("D", [0, 1])
def test_narrow_blocks_are_packed_unpadded(monkeypatch, D):
    """At D <= 1 the blocks are S = 2 or 4 points wide, and the window
    stage packs their S-wide rows directly: a validation pads no array
    and still gives the dense sweep's outcome.  The first call fills the
    lattice table cache, whose table is padded once per lattice."""
    r = draw_realization(trig_coeffs(2, 3), 1)
    validate_2d(r, 16, D, 1e-12)
    pads, flagged = [], []
    monkeypatch.setattr(np, "pad", lambda *args, fn=np.pad, **kwargs: (
        pads.append(args[0].shape) or fn(*args, **kwargs)))
    monkeypatch.setattr(adm, "_block_flags", lambda blocks, fn=adm._block_flags: (
        flagged.append(blocks.shape) or fn(blocks)))
    for collect_all in (False, True):
        out = validate_2d(r, 16, D, 1e-12, collect_all)
        assert out == oracles.validate_2d_dense(r, 16, D, 1e-12, collect_all,
                                                COLL)
    assert flagged and flagged[0][1:] == (2 << D, 2 << D)
    assert pads == []


def test_closed_b_blocks_match_closed_classifier():
    """Every subsquare is a B window when a grid square holds all of
    them.  Its closed block, read from the half-open blocks after it, is
    the (S + 1)^2 block evaluated whole, bit for bit; those whose 2S x 2S
    mosaic is a staircase are skipped.  The blocks past the lattice
    repeat the last row or column of the closed blocks before them."""
    rng = np.random.default_rng(20)
    seen, far = set(), 0
    for k in range(200):
        D = int(rng.integers(0, 4))
        N, M = int(rng.integers(2, 6)), int(rng.integers(3, 13))
        r = draw_realization(trig_coeffs(2, N), derive_seed(20, k))
        for zero_tol in _tolerances(r):
            fine = adm._fine_pass(r, M, D, zero_tol)
            S, Q, real = fine.S, len(fine.level) - 1, _real(fine)
            seen.add(S)
            want = oracles.closed_blocks(fine)
            own = fine.blocks[:-2]
            assert np.array_equal(own[real], want[:, :S, :S]), \
                (k, zero_tol)
            closed = {(int(i), int(j)): block
                      for i, j, block in zip(fine.a[real], fine.b[real], want)}
            for i, j, block in zip(fine.a[~real], fine.b[~real],
                                   own[~real]):
                # the far row or column, the last of a closed block, repeated
                p, q = min(i, Q - 1), min(j, Q - 1)
                near = np.pad(closed[p, q], (0, S - 1), mode="edge")
                assert np.array_equal(block,
                                      near[(i - p) * S:(i - p + 1) * S,
                                           (j - q) * S:(j - q + 1) * S])
            got = {(int(i), int(j)): window
                   for positive, wa, wb, ring, _ in adm._windows(fine, Q)
                   for window, i, j in zip(positive, wa, wb) if ring == 1}
            padded = _read(fine)
            kept = {key: block for key, block in closed.items()
                    if not _is_staircase(_b_mosaic(padded, S, *key))}
            assert got.keys() == kept.keys(), (k, zero_tol)
            for key, block in kept.items():
                assert np.array_equal(got[key], block), (k, zero_tol, key)
                far += Q - 1 in key
    assert seen == {2, 4, 8} and far > 1000


def _count_builds(monkeypatch) -> list:
    """The M of every ``_fine_pass`` built from now on, in order."""
    built = []
    for module in (adm, experiments):
        fine_pass = module._fine_pass
        monkeypatch.setattr(module, "_fine_pass", lambda r, M, *args,
                            f=fine_pass: built.append(M) or f(r, M, *args))
    return built


@pytest.mark.parametrize("M_list, builds", [((8, 12, 16), [16, 12]),
                                            ((8, 12, 24), [24, 8])])
def test_fine_pass_falls_back_off_the_nest(monkeypatch, M_list, builds):
    """A lattice whose step count divides the pass's by 4/3 or by 3 does
    not nest in it bit for bit, so its M builds its own pass; the trial's
    outcomes are the standalone ones."""
    built, outcomes = _count_builds(monkeypatch), []

    def validate(r, M, *args, **kwargs):
        out = validate_2d(r, M, *args, **kwargs)
        outcomes.append((r, M, out))
        return out

    monkeypatch.setattr(experiments, "validate_2d", validate)
    experiments.homology_experiment(2, 3, M_list, trials=3)
    assert built == builds * 3
    assert [M for _, M, _ in outcomes] == list(M_list) * 3
    for r, M, out in outcomes:
        assert out == validate_2d(r, M, 6, default_zero_tol(r.coeffs)), M


def test_fine_pass_leaves_a_nested_m_open(monkeypatch):
    """Trial 75 of the criterion-6 suite (seed 103) passes the coarse
    sweep of M = 16 read from its M = 32 pass, so ``validate_2d``
    validates M = 16 wholly on a pass of its own, built once, and
    certifies as a standalone call.  With ``collect_all`` every nested M
    without zero flags is left open."""
    r = draw_realization(trig_coeffs(2, 3), fields.derive_seed(103, 75))
    zero_tol = default_zero_tol(r.coeffs)
    fine = adm._fine_pass(r, 32, 6, zero_tol)
    for collect_all in (False, True):
        built = _count_builds(monkeypatch)
        out = validate_2d(r, 16, 6, zero_tol, collect_all, fine=fine)
        assert out.certified and built == [16]
        assert out == validate_2d(r, 16, 6, zero_tol, collect_all)
    built = _count_builds(monkeypatch)
    out = validate_2d(r, 8, 6, zero_tol, True, fine=fine)
    assert out.violation_count and built == [8]
    assert out == validate_2d(r, 8, 6, zero_tol, True)


def test_fine_pass_classifies_each_coarse_point_once():
    """The pass's coarse grid is read from its proof and its blocks: the
    proven sign where a subsquare is proven, the first point of its
    block where it is not.  On the 60 fields of the criterion-6 pool and
    200 more of other laws, sizes and tolerances, it equals a
    classification of the coarse lattice itself, bit for bit."""
    cases = [(draw_realization(trig_coeffs(2, 3), seed), 32, 6, 0)
             for seed in NESTED_SEEDS[:60]]
    cases += [(draw_realization(trig_coeffs(2, 2 + k % 3), k),
               (8, 12, 16, 24)[k % 4], (6, 3, 2, 1, 0)[k % 5], k % 2)
              for k in range(200)]
    undecided = 0
    for r, M, D, tol in cases:
        zero_tol = _tolerances(r)[tol]
        fine = adm._fine_pass(r, M, D, zero_tol)
        level, n = fine.level, len(fine.a)
        assert np.array_equal(fine.coarse[level != 0], level[level != 0] > 0)
        assert np.array_equal(fine.coarse[fine.a, fine.b],
                              fine.blocks[:n, 0, 0])
        A, _ = fields._lattice_table(r.coeffs.L, r.coeffs.K, fine.G // fine.S)
        positive, _ = fields._classify_grid(r, A, A, zero_tol)
        assert np.array_equal(fine.coarse, positive), (r.seed, M, D)
        undecided += n
    assert undecided > 300_000


def test_fine_pass_built_once_per_pool_trial(monkeypatch):
    """On the benchmark's 2D pool the zero count and the coarse sweep
    decide every nested M, so a trial builds only the pass at M = 32."""
    built = _count_builds(monkeypatch)
    for seed in range(60):
        experiments.homology_experiment(2, 3, (8, 16, 32), trials=1,
                                        seed=seed)
    assert built == [32] * 60


def test_fine_pass_of_another_field_raises():
    r, other = (draw_realization(trig_coeffs(2, 3), s) for s in (1, 2))
    zero_tol = default_zero_tol(r.coeffs)
    fine = adm._fine_pass(r, 16, 4, zero_tol)
    for args in ((other, 16, 4, zero_tol), (r, 8, 4, 0.0)):
        with pytest.raises(ValueError, match="another realization"):
            validate_2d(*args, fine=fine)


def test_fine_pass_serves_every_collection():
    """The fine pass does not depend on the pattern library.  One pass
    at M = 16 serves the shipped collection and one without the I4
    pattern full-slant-1, which keeps the rules of ``PatternCollection``;
    at every nested M each gets the dense sweep's outcome with its own
    library, and the two outcomes differ."""
    fewer = PatternCollection(
        B=COLL.B, I4=PatternLibrary("I4", COLL.I4.base_patterns[1:]),
        I5=COLL.I5)
    assert COLL.I4.base_patterns[0].id == "full-slant-1"
    differ = 0
    for seed in NESTED_SEEDS[:20]:
        r = draw_realization(trig_coeffs(2, 3), seed)
        zero_tol = default_zero_tol(r.coeffs)
        fine = adm._fine_pass(r, 16, 4, zero_tol)
        for M in (16, 8, 4):
            for collect_all in (False, True):
                got = [validate_2d(r, M, 4, zero_tol, collect_all, coll,
                                   fine=fine) for coll in (COLL, fewer)]
                for coll, out in zip((COLL, fewer), got):
                    assert out == oracles.validate_2d_dense(
                        r, M, 4, zero_tol, collect_all, coll), (seed, M)
                differ += got[0] != got[1]
    assert differ > 20


def _count_classifications(monkeypatch) -> list:
    """The row count of every grid ``_classify_grid`` classifies from now on."""
    classified = []
    for module in (fields, cubical):
        classify = module._classify_grid
        monkeypatch.setattr(module, "_classify_grid", lambda r, A1, *args,
                            f=classify: classified.append(len(A1) - 1)
                            or f(r, A1, *args))
    return classified


def _same_grid(a, b) -> bool:
    return (a.dim, a.M) == (b.dim, b.M) and np.array_equal(a.signs, b.signs)


def test_sign_grids_read_from_pass():
    """The criterion-6 pass at M = 32, D = 6 nests the sign grids of every
    M and both reference grids; read from it, they are the classified
    ones bit for bit."""
    coeffs = trig_coeffs(2, 3)
    zero_tol = default_zero_tol(coeffs)
    for seed in NESTED_SEEDS:
        r = draw_realization(coeffs, seed)
        fine = adm._fine_pass(r, 32, 6, zero_tol)
        for M in (8, 16, 32, 256, 512):
            assert _same_grid(sign_grid(r, M, zero_tol, fine=fine),
                              sign_grid(r, M, zero_tol)), (seed, M)
        assert (reference_betti(r, 256, zero_tol, fine=fine)
                == reference_betti(r, 256, zero_tol)), seed


@pytest.mark.parametrize("case", ["planted zeros", "M_list 8, 12, 24",
                                  "M_ref = 16 N", "D = 4"])
def test_sign_grids_fall_back_to_classifying(monkeypatch, case):
    """Grids with zero flags, or off the pass's coarse grid, are classified
    as without a pass; the grids and the reference pair stay the same."""
    r, M_list, D, want = {
        # the rows x1 = pi/2, 3 pi/2 are flagged on every lattice
        "planted zeros": (cosine_2d(), (8, 16, 32), 6,
                          [8, 16, 32, 256, 512]),
        # a pass at 3072 fine steps nests 12, 24, 192 and 384, not 8
        "M_list 8, 12, 24": (draw_realization(trig_coeffs(2, 3), 4),
                             (8, 12, 24), 6, [8]),
        # M_ref = 16 N = 80 does not divide the 1024 steps of M = 8
        "M_ref = 16 N": (draw_realization(trig_coeffs(2, 5), 5),
                         (4, 8), 6, [80, 160]),
        # the coarse grid of M = 32 at D = 4 has 128 steps
        "D = 4": (draw_realization(trig_coeffs(2, 3), 6), (8, 16, 32), 4,
                  [256, 512]),
    }[case]
    zero_tol = default_zero_tol(r.coeffs)
    fine = adm._fine_pass(r, M_list[-1], D, zero_tol)
    M_ref = default_reference_M(M_list[-1], r.coeffs.K)
    assert (reference_betti(r, M_ref, zero_tol, fine=fine)
            == reference_betti(r, M_ref, zero_tol))
    grids = M_list + (M_ref, 2 * M_ref)
    classified = _count_classifications(monkeypatch)
    got = [sign_grid(r, M, zero_tol, fine=fine) for M in grids]
    assert classified == want
    for M, grid in zip(grids, got):
        assert _same_grid(grid, sign_grid(r, M, zero_tol)), M


def test_pool_trial_classifies_no_grid(monkeypatch):
    """On the benchmark's 2D pool every grid of a trial is read from its one
    fine pass."""
    classified = _count_classifications(monkeypatch)
    for seed in range(60):
        experiments.homology_experiment(2, 3, (8, 16, 32), trials=1,
                                        seed=seed)
    assert classified == []


def test_sign_grid_pass_of_another_field_raises():
    r, other = (draw_realization(trig_coeffs(2, 3), s) for s in (1, 2))
    zero_tol = default_zero_tol(r.coeffs)
    fine = adm._fine_pass(r, 16, 4, zero_tol)
    r1 = draw_realization(trig_coeffs(1, 3), 1)
    for call in (lambda: sign_grid(other, 8, zero_tol, fine=fine),
                 lambda: sign_grid(r, 8, 0.0, fine=fine),
                 lambda: sign_grid(r1, 8, zero_tol, fine=fine),
                 lambda: reference_betti(other, 128, zero_tol, fine=fine)):
        with pytest.raises(ValueError, match="another realization"):
            call()


def test_square_checks_match_oracle():
    for k, (seed, r) in enumerate(_realizations()):
        rng = np.random.default_rng(k)
        L = r.coeffs.L
        delta = rng.uniform(0.2, 1.5)
        corner = tuple(rng.uniform(delta / 2, L - 1.5 * delta, size=2))
        D = int(rng.integers(0, 5))
        for zero_tol in _tolerances(r):
            for collect_all in (False, True):
                got = b_admissible(r, (corner, delta), D, zero_tol,
                                   collect_all)
                want = oracles.square_outcome(r, (corner, delta), D, COLL.B,
                                              zero_tol, False, collect_all)
                assert got == want, ("B", seed, D, zero_tol, collect_all)
                got = i_admissible(r, (corner, delta), D, zero_tol,
                                   collect_all)
                want = oracles.square_outcome(r, (corner, delta), D, COLL.I,
                                              zero_tol, True, collect_all)
                assert got == want, ("I", seed, D, zero_tol, collect_all)


def test_planted_zeros_reach_the_outcome():
    """The cosine field above is Degenerate at the experiment tolerance."""
    r = cosine_2d()
    out = validate_2d(r, 8, 4, default_zero_tol(r.coeffs))
    assert out.status == "Degenerate"
    assert out.zero_flag_count == 2 * (8 * 32 + 1)  # rows x1 = pi/2, 3 pi/2


def test_sign_grid_matches_oracle():
    for seed, r in _realizations():
        for M in (5, 16, 33):
            xs = np.arange(M + 1) * (r.coeffs.L / M)
            values = oracles.evaluate_grid_2d(r, xs, xs)
            for zero_tol in _tolerances(r):
                want, _ = oracles.sign_array(values, zero_tol)
                got = sign_grid(r, M, zero_tol).signs
                assert np.array_equal(got, want), (seed, M, zero_tol)


@pytest.mark.parametrize("seed", range(5))
def test_evaluators_match_oracle(seed):
    r = draw_realization(trig_coeffs(2, 4), seed)
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(0, r.coeffs.L, size=(2, 37))
    scale = np.abs(r.coeffs.a[:, :, None] * r.g).sum()
    assert np.allclose(evaluate_grid_2d(r, xs, ys),
                       oracles.evaluate_grid_2d(r, xs, ys),
                       rtol=0, atol=1e-14 * scale)
    pts = np.stack([xs, ys], axis=-1)
    assert np.allclose(r(pts), oracles.eval_2d_einsum(r, xs, ys),
                       rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("seed", range(20))
def test_connected_components_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((int(rng.integers(1, 40)), int(rng.integers(1, 40))))
    mask = mask < rng.uniform(0.2, 0.7)
    assert connected_components(mask) == oracles.connected_components_runs(mask)


def _label_pair(grid):
    return tuple(BettiVector(*oracles.betti_label(cubical_approx(grid, s)))
                 for s in (+1, -1))


def _check_betti(r, sizes, M_ref, zero_tol):
    """betti_pair at each size, and reference_betti at M_ref, against labelling."""
    grids = {M: sign_grid(r, M, zero_tol) for M in sizes}
    labelled = {M: _label_pair(grid) for M, grid in grids.items()}
    for M, grid in grids.items():
        got = betti_pair(grid)
        assert got == labelled[M], (M, zero_tol)
        assert all(type(v) is int for b in got for v in (b.b0, b.b1))
    resolved = (not (grids[M_ref].zero_count or grids[2 * M_ref].zero_count)
                and labelled[M_ref] == labelled[2 * M_ref])
    want = labelled[M_ref] if resolved else None
    assert reference_betti(r, M_ref, zero_tol) == want, zero_tol
    return resolved


def test_betti_matches_labelling_2d():
    """The working sizes of the 2D suite and its reference grids."""
    resolved = 0
    for seed, r in _realizations():
        for zero_tol in _tolerances(r):
            resolved += _check_betti(r, (8, 16, 32, 256, 512), 256, zero_tol)
    assert resolved > 300


def test_betti_matches_labelling_planted_zeros():
    """Random zero flags, which put a cell in both cubical sets."""
    rng = np.random.default_rng(0)
    for seed in SEEDS:
        M = (8, 16, 32, 256)[seed % 4]
        signs = sign_grid(draw_realization(trig_coeffs(2, 3), seed), M).signs.copy()
        signs[rng.random(signs.shape) < rng.uniform(0.001, 0.2)] = 0
        grid = SignGrid(dim=2, M=M, signs=signs)
        assert betti_pair(grid) == _label_pair(grid), seed


def _realizations_1d():
    """Degree 2..12 random fields by seed, plus fields with planted zero flags."""
    for seed in SEEDS:
        yield seed, draw_realization(trig_coeffs(1, 2 + seed % 11), seed)
    coeffs = trig_coeffs(1, 3)
    for label, value in (("zero", 0.0), ("nan", np.nan)):
        yield label, Realization1D(coeffs=coeffs, g=np.full(7, value), seed=0)


def test_betti_matches_labelling_1d():
    """The working sizes of the 1D suite and its reference grids."""
    resolved = 0
    for seed, r in _realizations_1d():
        for zero_tol in _tolerances(r):
            resolved += _check_betti(r, (50, 75, 105, 840, 1680), 840, zero_tol)
    assert resolved > 300


def test_validate_1d_matches_oracle():
    """M runs from 1 to past 2K, so the fine grids of few points use the
    zero-padded transform; every depth 0..6 is checked."""
    padded = 0
    for k, (seed, r) in enumerate(_realizations_1d()):
        K = r.coeffs.K
        M = 1 + k % (2 * K + 3)
        for D in range(7):
            padded += M << (D + 1) <= 2 * K
            for zero_tol in _tolerances(r):
                got = validate_1d(r, M, D, zero_tol)
                want = oracles.validate_1d(r, M, D, zero_tol)
                assert got == want, (seed, M, D, zero_tol)
    assert padded > 50


def test_double_crossovers_match_oracle_with_exact_zeros():
    """Fine samples of -1, 0 and +1, so that both sides of the >= 0 and
    <= 0 tests matter; random fields never sample exact zeros."""
    rng = np.random.default_rng(0)
    for D in range(5):
        for _ in range(20):
            v = rng.integers(-1, 2, (3 << (D + 1)) + 1).astype(float)
            want = [(int(k), n) for n in range(D + 1) for k in
                    np.flatnonzero(oracles.crossover_mask(v, 1 << (D - n)))]
            assert adm._double_crossovers(v, D) == want, (D, v)


def _crossovers_oracle(v, D):
    """Every level's full strided pass, listed by level, then by k."""
    return [(int(k), n) for n in range(D + 1) for k in
            np.flatnonzero(oracles.crossover_mask(v, 1 << (D - n)))]


# samples on which >= 0, <= 0 and signbit disagree: both zeros, both NaNs
_SPECIAL = np.array([-1.0, -0.0, 0.0, 1.0, np.nan, -np.nan])


def _adversarial(rng, M, D):
    """M 2^(D+1) + 1 samples from _SPECIAL, dense or with sparse sign changes."""
    size = (M << (D + 1)) + 1
    kind = rng.integers(3)
    if kind == 0:
        return rng.choice(_SPECIAL, size)
    if kind == 1:
        v = np.full(size, rng.choice([-1.0, 1.0]))
    else:
        # sign runs a few fine steps to a few grid intervals long
        runs = rng.geometric(1.0 / rng.integers(2, 4 << D), size)
        v = np.repeat(np.resize([-1.0, 1.0], size), runs)[:size].copy()
    spots = rng.integers(0, size, rng.integers(0, 5))
    v[spots] = rng.choice(_SPECIAL, spots.size)
    return v


def test_double_crossovers_match_oracle_adversarial():
    """Hot intervals against every interval swept, order included."""
    rng = np.random.default_rng(1)
    rounds, hits = 100, 0
    for _ in range(rounds):
        for D in range(8):
            for M in range(1, 12):
                v = _adversarial(rng, M, D)
                want = _crossovers_oracle(v, D)
                assert adm._double_crossovers(v, D) == want, (M, D, v)
                hits += bool(want)
    assert rounds * 8 * 11 // 4 < hits < rounds * 8 * 11


@pytest.mark.parametrize("v, D, want", [
    # a crossover without a signbit flip
    ([1.0, 0.0, 1.0], 0, [(0, 0)]),
    ([-1.0, -0.0, -1.0], 0, [(0, 0)]),
    # one signbit flip and a zero at the first or the last sample
    ([0.0, 1.0, -1.0], 0, [(0, 0)]),
    ([-1.0, 1.0, 0.0], 0, [(0, 0)]),
    ([0.0, 0.5, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0], 1, [(0, 0)]),
    ([1.0] * 8 + [-1.0, -1.0, 1.0, 1.0, 0.0], 1, [(2, 0)]),
    # a zero at an end shared by grid intervals 0 and 1; the crossover
    # lies in the interval right or left of it
    ([1.0, 1.0, 0.0, 1.0, -1.0], 0, [(1, 0)]),
    ([-1.0, 1.0, 0.0, 1.0, 1.0], 0, [(0, 0)]),
    # NaN is neither >= 0 nor <= 0, and hides nothing
    ([1.0, np.nan, 1.0], 0, []),
    ([1.0, np.nan, -1.0, -np.nan, 1.0], 1, [(0, 0)]),
])
def test_double_crossovers_planted(v, D, want):
    v = np.array(v)
    assert _crossovers_oracle(v, D) == want
    assert adm._double_crossovers(v, D) == want


def test_validate_1d_matches_oracle_at_experiment_sizes(monkeypatch):
    """Random fields at the 1D suite's sizes (N = 10; M = 50, 75, 105;
    D = 6) and at other degrees, both tolerances.  The oracle reads the
    grid that ``validate_1d`` reads, so only the sweeps are compared."""
    monkeypatch.setattr(oracles, "evaluate_grid_1d", adm.evaluate_grid_1d)
    not_certified = 0
    cases = [(10, (50, 75, 105))] * 2000 + [(2, (8, 40)), (5, (18, 40)),
                                             (50, (400, 800))] * 100
    for seed, (N, Ms) in enumerate(cases):
        r = draw_realization(trig_coeffs(1, N), derive_seed(7, seed))
        for M in Ms:
            for zero_tol in _tolerances(r):
                got = validate_1d(r, M, 6, zero_tol)
                assert got == oracles.validate_1d(r, M, 6, zero_tol), \
                    (N, seed, M, zero_tol)
            not_certified += not got.certified
    assert not_certified > 300


def test_validate_1d_matches_oracle_on_pool():
    """The 50 trials of the 1D benchmark pool, seeds derive_seed(s, 0)."""
    coeffs = trig_coeffs(1, 10)
    zero_tol = default_zero_tol(coeffs)
    for s in range(50):
        r = draw_realization(coeffs, derive_seed(s, 0))
        for M in (50, 75, 105):
            assert (validate_1d(r, M, 6, zero_tol)
                    == oracles.validate_1d(r, M, 6, zero_tol)), (s, M)


def test_sign_grid_1d_matches_oracle():
    for seed, r in _realizations_1d():
        K = r.coeffs.K
        for M in (1, 2, K, 2 * K, 2 * K + 1, 97, 256):
            values = oracles.evaluate_grid_1d(r, M)
            for zero_tol in _tolerances(r):
                want, _ = oracles.sign_array(values, zero_tol)
                got = sign_grid(r, M, zero_tol).signs
                assert np.array_equal(got, want), (seed, M, zero_tol)


def _zeros_close(got, want):
    """Equal counts, and each zero within 1e-12 of its counterpart: both
    lie within 5e-13 of a computed sign change in the same bracket."""
    return got.size == want.size and np.all(np.abs(got - want) <= 1e-12)


def _zero_cases():
    for N, seeds in ((2, 400), (5, 400), (10, 400), (50, 400), (120, 100),
                     (200, 100)):
        for seed in range(seeds):
            yield N, draw_realization(trig_coeffs(1, N), seed)


def test_find_zeros_matches_oracle():
    """Newton steps against the bisection they replaced, on the same
    bracketing grid (worst difference 4.9e-13 over 69k zeros when this
    was written)."""
    for N, r in _zero_cases():
        assert _zeros_close(experiments._find_zeros(r, N),
                            oracles.find_zeros_bisect(r, N)), (N, r.seed)


def test_find_zeros_jet_calls(monkeypatch):
    """``_NEWTON_STEPS`` jet calls for the steps and one evaluation of u
    alone for the check, unless a bracket is bisected; over the cases above, fewer than 0.1%
    of the brackets are."""
    calls, checks, bisected = [], [], []
    jet, bisect = experiments.jet_1d, experiments._bisect
    u = experiments._eval_1d
    monkeypatch.setattr(experiments, "jet_1d",
                        lambda r, x: calls.append(1) or jet(r, x))
    monkeypatch.setattr(experiments, "_eval_1d",
                        lambda r, x: checks.append(1) or u(r, x))
    monkeypatch.setattr(experiments, "_bisect", lambda r, lo, *args:
                        bisected.append(lo.size) or bisect(r, lo, *args))
    brackets = 0
    for N, r in _zero_cases():
        calls.clear()
        checks.clear()
        fallbacks = len(bisected)
        brackets += experiments._find_zeros(r, N).size
        if len(bisected) == fallbacks:
            assert len(calls) == experiments._NEWTON_STEPS, (N, r.seed)
            assert len(checks) == 1, (N, r.seed)
    assert sum(bisected) < 1e-3 * brackets


def _assert_sign_change_near(r, N, zeros):
    """Each zero lies in its own bracket of the 50 N grid and within 5e-13
    of a computed sign change there: u at the grid ends as
    ``evaluate_grid_1d`` gives it, elsewhere as ``evaluate`` gives it."""
    n = 50 * N
    xs = np.arange(n + 1) * (r.coeffs.L / n)
    v = evaluate_grid_1d(r, n)
    idx = np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))
    assert zeros.size == idx.size
    for j, x in zip(idx, zeros):
        assert xs[j] <= x <= xs[j + 1], (j, x)
        a, b = max(x - 5e-13, xs[j]), min(x + 5e-13, xs[j + 1])
        sa = np.signbit(v[j] if a == xs[j] else evaluate(r, a))
        sb = np.signbit(v[j + 1] if b == xs[j + 1] else evaluate(r, b))
        assert sa != sb, (j, x)


def _planted(L, g, a=(1.0, 1.0)):
    return Realization1D(coeffs=CoeffSeq1D(L=L, a=np.array(a)),
                         g=np.array(g, dtype=float), seed=0)


def _planted_zero_cases():
    """(label, field, N, exact zeros) for fields that drive the Newton
    steps out of their brackets or onto a bracket end."""
    L, d = 2.0 * np.pi, 1e-3
    for eps in (1e-2, 1e-6, 1e-12):
        # 1 - eps + cos x: a near-tangent pair about the grid point pi
        alpha = math.acos(1.0 - eps)
        yield f"tangent {eps}", _planted(L, [1.0 - eps, 0.0, 1.0]), 2, \
            [math.pi - alpha, math.pi + alpha]
    # sin(x - d) and sin(x + d): zeros in the first and last grid intervals
    yield "first", _planted(L, [0.0, math.cos(d), -math.sin(d)]), 2, \
        [d, math.pi + d]
    yield "last", _planted(L, [0.0, math.cos(d), math.sin(d)]), 2, \
        [math.pi - d, L - d]
    # sin x + sin 2x: the grid value at x = 0 = L is exactly 0, the one at
    # x = pi a rounding error
    yield "grid point", _planted(L, [0, 1, 0, 1, 0], (1.0, 1.0, 1.0)), 2, \
        [2 * math.pi / 3, math.pi, 4 * math.pi / 3, L]


def test_find_zeros_planted(monkeypatch):
    """Exact zero counts and positions where the Newton steps leave their
    brackets or end on a bracket end; the planted cases reach the
    bisection fallback too."""
    fallbacks = []
    bisect = experiments._bisect
    monkeypatch.setattr(experiments, "_bisect",
                        lambda *args: fallbacks.append(1) or bisect(*args))
    for label, r, N, exact in _planted_zero_cases():
        zeros = experiments._find_zeros(r, N)
        want = oracles.find_zeros_bisect(r, N)
        assert zeros.size == want.size == len(exact), label
        _assert_sign_change_near(r, N, zeros)
        # the rounding level of u over its slope at the zero
        du = np.abs(fields.jet_1d(r, np.array(exact))[1])
        assert np.all(np.abs(zeros - exact) <= 5e-13 + 1e-15 / du), label
    assert fallbacks


@pytest.mark.parametrize("scale", [1e9, -1.0, 0.0, np.nan])
def test_find_zeros_distrusts_the_derivative(monkeypatch, scale):
    """A wrong u' costs bisection steps, not accuracy.  Scaled by 1e9, the
    steps barely move and the last iterate fails the sign-change check;
    with the wrong sign, they run to the bracket ends; at 0, every step
    divides by zero and lands on an end, and so does every NaN step."""
    def jet(r, x):
        u, du = fields.jet_1d(r, x)
        return u, scale * du
    monkeypatch.setattr(experiments, "jet_1d", jet)
    for seed in range(20):
        r = draw_realization(trig_coeffs(1, 10), seed)
        assert _zeros_close(experiments._find_zeros(r, 10),
                            oracles.find_zeros_bisect(r, 10)), seed


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 32), L=st.floats(0.1, 100.0),
       seed=st.integers(0, 2**32 - 1))
def test_find_zeros_near_sign_changes(K, L, seed):
    r = _random_1d(K, L, seed)
    _assert_sign_change_near(r, K, experiments._find_zeros(r, K))


def _random_1d(K, L, seed):
    """A degree-K field on [0, L] with a_0 nonzero, so that the constant
    term is exercised too."""
    rng = np.random.default_rng(seed)
    return Realization1D(coeffs=CoeffSeq1D(L=L, a=rng.uniform(0.5, 2.0, K + 1)),
                         g=rng.standard_normal(2 * K + 1), seed=seed)


def _rounding_1d(r):
    """1e-12 (K + 1) sum |a_k g|: the rounding allowance for values of u."""
    a, g = r.coeffs.a, r.g
    scale = np.abs(a) @ (np.abs(g[0::2]) + np.abs(np.append(0.0, g[1::2])))
    return 1e-12 * (r.coeffs.K + 1) * scale


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 40), L=st.floats(0.1, 100.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_grid_1d_matches_pointwise(K, L, seed, data):
    """Rounding-level agreement on both sides of ``_PRODUCT_TERMS``
    (K + 1 <= 32 terms: block product, above: inverse FFT), at n = 1, at
    odd n, on every grid of up to 4K steps and on the validation lattices
    of M 2^(D+1) steps, D <= 12."""
    n = data.draw(st.one_of(
        st.just(1),
        st.integers(0, 2 * K).map(lambda h: 2 * h + 1),
        st.integers(1, 4 * K),
        st.builds(lambda M, D: M << (D + 1), st.integers(1, 5),
                  st.integers(0, 12))))
    r = _random_1d(K, L, seed)
    v = evaluate_grid_1d(r, n)
    assert v.shape == (n + 1,) and v[n] == v[0]
    assert np.abs(v - oracles.evaluate_grid_1d(r, n)).max() <= _rounding_1d(r)


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 256), L=st.floats(0.1, 100.0),
       seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(), (1,), (9,), (3, 4), (2, 1, 3)]),
       data=st.data())
def test_evaluate_1d_matches_trig_sums(K, L, seed, shape, data):
    """Pointwise values agree with the cosine and sine sums to rounding
    level anywhere in [0, L]; a scalar gives a float, an array an array of
    its shape.  ``jet_1d`` gives the same values of u, bit for bit, and
    u' to rounding level times the top frequency."""
    r = _random_1d(K, L, seed)
    unit = data.draw(st.lists(st.floats(0.0, 1.0), min_size=math.prod(shape),
                              max_size=math.prod(shape)))
    x = L * np.reshape(unit, shape)
    if not shape:
        x = float(x)
    got, want = evaluate(r, x), oracles.eval_1d_trig(r, np.asarray(x))
    if shape:
        assert isinstance(got, np.ndarray) and got.shape == shape
    else:
        assert type(got) is float
    assert np.all(np.abs(got - want) <= _rounding_1d(r))
    u, du = fields.jet_1d(r, np.ravel(x))
    assert np.array_equal(u, np.ravel(got))
    du_want = oracles.jet_1d_trig(r, np.ravel(x))[1]
    assert np.all(np.abs(du - du_want) <= _rounding_1d(r) * 2 * np.pi * K / L)


def test_product_grids_keep_fft_verdicts(monkeypatch):
    """Every ``validate_1d`` outcome, 1D sign grid and reference Betti pair
    is the same from block-product grids as from inverse-FFT grids, which
    ``_PRODUCT_TERMS = 0`` forces: 2000 seeds at the 1D suite's sizes
    (N = 10; M = 50, 75, 105; D = 6), 400 at the N = 5 suite's (M = 18,
    28, 40) and 200 each at N = 3, 20 and 31, the largest degree below
    the threshold, at the experiments' zero tolerance."""
    cases = ([(10, (50, 75, 105))] * 2000 + [(5, (18, 28, 40))] * 400
             + [(3, (12, 24)), (20, (100, 200)), (31, (155, 310))] * 200)

    def outputs():
        out = []
        for seed, (N, Ms) in enumerate(cases):
            r = draw_realization(trig_coeffs(1, N), derive_seed(8, seed))
            zero_tol = default_zero_tol(r.coeffs)
            out.append(reference_betti(
                r, default_reference_M(max(Ms), N), zero_tol))
            for M in Ms:
                out.append(validate_1d(r, M, 6, zero_tol))
                out.append(sign_grid(r, M, zero_tol).signs.tolist())
        return out

    product = outputs()
    monkeypatch.setattr(fields, "_PRODUCT_TERMS", 0)
    fft = outputs()
    assert len(product) == len(fft)
    for k, (got, want) in enumerate(zip(product, fft)):
        assert got == want, k
    assert sum(isinstance(o, adm.ValidationOutcome) and not o.certified
               for o in product) > 300


def test_find_zeros_with_trig_sums(monkeypatch):
    """The bracketing grid and every Newton and bisection step taken from
    cosine and sine sums instead of the library's grid evaluator and the
    powers of e^(ix): the same counts, and zeros within 1e-12."""
    cases = [(N, draw_realization(trig_coeffs(1, N), seed))
             for N in (2, 5, 10, 50, 120) for seed in range(400)]
    got = [experiments._find_zeros(r, N) for N, r in cases]
    monkeypatch.setattr(experiments, "evaluate_grid_1d",
                        oracles.evaluate_grid_1d)
    monkeypatch.setattr(experiments, "jet_1d", oracles.jet_1d_trig)
    monkeypatch.setattr(experiments, "_eval_1d", oracles.eval_1d_trig)
    for (N, r), zeros in zip(cases, got):
        assert _zeros_close(zeros, experiments._find_zeros(r, N)), (N, r.seed)


def test_interval_admissible_with_trig_sums(monkeypatch):
    rng = np.random.default_rng(0)
    cases = []
    for seed in SEEDS:
        r = draw_realization(trig_coeffs(1, 2 + seed % 11), seed)
        lo, hi = np.sort(rng.uniform(0.0, r.coeffs.L, 2))
        cases.append((r, (lo, hi), int(rng.integers(0, 7))))
    got = [interval_admissible(*case) for case in cases]
    monkeypatch.setattr(fields, "_eval_1d", oracles.eval_1d_trig)
    assert got == [interval_admissible(*case) for case in cases]
    assert 0 < sum(out.certified for out in got) < len(got)
