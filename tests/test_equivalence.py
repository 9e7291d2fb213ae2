"""The fast paths against the slow reference paths kept in oracles.py.

In 2D the library evaluates the field as one banded block product,
classifies signs band by band, and sweeps each dyadic level through one
stencil-code array; ``validate_2d`` further skips the subsquares that their
corner values prove sign-definite.  In 1D it evaluates every equispaced grid
with one inverse FFT, and single points from the powers of one complex
exponential, instead of cosine and sine sums, and it finds zeros by a
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
from nodalcheck import experiments, fields
from nodalcheck.admissibility import (PatternCollection, PatternLibrary,
                                      SignPattern, b_admissible,
                                      default_patterns, i_admissible,
                                      interval_admissible, validate_1d,
                                      validate_2d)
from nodalcheck.cubical import SignGrid, cubical_approx, sign_grid
from nodalcheck.experiments import default_zero_tol
from nodalcheck.fields import (CoeffSeq1D, CoeffSeq2D, Realization1D,
                               Realization2D, derive_seed, draw_realization,
                               evaluate, evaluate_grid_1d, evaluate_grid_2d,
                               trig_coeffs)
from nodalcheck.homology import (BettiVector, betti_pair,
                                 connected_components, reference_betti)

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


# With the shipped library no I-forbidden stencil has two uniform adjacent
# rows or columns, so a subsquare whose own block is sign-definite never
# violates.  This hand-built library forbids such a stencil (two rows of +,
# a sign change in the third), which makes those subsquares' half-side
# shifts matter; only the halo rule of the proof covers them.
NOTCH = PatternCollection(
    B=COLL.B,
    I4=PatternLibrary.build("I4", COLL.I4.base_patterns + (SignPattern(
        mask=(1, 1, 1, 1, 1, 1, 1, 1, -1), id="notch"),)),
    I5=COLL.I5)


def test_pruned_matches_dense_with_halo_patterns():
    for seed in range(10):
        r = draw_realization(trig_coeffs(2, 3), seed)
        zero_tol = default_zero_tol(r.coeffs)
        for collect_all in (False, True):
            got = validate_2d(r, 4, 6, zero_tol, collect_all, patterns=NOTCH)
            want = oracles.validate_2d_dense(r, 4, 6, zero_tol, collect_all,
                                             NOTCH)
            assert got == want, (seed, collect_all)


def test_proven_blocks_skip_i_windows(monkeypatch):
    """The shipped library lets the sweep skip interior subsquares proven
    on their own square; the notch library sweeps those not proven on
    their halo, a superset."""
    assert COLL.proven_blocks_admissible
    assert not NOTCH.proven_blocks_admissible
    swept = []
    windows = adm._windows

    def counting(*args):
        for stack in windows(*args):
            _, wa, _, ring, _ = stack
            swept.append(0 if ring else len(wa))
            yield stack

    monkeypatch.setattr(adm, "_windows", counting)
    r = draw_realization(trig_coeffs(2, 3), 1003)
    zero_tol = default_zero_tol(r.coeffs)
    counts = []
    for coll in (COLL, NOTCH):
        swept.clear()
        validate_2d(r, 32, 6, zero_tol, collect_all=True, patterns=coll)
        counts.append(sum(swept))
    assert 0 < counts[0] < 0.6 * counts[1], counts


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


def test_pruning_engages(monkeypatch):
    """At a fine step of L/512, random fields leave most level-n0
    subsquares unevaluated, so the equivalence above is not met by
    evaluating everything."""
    evaluated = []
    window_classifier = adm._window_classifier

    def counting(*args):
        classify = window_classifier(*args)

        def count(i, j):
            evaluated.append(len(i))
            return classify(i, j)
        return count

    monkeypatch.setattr(adm, "_window_classifier", counting)
    for seed in range(10):
        r = draw_realization(trig_coeffs(2, 2 + seed % 3), seed)
        for M, D in ((8, 6), (16, 4)):
            evaluated.clear()
            validate_2d(r, M, D, default_zero_tol(r.coeffs))
            subsquares = (M << (D - 2)) ** 2  # S = 8 fine steps wide
            assert 0 < sum(evaluated) < subsquares / 2, (seed, M, D)


# The trial seeds of the benchmark's criterion-6 pool, then more draws of
# the same law.
NESTED_SEEDS = [fields.derive_seed(s, 0) for s in range(200)]


def test_pruning_power_on_pool():
    """The 60 trials of the criterion-6 pool (N = 3, M = 32, D = 6) leave
    exactly this many of their 60 * 512^2 level-n0 subsquares undecided."""
    coeffs = trig_coeffs(2, 3)
    zero_tol = default_zero_tol(coeffs)
    undecided = sum(
        len(adm._fine_pass(draw_realization(coeffs, seed), 32, 6, zero_tol).a)
        for seed in NESTED_SEEDS[:60])
    assert undecided == 287_178


def _read_from_pass(r, M_max, D, zero_tol, coll=COLL):
    """``{(M, collect_all): outcome}`` at every M = M_max / 2^p >= 3, all
    read from one fine pass at M_max, each checked against a standalone
    call."""
    fine = adm._fine_pass(r, M_max, D, zero_tol, coll)
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


def test_fine_pass_with_halo_patterns():
    """The notch library proves subsquares on their halo."""
    for seed in NESTED_SEEDS[:20]:
        r = draw_realization(trig_coeffs(2, 3), seed)
        zero_tol = default_zero_tol(r.coeffs)
        got = _read_from_pass(r, 16, 4, zero_tol, NOTCH)
        for (M, collect_all), out in got.items():
            want = oracles.validate_2d_dense(r, M, 4, zero_tol, collect_all,
                                             NOTCH)
            assert out == want, (seed, M, collect_all)


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
    sweep of M = 16 read from its M = 32 pass, so ``validate_2d`` builds
    the M = 16 pass itself, once, and certifies as a standalone call."""
    r = draw_realization(trig_coeffs(2, 3), fields.derive_seed(103, 75))
    zero_tol = default_zero_tol(r.coeffs)
    fine = adm._fine_pass(r, 32, 6, zero_tol)
    built = _count_builds(monkeypatch)
    out = validate_2d(r, 16, 6, zero_tol, fine=fine)
    assert out.certified and built == [16]
    assert out == validate_2d(r, 16, 6, zero_tol)


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
    for args, kwargs in (((other, 16, 4, zero_tol), {}),
                         ((r, 8, 4, 0.0), {}),
                         ((r, 8, 4, zero_tol), {"patterns": NOTCH})):
        with pytest.raises(ValueError, match="another realization"):
            validate_2d(*args, **kwargs, fine=fine)


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
    return tuple(BettiVector(*oracles.betti_label(cubical_approx(grid, s).cells))
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
    same FFT grid, so only the sweeps are compared."""
    monkeypatch.setattr(oracles, "evaluate_grid_1d", evaluate_grid_1d)
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
    """``_NEWTON_STEPS`` jet calls for the steps and one for the check,
    unless a bracket is bisected; over the cases above, fewer than 0.1%
    of the brackets are."""
    calls, bisected = [], []
    jet, bisect = experiments.jet_1d, experiments._bisect
    monkeypatch.setattr(experiments, "jet_1d",
                        lambda r, x: calls.append(1) or jet(r, x))
    monkeypatch.setattr(experiments, "_bisect", lambda r, lo, *args:
                        bisected.append(lo.size) or bisect(r, lo, *args))
    brackets = 0
    for N, r in _zero_cases():
        calls.clear()
        fallbacks = len(bisected)
        brackets += experiments._find_zeros(r, N).size
        if len(bisected) == fallbacks:
            assert len(calls) == experiments._NEWTON_STEPS + 1, (N, r.seed)
    assert sum(bisected) < 1e-3 * brackets


def _assert_sign_change_near(r, N, zeros):
    """Each zero lies in its own bracket of the 50 N grid and within 5e-13
    of a computed sign change there: u at the grid ends as the FFT gives
    it, elsewhere as ``evaluate`` gives it."""
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
    # sin x + sin 2x: the FFT value at x = 0 = L is exactly 0, the one at
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
@given(K=st.integers(1, 16), L=st.floats(0.1, 100.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_grid_1d_matches_pointwise(K, L, seed, data):
    """Rounding-level agreement on every grid of up to 4K steps."""
    n = data.draw(st.integers(1, 4 * K))
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


def test_find_zeros_with_trig_sums(monkeypatch):
    """The bracketing grid and every Newton and bisection step taken from
    cosine and sine sums instead of the FFT and the powers of e^(ix):
    the same counts, and zeros within 1e-12."""
    cases = [(N, draw_realization(trig_coeffs(1, N), seed))
             for N in (2, 5, 10, 50, 120) for seed in range(400)]
    got = [experiments._find_zeros(r, N) for N, r in cases]
    monkeypatch.setattr(experiments, "evaluate_grid_1d",
                        oracles.evaluate_grid_1d)
    monkeypatch.setattr(experiments, "jet_1d", oracles.jet_1d_trig)
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
