import json
import math

import pytest

from nodalcheck import experiments, fields
from nodalcheck.experiments import (CSV_COLUMNS, ExperimentConfig,
                                    TrialRecord, default_zero_tol,
                                    homology_experiment, read_results,
                                    wilson_interval, write_results,
                                    zero_stats)
from nodalcheck.fields import spectral_moments, trig_coeffs


class TestWilson:
    def test_zero_n(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_all_success(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert 0.95 < lo < 1.0

    def test_none_success(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0.0 < hi < 0.05

    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert hi - lo == pytest.approx(2 * 1.96 * 0.05, rel=0.05)

    def test_contains_rate(self):
        for s, n in ((3, 10), (17, 20), (1, 1000)):
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi


class TestConfig:
    def test_from_json(self):
        cfg = ExperimentConfig.from_json(json.dumps({
            "kind": "Homology1D", "N": 5, "M_list": [18, 28],
            "trials": 100, "seed": 3}))
        assert cfg.M_list == (18, 28)
        assert cfg.D == 6  # default depth

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="Nope")

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ZeroStats", trials=0)

    def test_2d_m_floor(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="Homology2D", N=3, M_list=(2,), trials=1)
        ExperimentConfig(kind="Homology1D", N=3, M_list=(2,), trials=1)

    def test_empty_m_list(self):
        for kind in ("Homology1D", "Homology2D"):
            with pytest.raises(ValueError, match="needs a nonempty M_list"):
                ExperimentConfig(kind=kind, N=3, M_list=(), trials=1)
        ExperimentConfig(kind="ZeroStats", N=3)

    def test_negative_depth(self):
        with pytest.raises(ValueError, match="D must be nonnegative"):
            ExperimentConfig(kind="Homology2D", N=3, M_list=(8,), D=-1)
        ExperimentConfig(kind="Homology2D", N=3, M_list=(8,), D=0)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e-9"])
    def test_bad_zero_tol(self, value):
        """JSON's NaN and Infinity parse as floats; like a negative value
        they would make every point zero-flagged or raise mid-run."""
        text = ('{"kind": "Homology2D", "N": 3, "M_list": [8], '
                f'"zero_tol": {value}}}')
        with pytest.raises(ValueError,
                           match="zero_tol must be finite and nonnegative"):
            ExperimentConfig.from_json(text)

    @pytest.mark.parametrize("key, value", [("M_list", [4]), ("zero_tol", 0.5),
                                            ("zero_tol", 0.0), ("D", 2)])
    def test_zero_stats_rejects_unused_keys(self, key, value):
        """Zero statistics take no grid, tolerance or depth; a setting
        for one would be ignored and stamped with another value."""
        with pytest.raises(ValueError,
                           match=f"^{key} does not apply to ZeroStats$"):
            ExperimentConfig.from_json(json.dumps(
                {"kind": "ZeroStats", "N": 5, key: value}))
        cfg = ExperimentConfig.from_json(json.dumps(
            {"kind": "ZeroStats", "N": 5, "D": 6, "M_list": [],
             "zero_tol": None}))
        assert cfg.D == 6 and cfg.M_list == () and cfg.zero_tol is None


def test_trial_record_invariant():
    with pytest.raises(ValueError):
        TrialRecord(index=0, seed=1, per_M={
            4: {"certified": True, "degenerate": True,
                "match": False, "unresolved": False}})


def test_default_zero_tol():
    c = trig_coeffs(1, 4)
    m = spectral_moments(c)
    assert default_zero_tol(c) == pytest.approx(1e-12 * math.sqrt(m[0]))


class TestZeroStats:
    def test_counts_even_and_mean(self):
        N = 10
        s = zero_stats(N, trials=60, seed=5)
        assert s.extra["all_counts_even"]
        # exact mean zero count is 2 sqrt(A1 / A0)
        m = spectral_moments(trig_coeffs(1, N))
        exact = 2 * math.sqrt(m[1] / m[0])
        assert s.extra["mean_zero_count"] == pytest.approx(exact, rel=0.08)
        assert s.extra["M95"] > 0
        assert s.extra["gap_q05"] > 0

    @pytest.mark.parametrize("trials", [0, -1])
    def test_zero_trials(self, trials):
        """Refused, not a NaN mean and M95 0."""
        with pytest.raises(ValueError, match="trials must be at least 1"):
            zero_stats(5, trials, 1)

    def test_deterministic(self):
        a = zero_stats(5, trials=20, seed=9)
        b = zero_stats(5, trials=20, seed=9)
        assert a.extra == b.extra

    def test_outputs_pinned(self):
        """Criterion 5a's mean zero count and the 5b M95 values at the
        acceptance configs.  A change that keeps outputs must keep these;
        one that moves them on purpose updates the pins, old -> new."""
        s = zero_stats(10, trials=1000, seed=201)
        assert s.extra["mean_zero_count"] == 12.406
        trials = {5: 1000, 10: 1000, 20: 1000, 50: 400, 100: 200, 200: 100}
        M95 = [zero_stats(N, trials=t, seed=300 + N).extra["M95"]
               for N, t in trials.items()]
        assert M95 == [48, 122, 311, 1338, 3474, 7215]


@pytest.fixture(scope="module")
def small_1d():
    return homology_experiment(1, 5, [10, 28], trials=60, seed=11)


class TestHomologyExperiment:
    def test_row_shape(self, small_1d):
        assert len(small_1d.rows) == 2
        for row in small_1d.rows:
            assert set(CSV_COLUMNS) <= set(row)
            assert 0.0 <= row["rate_match"] <= 1.0
            assert row["ci_lo"] <= row["rate_match"] <= row["ci_hi"]
            assert row["cert_lo"] <= row["rate_certified"] <= row["cert_hi"]

    def test_bounds_attached(self, small_1d):
        from nodalcheck.bounds import bound_1d_periodic
        m = spectral_moments(trig_coeffs(1, 5))
        for row in small_1d.rows:
            assert row["bound"] == pytest.approx(
                bound_1d_periodic(m, row["M"]).bound, rel=1e-12)

    def test_soundness(self, small_1d):
        assert small_1d.extra["soundness_exceptions"] == []

    def test_tallies_consistent(self, small_1d):
        for row in small_1d.rows:
            records = small_1d.extra["records"]
            M = row["M"]
            resolved = [r for r in records
                        if not r.per_M[M]["degenerate"]
                        and not r.per_M[M]["unresolved"]]
            n = len(resolved)
            assert n + row["degenerate"] + row["unresolved"] >= row["trials"]
            matches = sum(r.per_M[M]["match"] for r in resolved)
            assert row["rate_match"] == pytest.approx(
                matches / n if n else 0.0)

    def test_finer_grid_better(self, small_1d):
        r10, r28 = small_1d.rows
        assert r28["rate_match"] >= r10["rate_match"]

    def test_deterministic(self):
        a = homology_experiment(1, 5, [12], trials=25, seed=2)
        b = homology_experiment(1, 5, [12], trials=25, seed=2)
        assert a.rows == b.rows

    def test_2d_smoke(self):
        s = homology_experiment(2, 3, [8], trials=5, seed=1)
        row = s.rows[0]
        assert row["experiment"] == "homology_2d"
        assert s.extra["soundness_exceptions"] == []

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            homology_experiment(3, 3, [8], trials=1)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_trials(self, dim):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            homology_experiment(dim, 5, (10,), 0)

    def test_empty_m_list(self):
        for dim in (1, 2):
            with pytest.raises(ValueError, match="M_list must not be empty"):
                homology_experiment(dim, 3, [], trials=1)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nan_zero_tol(self, dim):
        """Refused as a tolerance, not reported as a foreign fine pass."""
        with pytest.raises(ValueError,
                           match="zero_tol must be finite and nonnegative"):
            homology_experiment(dim, 3, [8], trials=1, zero_tol=math.nan)

    def test_2d_trials_share_trig_tables(self, monkeypatch):
        """The trig tables of a 2D trial's lattices depend on the field's
        law, not on the draw: a cold trial of the criterion-6 suite builds
        one, a repeated one builds none.  Its validations all read the
        fine lattice of M = 32, the finest, and its sign grids (M = 8, 16,
        32) and reference grids (256, 512) are read from that pass."""
        built = []
        trig_block = fields._trig_block
        monkeypatch.setattr(fields, "_trig_block", lambda L, K, x: built.append(
            len(x) - 1) or trig_block(L, K, x))
        fields._lattice_table.cache_clear()
        builds = []
        for seed in (5, 5, 6):
            built.clear()
            homology_experiment(2, 3, (8, 16, 32), trials=1, seed=seed)
            builds.append(sorted(built))
        assert builds == [[4096], [], []]

    def test_1d_trials_keep_small_tables(self, monkeypatch):
        """A 1D trial of the N = 10 suite caches two small trig tables per
        lattice it evaluates: the three validation lattices M 2^7, the
        three sign grids and the two reference grids.  Each table has at
        most T rows, T the least power of two with T^2 >= n, so below
        2 sqrt(n) and far below the n + 1 lattice points; all eight pairs
        take 0.14 MB, where tables of the lattice points would take about
        6 MB.  No 2D table is built."""
        built = []
        trig_block = fields._trig_block
        monkeypatch.setattr(fields, "_trig_block", lambda L, K, x: built.append(
            len(x)) or trig_block(L, K, x))
        fields._fold_tables.cache_clear()
        fields._lattice_table.cache_clear()
        homology_experiment(1, 10, (50, 75, 105), trials=1, seed=3)
        lattices = (50, 75, 105, 840, 1680, 6400, 9600, 13440)
        assert len(built) == 2 * len(lattices) and max(built) == 128
        assert fields._lattice_table.cache_info().currsize == 0
        info = fields._fold_tables.cache_info()
        assert info.currsize == len(lattices) <= info.maxsize
        held = 0
        for n in lattices:
            rows, columns = fields._fold_tables(2 * math.pi, 10, n)
            T = columns.shape[1]
            assert T * T >= n > T * T // 4
            assert columns.shape[0] == 22 and len(rows) == -(-n // T) <= T
            held += rows.nbytes + columns.nbytes
        assert fields._fold_tables.cache_info().currsize == len(lattices)
        assert held < 0.15e6

    def test_2d_trial_call_order(self, monkeypatch, window_stacks):
        """What a caller that wraps the module's bindings sees of a 2D
        trial: the reference first, then per M in ascending order one
        validation and, with the reference resolved, one Betti pair.
        Every M is validated from fine blocks of one lattice, the finest
        (M = 32, D = 6: 4096 steps)."""
        calls = []

        def recorder(name, fn, size):
            def record(*args, **kwargs):
                calls.append((name, size(*args)))
                return fn(*args, **kwargs)
            return record

        for name, size in (("reference_betti", lambda r, M, *_: M),
                           ("validate_2d", lambda r, M, *_: M),
                           ("betti_pair", lambda grid: grid.M)):
            monkeypatch.setattr(experiments, name, recorder(
                name, getattr(experiments, name), size))
        summary = homology_experiment(2, 3, (16, 32, 8), trials=1)
        assert not summary.extra["records"][0].per_M[8]["unresolved"]
        assert calls == [("reference_betti", 256),
                         ("validate_2d", 8), ("betti_pair", 8),
                         ("validate_2d", 16), ("betti_pair", 16),
                         ("validate_2d", 32), ("betti_pair", 32)]
        assert [n for n, _, _ in window_stacks] == [4096]


class TestPersistence:
    def test_csv_roundtrip(self, tmp_path):
        s = homology_experiment(1, 5, [10, 20], trials=15, seed=7)
        p = tmp_path / "out.csv"
        write_results(s, str(p))
        back = read_results(str(p))
        assert back.meta["checksum_B"] == 66
        assert back.meta["checksum_I4"] == 92
        assert back.meta["checksum_I"] == 90
        assert back.meta["D"] == 6
        assert len(back.rows) == 2
        for orig, got in zip(s.rows, back.rows):
            for k in CSV_COLUMNS:
                if isinstance(orig[k], float):
                    assert got[k] == orig[k]  # repr round-trips floats
                else:
                    assert str(got[k]) == str(orig[k])

    def test_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(homology_experiment(1, 5, [12], trials=10, seed=3),
                      str(p1))
        write_results(homology_experiment(1, 5, [12], trials=10, seed=3),
                      str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        p = tmp_path / "c.csv"
        write_results(zero_stats(5, trials=5, seed=1), str(p))
        lines = p.read_text().splitlines()
        metas = [ln for ln in lines if ln.startswith("#")]
        assert any("version=" in ln for ln in metas)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == ",".join(CSV_COLUMNS)

    def test_json_output(self, tmp_path):
        p = tmp_path / "d.json"
        s = homology_experiment(1, 5, [12], trials=10, seed=3)
        write_results(s, str(p), format="json")
        payload = json.loads(p.read_text())
        assert payload["kind"] == "Homology1D"
        assert "records" not in payload["extra"]
        assert payload["extra"]["soundness_exceptions"] == []

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_results(zero_stats(5, trials=2, seed=0),
                          str(tmp_path / "x"), format="yaml")
