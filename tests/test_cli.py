import json

import numpy as np
import pytest

from nodalcheck.admissibility import validate_1d
from nodalcheck.cli import (EXIT_ERROR, EXIT_NOT_CERTIFIED, EXIT_OK,
                            build_parser, main)
from nodalcheck.cubical import sign_grid
from nodalcheck.experiments import default_zero_tol
from nodalcheck.fields import Realization1D, realization_to_json, trig_coeffs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBound:
    def test_1d_n10_m75(self, capsys):
        code, out = run(capsys, "bound", "--dim", "1", "--N", "10",
                        "--M", "75")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["bound"] >= 0.95
        assert not payload["vacuous"]

    def test_vacuous(self, capsys):
        code, out = run(capsys, "bound", "--dim", "2", "--N", "3",
                        "--M", "10")
        assert code == EXIT_OK
        assert json.loads(out)["vacuous"]

    def test_torus_tighter(self, capsys):
        _, full = run(capsys, "bound", "--dim", "2", "--N", "3",
                      "--M", "1000")
        _, torus = run(capsys, "bound", "--dim", "2", "--N", "3",
                       "--M", "1000", "--torus")
        assert json.loads(torus)["bound"] > json.loads(full)["bound"]

    def test_missing_source(self, capsys):
        code = main(["bound", "--dim", "1", "--M", "10"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: either --coeffs or --N is required\n"

    @pytest.mark.parametrize("file_dim, dim", [(2, 1), (1, 2)])
    def test_dim_disagrees_with_coeffs(self, capsys, tmp_path, file_dim, dim):
        cpath = tmp_path / "c.json"
        run(capsys, "gen", "--dim", str(file_dim), "--N", "3",
            "--out", str(tmp_path / "r.json"), "--coeffs-out", str(cpath))
        code = main(["bound", "--dim", str(dim), "--coeffs", str(cpath),
                     "--M", "50"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == (f"error: --dim {dim} does not match the "
                                f"{file_dim}D coefficient file\n")

    def test_torus_needs_2d(self, capsys):
        code = main(["bound", "--torus", "--dim", "1", "--N", "5",
                     "--M", "50"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: --torus needs --dim 2\n"


class TestValidate:
    def test_coarse_grid_not_certified(self, capsys):
        code, out = run(capsys, "validate", "--dim", "1", "--N", "5",
                        "--M", "2", "--seed", "7")
        assert code == EXIT_NOT_CERTIFIED
        payload = json.loads(out)
        assert payload["status"] == "NotCertified"
        assert payload["violations"]
        assert payload["violation_count"] == len(payload["violations"])

    def test_fine_grid_certified(self, capsys):
        code, out = run(capsys, "validate", "--dim", "1", "--N", "3",
                        "--M", "60", "--seed", "7")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "Certified"
        assert payload["violation_count"] == 0


class TestRoundTrips:
    def test_gen_eval_grid_betti(self, capsys, tmp_path):
        rpath = tmp_path / "r.json"
        cpath = tmp_path / "c.json"
        code, _ = run(capsys, "gen", "--dim", "1", "--N", "4", "--seed", "3",
                      "--out", str(rpath), "--coeffs-out", str(cpath))
        assert code == EXIT_OK
        assert json.loads(cpath.read_text())["dim"] == 1

        code, out = run(capsys, "eval", "--realization", str(rpath),
                        "--x", "1.0")
        assert code == EXIT_OK
        from nodalcheck.fields import realization_from_json
        r = realization_from_json(rpath.read_text())
        assert json.loads(out)["value"] == pytest.approx(r(1.0))

        gpath = tmp_path / "g.json"
        code, _ = run(capsys, "grid", "--realization", str(rpath),
                      "--M", "12", "--out", str(gpath))
        assert code == EXIT_OK

        code, out = run(capsys, "betti", "--grid", str(gpath))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["plus"][0] + payload["minus"][0] >= 1

    @pytest.mark.parametrize("x", ["nan", "inf", "-1"])
    def test_eval_outside_domain(self, capsys, tmp_path, x):
        rpath = tmp_path / "r.json"
        run(capsys, "gen", "--dim", "1", "--N", "3", "--out", str(rpath))
        code = main(["eval", "--realization", str(rpath), "--x", x])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert "outside [0, L]" in captured.err

    def test_eval_1d_rejects_y(self, capsys):
        code = main(["eval", "--N", "5", "--x", "1", "--y", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: --y 2.0 does not apply to a 1D field\n"

    def test_betti_needs_grid_or_m(self, capsys):
        code = main(["betti", "--N", "3", "--dim", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: betti needs --grid or --M\n"

    @pytest.mark.parametrize("payload, message", [
        ({"dim": 2, "M": 1, "rows": ["+-", "+x"]},
         "sign grid row 1: bad character 'x' (expected '+', '-' or '0')"),
        ({"dim": 2, "M": 1, "rows": ["+-", "+"]},
         "sign grid row 1 has 1 signs, row 0 has 2"),
        ({"dim": 2, "M": 1, "rows": ["+-", 7]},
         "sign grid row 1 is not a string"),
        ({"dim": 1, "M": 1, "rows": ["+-", "-+"]},
         "a 1D sign grid has one row, not 2"),
        ({"dim": 2, "M": 2, "rows": ["+-", "-+"]},
         "sign array shape must be (M+1,)^dim"),
        ({"dim": 2, "M": 1}, "sign grid file has no 'rows' key"),
        ({"M": 1, "rows": ["+"]}, "sign grid file has no 'dim' key"),
        (["+-", "-+"], "a sign grid file must hold a JSON object"),
        ({"dim": 2, "M": "1", "rows": ["+-", "-+"]},
         "sign grid M must be an integer, not '1'"),
        ({"dim": 2, "M": 2.0, "rows": ["+-", "-+"]},
         "sign grid M must be an integer, not 2.0"),
        ({"dim": 2, "M": True, "rows": ["+-", "-+"]},
         "sign grid M must be an integer, not True"),
        ({"dim": 3, "M": 1, "rows": ["+-", "-+"]},
         "sign grid dim must be 1 or 2, not 3"),
        ({"dim": 1, "M": -1, "rows": [""]}, "M must be at least 1"),
        ({"dim": 2, "M": 0, "rows": ["+"]}, "M must be at least 1"),
    ])
    def test_betti_bad_grid(self, capsys, tmp_path, payload, message):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(payload))
        code = main(["betti", "--grid", str(gpath)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["dim", "L", "a", "seed", "g"])
    def test_eval_realization_missing_key(self, capsys, tmp_path, key):
        rpath = tmp_path / "r.json"
        run(capsys, "gen", "--dim", "2", "--N", "3", "--out", str(rpath))
        payload = json.loads(rpath.read_text())
        del payload[key]
        rpath.write_text(json.dumps(payload))
        code = main(["eval", "--realization", str(rpath), "--x", "1.0",
                     "--y", "2.0"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == f"error: realization file has no {key!r} key\n"

    @pytest.mark.parametrize("key", ["dim", "L", "a"])
    def test_coefficients_missing_key(self, capsys, tmp_path, key):
        cpath = tmp_path / "c.json"
        run(capsys, "gen", "--dim", "1", "--N", "3",
            "--out", str(tmp_path / "r.json"), "--coeffs-out", str(cpath))
        payload = json.loads(cpath.read_text())
        del payload[key]
        cpath.write_text(json.dumps(payload))
        code = main(["bound", "--dim", "1", "--coeffs", str(cpath),
                     "--M", "10"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err == f"error: coefficient file has no {key!r} key\n"

    def test_eval_2d_needs_y(self, capsys, tmp_path):
        rpath = tmp_path / "r2.json"
        run(capsys, "gen", "--dim", "2", "--N", "3", "--out", str(rpath))
        code = main(["eval", "--realization", str(rpath), "--x", "1.0"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: --y is required for 2D realizations\n"
        code, out = run(capsys, "eval", "--realization", str(rpath),
                        "--x", "1.0", "--y", "2.0")
        assert code == EXIT_OK


class TestFieldSource:
    """A --realization, --coeffs or --grid file is the field source; a
    flag it would override is an error, not silently ignored."""

    def _error(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        return captured.err

    def test_realization_rejects_generator_flags(self, capsys, tmp_path):
        rpath, cpath = tmp_path / "f.json", tmp_path / "c.json"
        run(capsys, "gen", "--dim", "1", "--N", "3", "--out", str(rpath),
            "--coeffs-out", str(cpath))
        src = ("eval", "--realization", str(rpath), "--x", "1.0")
        assert self._error(capsys, *src, "--dim", "2", "--N", "7",
                           "--seed", "9") == (
            "error: --dim 2 does not match the 1D realization file\n")
        for flag, value in [("--N", "7"), ("--seed", "9"),
                            ("--coeffs", str(cpath))]:
            assert self._error(capsys, *src, flag, value) == (
                f"error: {flag} {value} does not apply to the "
                f"realization file\n")
        # a --dim that agrees with the file is a consistency check
        code, out = run(capsys, *src, "--dim", "1")
        assert code == EXIT_OK
        assert out == run(capsys, *src)[1]

    @pytest.mark.parametrize("flag, value", [
        ("--coeffs", "c.json"), ("--N", "7"), ("--seed", "4"),
        ("--realization", "nope.json"), ("--M", "9"), ("--zero-tol", "5.0"),
        ("--dim", "2")])
    def test_grid_rejects_field_flags(self, capsys, tmp_path, flag, value):
        """betti reads a --grid file as it is, so a flag that would draw or
        classify a field is an error, and so is a --dim it contradicts."""
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"dim": 1, "M": 2, "rows": ["+-+"]}))
        src = ("betti", "--grid", str(gpath))
        message = ("--dim 2 does not match the 1D sign grid file"
                   if flag == "--dim" else
                   f"{flag} {value} does not apply to the sign grid file")
        assert self._error(capsys, *src, flag, value) == f"error: {message}\n"
        # a --dim that agrees with the file is a consistency check
        code, out = run(capsys, *src, "--dim", "1")
        assert code == EXIT_OK
        assert out == run(capsys, *src)[1]

    def test_coeffs_rejects_dim_and_degree(self, capsys, tmp_path):
        cpath = tmp_path / "c2.json"
        run(capsys, "gen", "--dim", "2", "--N", "3", "--coeffs-out",
            str(cpath))
        src = ("validate", "--coeffs", str(cpath), "--M", "8")
        assert self._error(capsys, *src, "--dim", "1", "--N", "5") == (
            "error: --dim 1 does not match the 2D coefficient file\n")
        assert self._error(capsys, *src, "--N", "5") == (
            "error: --N 5 does not apply to the coefficient file\n")


class TestOrthant:
    def test_crossover(self, capsys):
        code, out = run(capsys, "orthant", "--pattern", "crossover-1d",
                        "--N", "3", "--delta", "0.01")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["limit"] == pytest.approx(0.29239, abs=5e-5)
        assert payload["functional"] == pytest.approx(payload["limit"],
                                                      rel=0.05)

    def test_pattern_dim_disagrees_with_dim(self, capsys):
        code = main(["orthant", "--pattern", "crossover-1d", "--dim", "2",
                     "--N", "3", "--delta", "0.01"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: pattern crossover-1d is 1D, but --dim is 2\n")

    @pytest.mark.parametrize("delta", ["0", "-0.05", "nan"])
    def test_delta_must_be_positive(self, capsys, delta):
        code = main(["orthant", "--pattern", "five-point", "--N", "3",
                     "--delta", delta])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: --delta must be positive\n"

    @pytest.mark.parametrize("pattern", ["crossover-1d", "five-point"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_must_be_positive(self, capsys, pattern, samples):
        """Closed forms (n <= 3) draw no samples, but the flag is checked
        for every pattern alike."""
        code = main(["orthant", "--pattern", pattern, "--N", "3",
                     "--delta", "0.01", "--samples", samples])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: --samples must be positive\n"

    @pytest.mark.parametrize("flag, value", [("samples", "7"), ("seed", "99")])
    def test_exact_pattern_rejects_sampling_flags(self, capsys, flag, value):
        """A pattern of at most 3 points is computed exactly, so it takes
        neither a sample count nor a seed."""
        code = main(["orthant", "--pattern", "crossover-1d", "--N", "3",
                     "--delta", "0.01", f"--{flag}", value])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == (
            f"error: --{flag} {value} does not apply to the 3-point pattern "
            "crossover-1d, which is computed exactly\n")

    @pytest.mark.parametrize("pattern, file_dim", [("crossover-1d", 2),
                                                   ("square", 1)])
    def test_pattern_dim_disagrees_with_coeffs(self, capsys, tmp_path,
                                               pattern, file_dim):
        cpath = tmp_path / "c.json"
        run(capsys, "gen", "--dim", str(file_dim), "--N", "3",
            "--coeffs-out", str(cpath))
        code = main(["orthant", "--pattern", pattern, "--coeffs", str(cpath),
                     "--delta", "0.01"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: pattern {pattern} is {3 - file_dim}D, but the "
            f"coefficient file {cpath} is {file_dim}D\n")


class TestPatterns:
    def test_check_golden(self, capsys):
        import importlib.resources as res
        path = res.files("nodalcheck").joinpath("patterns.txt")
        code, out = run(capsys, "patterns", "check", str(path))
        assert code == EXIT_OK
        assert json.loads(out) == {"B": 66, "I4": 92, "I": 90}

    def test_corrupted_file_errors(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("#B:x\n+++\n---\n+++\n")
        code = main(["patterns", "check", str(p)])
        assert code == EXIT_ERROR


class TestExperiment:
    def test_config_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "Homology1D", "N": 5, "M_list": [10],
            "trials": 10, "seed": 1}))
        out_csv = tmp_path / "res.csv"
        code, out = run(capsys, "experiment", "--config", str(cfg),
                        "--out", str(out_csv))
        assert code == EXIT_OK
        assert json.loads(out)["kind"] == "Homology1D"
        text = out_csv.read_text()
        assert text.startswith("# version=")
        assert "homology_1d" in text

    def test_zero_stats_config(self, capsys, tmp_path):
        cfg = tmp_path / "z.json"
        cfg.write_text(json.dumps({"kind": "ZeroStats", "N": 5,
                                   "trials": 10, "seed": 2}))
        code, out = run(capsys, "experiment", "--config", str(cfg))
        assert code == EXIT_OK

    def test_missing_config(self, capsys, tmp_path):
        code = main(["experiment", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("config, message", [
        ({"kind": "ZeroStats", "N": 5, "trails": 10},
         "unknown config keys: trails"),
        ({"N": 5, "trials": 10}, "config must be a JSON object naming its kind"),
        ([5], "config must be a JSON object naming its kind"),
        ({"kind": "ZeroStats", "N": 5, "trials": "10"},
         "trials must be an integer"),
        ({"kind": "ZeroStats", "N": 5.0}, "N must be an integer"),
        ({"kind": "ZeroStats", "N": 5, "seed": True}, "seed must be an integer"),
        ({"kind": "Homology1D", "N": 5, "M_list": [10], "D": None},
         "D must be an integer"),
        ({"kind": "Homology1D", "N": 5, "M_list": [10, "20"]},
         "M_list must be a list of integers"),
        ({"kind": "Homology1D", "N": 5, "M_list": 10},
         "M_list must be a list of integers"),
        ({"kind": "Homology1D", "N": 5, "M_list": [10], "zero_tol": "0"},
         "zero_tol must be a number or null"),
        ({"kind": "ZeroStats", "N": 5, "out": 1}, "out must be a path or null"),
        ({"kind": "OrthantConvergence"}, "kind must be one of "
         "('ZeroStats', 'Homology1D', 'Homology2D')"),
        ({"kind": "Homology2D", "N": 3, "M_list": [], "trials": 1},
         "Homology2D needs a nonempty M_list"),
        ({"kind": "Homology1D", "N": 5, "trials": 1},
         "Homology1D needs a nonempty M_list"),
        ({"kind": "Homology1D", "N": 5, "M_list": [10], "D": -1},
         "D must be nonnegative"),
        ({"kind": "ZeroStats", "N": 5, "D": 2, "zero_tol": 0.5, "M_list": [4]},
         "M_list does not apply to ZeroStats"),
        ({"kind": "ZeroStats", "N": 5, "zero_tol": 0.5},
         "zero_tol does not apply to ZeroStats"),
        ({"kind": "ZeroStats", "N": 5, "D": 2}, "D does not apply to ZeroStats"),
    ])
    def test_malformed_config(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code = main(["experiment", "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_rejected_when_config_sets_out(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(json.dumps({"kind": "ZeroStats", "N": 5, "trials": 2,
                                   "out": str(a)}))
        code = main(["experiment", "--config", str(cfg), "--out", str(b)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == (f"error: --out {b} does not apply: the "
                                f"config sets out to {a}\n")
        assert not a.exists() and not b.exists()

    def test_format_rejected_without_out(self, capsys, tmp_path):
        """With neither --out nor a config out nothing is written, so
        --format has nothing to format."""
        cfg = tmp_path / "zs.json"
        cfg.write_text(json.dumps({"kind": "ZeroStats", "N": 5,
                                   "trials": 2}))
        code = main(["experiment", "--config", str(cfg), "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == ("error: --format json does not apply: "
                                "neither --out nor the config's out names "
                                "a file\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_kind_positional_rejected(self, capsys, tmp_path):
        """The config names the kind; a positional one would be ignored."""
        cfg = tmp_path / "z.json"
        cfg.write_text(json.dumps({"kind": "ZeroStats", "N": 5,
                                   "trials": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "Homology2D", "--config", str(cfg)])
        assert exc.value.code == EXIT_ERROR


class TestParser:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--dim", "1", "--N", "3", "--M", "10",
                  "--bogus"])
        assert exc.value.code == EXIT_ERROR

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_per_subcommand(self):
        parser = build_parser()
        help_text = parser.format_help()
        for name in ("gen", "eval", "grid", "betti", "validate", "bound",
                     "orthant", "patterns", "experiment"):
            assert name in help_text

    def test_threads_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "4", "bound", "--dim", "1", "--N", "3",
                  "--M", "20"])
        assert exc.value.code == EXIT_ERROR

    def test_usage_error_is_not_a_verdict(self, capsys):
        """Exit code 2 means a validation ran and was not Certified; a
        usage error, such as a missing --M, is an error (1)."""
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--N", "3", "--dim", "2"])
        assert exc.value.code == EXIT_ERROR
        assert "the following arguments are required: --M" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["validate", "--help"]])
    def test_help_and_version_exit_ok(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK


class TestZeroTol:
    """Without --zero-tol, grid/betti/validate flag |u| <= 1e-12 sqrt(A0)."""

    @pytest.fixture
    def near_zero(self, tmp_path):
        # u(0) = g[2] + g[4] = 2^-50: flagged by the default tolerance,
        # positive for --zero-tol 0
        coeffs = trig_coeffs(1, 2)
        g = np.array([0.0, 0.3, 1.0, 0.7, -1.0 + 2.0**-50])
        r = Realization1D(coeffs=coeffs, g=g, seed=0)
        path = tmp_path / "r.json"
        path.write_text(realization_to_json(r))
        return r, str(path)

    def test_default_is_default_zero_tol(self, capsys, near_zero):
        r, path = near_zero
        tol = default_zero_tol(r.coeffs)
        code, out = run(capsys, "grid", "--realization", path, "--M", "8")
        assert code == EXIT_OK
        assert json.loads(out) == json.loads(sign_grid(r, 8, tol).to_json())
        assert json.loads(out)["rows"][0][0] == "0"
        code, out = run(capsys, "validate", "--realization", path,
                        "--M", "8", "--D", "2")
        want = validate_1d(r, 8, 2, tol)
        assert want.status == "Degenerate"
        assert json.loads(out)["zero_flag_count"] == want.zero_flag_count
        code, out = run(capsys, "betti", "--realization", path, "--M", "8")
        assert json.loads(out)["zero_count"] == sign_grid(r, 8, tol).zero_count

    def test_zero_means_exact_zeros_only(self, capsys, near_zero):
        _, path = near_zero
        code, out = run(capsys, "grid", "--realization", path, "--M", "8",
                        "--zero-tol", "0")
        assert code == EXIT_OK
        assert json.loads(out)["rows"][0][0] == "+"

    @pytest.mark.parametrize("command", ["grid", "betti", "validate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.001"])
    def test_bad_zero_tol_is_an_error(self, capsys, near_zero, command,
                                      value):
        """A tolerance that would flag every point is bad input (exit 1),
        not an outcome: no grid of zeros, no Degenerate verdict."""
        _, path = near_zero
        code, out = run(capsys, command, "--realization", path, "--M", "8",
                        "--zero-tol", value)
        assert code == EXIT_ERROR and out == ""

    def test_help_names_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert "1e-12*sqrt(A0)" in capsys.readouterr().out
