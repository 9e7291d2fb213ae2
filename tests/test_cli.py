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
        with pytest.raises(SystemExit):
            main(["bound", "--dim", "1", "--M", "10"])


class TestValidate:
    def test_coarse_grid_not_certified(self, capsys):
        code, out = run(capsys, "validate", "--dim", "1", "--N", "5",
                        "--M", "2", "--seed", "7")
        assert code == EXIT_NOT_CERTIFIED
        payload = json.loads(out)
        assert payload["status"] == "NotCertified"
        assert payload["violations"]

    def test_fine_grid_certified(self, capsys):
        code, out = run(capsys, "validate", "--dim", "1", "--N", "3",
                        "--M", "60", "--seed", "7")
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "Certified"


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

    def test_betti_needs_grid_or_m(self, capsys):
        code = main(["betti", "--N", "3", "--dim", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == "error: betti needs --grid or --M\n"

    def test_eval_2d_needs_y(self, capsys, tmp_path):
        rpath = tmp_path / "r2.json"
        run(capsys, "gen", "--dim", "2", "--N", "3", "--out", str(rpath))
        with pytest.raises(SystemExit):
            main(["eval", "--realization", str(rpath), "--x", "1.0"])
        code, out = run(capsys, "eval", "--realization", str(rpath),
                        "--x", "1.0", "--y", "2.0")
        assert code == EXIT_OK


class TestOrthant:
    def test_crossover(self, capsys):
        code, out = run(capsys, "orthant", "--pattern", "crossover-1d",
                        "--N", "3", "--delta", "0.01",
                        "--samples", "10000")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["limit"] == pytest.approx(0.29239, abs=5e-5)
        assert payload["functional"] == pytest.approx(payload["limit"],
                                                      rel=0.05)


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
    ])
    def test_malformed_config(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code = main(["experiment", "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_kind_positional_rejected(self, capsys, tmp_path):
        """The config names the kind; a positional one would be ignored."""
        cfg = tmp_path / "z.json"
        cfg.write_text(json.dumps({"kind": "ZeroStats", "N": 5,
                                   "trials": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "Homology2D", "--config", str(cfg)])
        assert exc.value.code == 2


class TestParser:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--dim", "1", "--N", "3", "--M", "10",
                  "--bogus"])
        assert exc.value.code == 2

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
        assert exc.value.code == 2


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

    def test_help_names_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert "1e-12*sqrt(A0)" in capsys.readouterr().out
