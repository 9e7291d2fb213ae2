"""The package's public surface: exported names, the names the benchmark
script reads, and the demo scripts."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import nodalcheck

MODULES = ["nodalcheck"] + [f"nodalcheck.{m.name}"
                            for m in pkgutil.iter_modules(nodalcheck.__path__)]
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_benchmark_names_resolve(monkeypatch):
    """``perfbench/run.py`` wraps every layer it traces and every
    ``experiments`` function it captures by name, so each must exist."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = runpy.run_path(str(ROOT / "perfbench" / "run.py"),
                         run_name="perfbench_run")
    assert run["LAYERS"] and run["CAPTURED"]
    for layer in run["LAYERS"]:
        module, name = layer.split(".")
        assert callable(getattr(importlib.import_module(f"nodalcheck.{module}"),
                                name, None)), layer
    experiments = importlib.import_module("nodalcheck.experiments")
    for name in run["CAPTURED"]:
        assert callable(getattr(experiments, name, None)), name


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
