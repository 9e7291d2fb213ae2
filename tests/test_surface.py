"""The package's public surface: exported names and the demo scripts."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import nodalcheck

MODULES = ["nodalcheck"] + [f"nodalcheck.{m.name}"
                            for m in pkgutil.iter_modules(nodalcheck.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
