"""The scripts under ``scripts/`` import only names the package still has."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_staged_monitoring_demo_runs(capsys):
    demo = load_script("staged_monitoring_demo")
    assert demo.main([]) == 0
    assert "decision" in capsys.readouterr().out


def test_run_oc_grid_imports():
    grid = load_script("run_oc_grid")
    assert callable(grid.main)
