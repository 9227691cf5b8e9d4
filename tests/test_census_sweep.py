"""scripts/census_sweep.py: its CSV is the library's sweep, written once."""

import importlib.util
import sys
from pathlib import Path

import pytest

from maltkit.census import sweep_census
from maltkit.library import builtin_system
from oracles import csv_text

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census_sweep.py"


@pytest.fixture(scope="module")
def census_sweep():
    spec = importlib.util.spec_from_file_location("census_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(module, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    module.main()


def test_sweep_script_matches_the_library(census_sweep, monkeypatch, capsys):
    run_script(census_sweep, monkeypatch, "maltsev", "--sizes", "3,4",
               "--samples", "30", "--seed", "5", "--property", "subalg2,cross")
    assert capsys.readouterr().out == csv_text(sweep_census(
        builtin_system("maltsev"), [3, 4], 30, 5, ("subalg2", "cross")))


def test_sweep_script_has_no_threads_option(census_sweep, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(census_sweep, monkeypatch, "maltsev", "--sizes", "3",
                   "--samples", "5", "--seed", "1", "--threads", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
