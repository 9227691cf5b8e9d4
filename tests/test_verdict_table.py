"""scripts/verdict_table.py: it exits 1 exactly when a verdict that is not
advisory disagrees with the literature."""

import importlib.util
from pathlib import Path

import pytest

from maltkit.library import ExpectedVerdict, builtin_label

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "verdict_table.py"


@pytest.fixture(scope="module")
def verdict_table():
    spec = importlib.util.spec_from_file_location("verdict_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_verdicts_exit_zero(verdict_table, capsys):
    assert verdict_table.main() == 0
    assert "mismatch" not in capsys.readouterr().out.lower()


def flip(expected_verdict, label):
    def patched(fam, *args):
        exp = expected_verdict(fam, *args)
        if builtin_label(fam, *args) == label:
            return ExpectedVerdict(not exp.almost_surely, exp.advisory)
        return exp
    return patched


def test_one_flipped_verdict_exits_one(verdict_table, monkeypatch, capsys):
    monkeypatch.setattr(verdict_table, "expected_verdict",
                        flip(verdict_table.expected_verdict, "jonsson-4"))
    assert verdict_table.main() == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "MISMATCH" in ln]
    assert len(lines) == 1 and lines[0].startswith("jonsson-4 ")


def test_flipped_advisory_verdict_does_not_gate(verdict_table, monkeypatch, capsys):
    monkeypatch.setattr(verdict_table, "expected_verdict",
                        flip(verdict_table.expected_verdict, "day-2"))
    assert verdict_table.main() == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "mismatch" in ln.lower()]
    assert len(lines) == 1 and lines[0].startswith("day-2 ")
    assert lines[0].endswith("(advisory mismatch)")
