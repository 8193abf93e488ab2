"""Smoke tests: every example script runs to completion.

The examples double as executable documentation; these tests keep them
from rotting.  Output is captured and lightly sanity-checked.
"""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "figure1_strengthening.py",
    "figure6_preheader.py",
    "build_ir_directly.py",
    "explain_and_backend.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(os.path.join(EXAMPLES_DIR, script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_scheme_comparison_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["scheme_comparison.py", "vortex"])
    runpy.run_path(os.path.join(EXAMPLES_DIR, "scheme_comparison.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "vortex" in out
    assert "LLS" in out


def test_reproduce_tables_small(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--small"])
    runpy.run_path(os.path.join(EXAMPLES_DIR, "reproduce_tables.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "Table 2" in out and "Table 3" in out
    assert "overhead estimate" in out
