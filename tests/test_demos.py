"""Smoke test: every demo runs to the end in-process and writes its plot."""

import runpy
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("[0-9][0-9]_*.py"))
WRITES_SVG = {"01_formation_transport.py", "02_gate_passage.py", "03_forest_run.py"}


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5
    assert WRITES_SVG <= {path.name for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    argv = [str(path)] + (["--out", str(tmp_path)] if path.name in WRITES_SVG else [])
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
    written = list(tmp_path.glob("*.svg"))
    assert len(written) == (1 if path.name in WRITES_SVG else 0)
