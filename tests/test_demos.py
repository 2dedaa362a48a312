"""Smoke tests for the demo scripts.

Each demo in ``demos/`` runs in process, as ``python3 demos/<name>.py``
would run it, with its artifacts sent to a temporary directory, so a change
to the library API that a demo relies on fails here rather than unseen.
"""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# Demos that write artifacts take an output directory.
TAKES_OUT = {"triple_descent.py", "multiple_descent_k3.py"}
# A line each demo must print, where its value is pinned.
EXPECTED = {"width_limits.py": "infinite-width limit  : 3.334950756137e-02"}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_completes(name, tmp_path, monkeypatch, capsys):
    argv = [str(DEMOS / name)] + (["--out", str(tmp_path)] if name in TAKES_OUT else [])
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert EXPECTED.get(name, "") in out
