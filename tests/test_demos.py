"""The demo scripts run to the end: each one exercises the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# 04 runs a reduced battery and takes several seconds; the battery has its own tests
QUICK_DEMOS = ("01_counting_kings.py", "02_mesh_patterns.py", "03_distributions.py")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "MISMATCH" not in out
