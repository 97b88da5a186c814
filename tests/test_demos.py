"""The demo scripts run to the end: each one exercises the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_NAMES = ("01_counting_kings.py", "02_mesh_patterns.py", "03_distributions.py",
              "04_verification.py")


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "MISMATCH" not in out and "FAIL" not in out
