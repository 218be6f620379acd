"""Every script under demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch):
    # the demos write their .vtk, .mtx, .node and .ele files to the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
