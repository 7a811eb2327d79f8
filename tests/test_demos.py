"""Smoke test: the demos run to completion from any working directory."""

import os
import runpy

import pytest

DEMO_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "demos"))


@pytest.mark.parametrize("name", ["01_monotone_graphs", "02_flux_parametrization",
                                  "03_riemann_waves"])
def test_demo_runs_from_a_temporary_cwd(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(os.path.join(DEMO_DIR, name + ".py"), run_name="__main__")
