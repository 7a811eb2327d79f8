"""The BLAS thread count that ``import balancelab`` sets, seen from fresh
interpreters: one OpenBLAS thread unless OPENBLAS_NUM_THREADS is preset,
and the variable taken back out of the environment once numpy has loaded."""

import json
import os
import subprocess
import sys

import pytest

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")
CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                      "arctan_damped.json")

# solves a shipped 64-cell config, then reports the process's OS threads
# and the variable as the environment holds it
CHILD = """
import json, os, sys
import balancelab.cli
rc = balancelab.cli.main(["solve", "--config", sys.argv[1], "--out",
                          sys.argv[2], "--quiet"])
print(json.dumps({"rc": rc, "threads": len(os.listdir("/proc/self/task")),
                  "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="no /proc/self/task to count threads")


def _fresh(tmp_path, preset=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, CONFIG, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rc"] == 0
    return out


@needs_proc
def test_import_and_solve_leave_one_os_thread(tmp_path):
    assert _fresh(tmp_path)["threads"] == 1


@needs_proc
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2
                    if hasattr(os, "sched_getaffinity")
                    else (os.cpu_count() or 1) < 2,
                    reason="OpenBLAS starts no more threads than CPUs")
def test_preset_thread_count_is_honoured(tmp_path):
    out = _fresh(tmp_path, preset="2")
    assert out["threads"] == 2
    assert out["env"] == "2"


@needs_proc
def test_variable_is_taken_back_out_after_the_import(tmp_path):
    assert _fresh(tmp_path)["env"] is None
