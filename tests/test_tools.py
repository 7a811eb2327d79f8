"""Smoke tests of tools/artifact_digests.py on one config and one subcommand,
and on one benchmark workload, and of tools/kernel_timing.py on small grids."""

import hashlib
import json
import os
import subprocess
import sys

from balancelab.cli import main

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TOOL = os.path.join(ROOT, "tools", "artifact_digests.py")
CONFIG = os.path.join(ROOT, "configs", "constant_state.json")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


def _digests(run_dir):
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(run_dir))}


def test_artifact_digests_records_exit_code_and_file_hashes(tmp_path):
    out = tmp_path / "digests.json"
    subprocess.run([sys.executable, TOOL, os.path.join(ROOT, "src"), str(out),
                    "--config", CONFIG, "--command", "solve"], check=True)
    record = json.loads(out.read_text())
    # the same run in this process, hashed here
    run_dir = tmp_path / "run"
    rc = main(["solve", "--config", CONFIG, "--out", str(run_dir), "--quiet"])
    want = _digests(run_dir)
    assert want
    assert record == {"solve constant_state.json": {"exit": rc, "files": want}}


def test_artifact_digests_runs_a_workload_at_a_seed(tmp_path):
    out = tmp_path / "digests.json"
    subprocess.run([sys.executable, TOOL, os.path.join(ROOT, "src"), str(out),
                    "--workload", "ym-ensemble:3"], check=True)
    record = json.loads(out.read_text())
    # the workload's subcommand on the config its generator writes, here
    config = workloads.write_config("ym-ensemble", 3, str(tmp_path / "cfg.json"))
    run_dir = tmp_path / "run"
    rc = main(["ym", "--config", config, "--out", str(run_dir), "--quiet"])
    want = _digests(run_dir)
    assert want
    assert record == {"ym ym-ensemble-3": {"exit": rc, "files": want}}


def test_kernel_timing_reports_both_kernels_per_cell_count():
    # the default workload (converge-riemann, one-row flux tables) and
    # verify-smooth (one flux-table row per interface)
    tool = os.path.join(ROOT, "tools", "kernel_timing.py")
    for extra in ([], ["--workload", "verify-smooth"]):
        proc = subprocess.run([sys.executable, tool, os.path.join(ROOT, "src"),
                               "--cells", "16", "32", "--calls", "2",
                               "--repeats", "1"] + extra,
                              check=True, capture_output=True, text=True)
        record = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(record) == ["16", "32"]
        for times in record.values():
            assert sorted(times) == ["numerical_flux_us", "step_us"]
            assert all(us > 0 for us in times.values())
