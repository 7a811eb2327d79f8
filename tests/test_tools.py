"""Smoke tests of tools/artifact_digests.py on one config and one subcommand,
and on one benchmark workload, of tools/kernel_timing.py on small grids,
and of tools/phase_memory.py on one workload; the OS threads that the
timing tools' processes hold; and the strings that the shipped configs and
the benchmark's inputs write."""

import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest

from balancelab.cli import main

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TOOL = os.path.join(ROOT, "tools", "artifact_digests.py")
CONFIG = os.path.join(ROOT, "configs", "constant_state.json")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402
from conftest import needs_proc, needs_two_cpus  # noqa: E402


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


def test_artifact_digests_records_the_error_of_a_rejected_run(tmp_path):
    with open(CONFIG) as fh:
        d = json.load(fh)
    d["grid_sizes"] = ["64"]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(d))
    out = tmp_path / "digests.json"
    subprocess.run([sys.executable, TOOL, os.path.join(ROOT, "src"), str(out),
                    "--config", str(config), "--command", "solve"], check=True)
    assert json.loads(out.read_text()) == {"solve cfg.json": {
        "exit": 2, "files": {},
        "stderr": {"error": "config",
                   "message": "grid_sizes.0 must be a number, not '64'"}}}


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
    # the default workload (converge-riemann, one-row flux tables),
    # verify-smooth (one flux-table row per interface) and ym-ensemble (an
    # arctan source with finite l and m on every step, and MeasureContext)
    tool = os.path.join(ROOT, "tools", "kernel_timing.py")
    for extra in ([], ["--workload", "verify-smooth"],
                  ["--workload", "ym-ensemble"]):
        proc = subprocess.run([sys.executable, tool, os.path.join(ROOT, "src"),
                               "--cells", "16", "32", "--calls", "2",
                               "--repeats", "1"] + extra,
                              check=True, capture_output=True, text=True)
        record = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(record) == ["16", "32"]
        kernels = ["cfl_dt", "numerical_flux", "step"]
        if extra[-1:] == ["ym-ensemble"]:
            kernels.append("measure_context")
        for times in record.values():
            assert sorted(times) == sorted(k + s for k in kernels
                                           for s in ("_min_us", "_us"))
            assert all(us > 0 for us in times.values())
            for kernel in kernels:
                assert times[kernel + "_min_us"] <= times[kernel + "_us"]


def test_phase_memory_reports_every_layer_the_run_reaches():
    tool = os.path.join(ROOT, "tools", "phase_memory.py")
    proc = subprocess.run([sys.executable, tool, os.path.join(ROOT, "src"),
                           "--workload", "ym-ensemble", "--seed", "3"],
                          check=True, capture_output=True, text=True)
    record = json.loads(proc.stdout.splitlines()[-1])
    assert (record["workload"], record["seed"], record["command"], record["rc"]) == (
        "ym-ensemble", 3, "ym", 0)
    layers = record["layers"]
    for name in ("config.load_config", "solver.regularized", "solver.solve",
                 "solver.numerical_flux", "measures.residual", "cli.write"):
        assert layers[name]["calls"] >= 1
    for rec in layers.values():
        assert max(rec["held_mb"], 0.0) <= rec["peak_mb"] <= record["total"]["traced_peak_mb"]
        assert 0.0 <= rec["maxrss_rise_mb"] <= rec["maxrss_mb"] <= record["total"]["maxrss_mb"]
    assert layers["solver.regularized"]["peak_mb"] > 0.0


# runs a tool as its own script would run, then reports the process's OS
# threads as it exits
THREADS_AT_EXIT = """
import atexit, json, os, runpy, sys
atexit.register(lambda: print(json.dumps(
    {"threads": len(os.listdir("/proc/self/task"))})))
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@needs_proc
@needs_two_cpus
@pytest.mark.parametrize("tool,args", [
    ("kernel_timing.py", ["--cells", "16", "--calls", "1", "--repeats", "1",
                          "--workload", "ym-ensemble"]),
    ("phase_memory.py", ["--workload", "ym-ensemble", "--seed", "3"]),
])
def test_timing_tools_run_with_the_cli_thread_count(tool, args):
    # balancelab loads numpy with one BLAS thread only if nothing loaded
    # numpy before it
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", THREADS_AT_EXIT,
         os.path.join(ROOT, "tools", tool), os.path.join(ROOT, "src")] + args,
        env=env, check=True, capture_output=True, text=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {"threads": 1}


def _strings(node, path=()):
    """(key path, string) of every string below a JSON node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, str):
            yield path + (key,), child
        elif isinstance(child, (dict, list)):
            yield from _strings(child, path + (key,))


def test_configs_write_strings_only_as_names_and_inf():
    # what the config reader takes as a string: the names, and "inf" at
    # indices.ell and indices.m
    texts = []
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path) as fh:
            texts.append(fh.read())
    assert len(texts) == 10
    texts += [workloads.config_text(w, s) for w in sorted(workloads.WORKLOADS)
              for s in range(workloads.N_INPUTS)]
    for text in texts:
        for path, value in _strings(json.loads(text)):
            assert (path[-1] in ("id", "kind", "g", "out_dir")
                    or (value == "inf" and path in (("problem", "indices", "ell"),
                                                    ("problem", "indices", "m")))), (path, value)
