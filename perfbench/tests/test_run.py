import json
import os
import shutil
import subprocess
import sys

import check
import run
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


def test_fails_without_a_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ym-ensemble",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_artifact_steps_sums_schedule_summaries(tmp_path):
    for kind, steps in (("m", [3, 4]), ("j", [5])):
        (tmp_path / ("schedule_%s.json" % kind)).write_text(json.dumps(
            {"summaries": [{"n_steps": s} for s in steps]}))
    (tmp_path / "convergence.json").write_text("{}")
    assert run.artifact_steps(str(tmp_path)) == 12
    os.remove(tmp_path / "schedule_m.json")
    os.remove(tmp_path / "schedule_j.json")
    assert run.artifact_steps(str(tmp_path)) is None


def test_every_input_has_a_reference():
    for name in workloads.WORKLOADS:
        for index in range(workloads.N_INPUTS):
            assert check.load_reference(run.REFERENCES, name, index), \
                (name, index)


def test_a_seed_without_a_reference_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REFERENCES", str(tmp_path / "none.npz"))
    invs = [{"problems": [], "out_dir": str(tmp_path), "hashes": {}}
            for _ in range(2)]
    run.check_invocations(invs, "ym-ensemble", 25)
    assert all("no reference recorded for input 5" in inv["problems"]
               for inv in invs)
