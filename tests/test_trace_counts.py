"""The benchmark tracer's sweep-step count on a real ``converge`` run.

``perfbench/run.py --trace 1`` requires that the sweep steps the tracer
counts (``solver.pooled_steps``) equal the ``n_steps`` that the
``schedule_*.json`` artifacts record.  The tracer counts only the solves
that ``harness.solve_points`` runs off the calling thread, so this checks
that every schedule member still does.
"""

import json
import os
import sys

from balancelab import cli

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
CONFIG = os.path.join(ROOT, "configs", "linear_decay.json")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import spans  # noqa: E402


def test_traced_sweep_steps_match_schedule_artifacts(tmp_path):
    out = tmp_path / "run"
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(["converge", "--config", CONFIG, "--out", str(out),
                       "--quiet"])
    finally:
        tracer.uninstall()
    assert rc == 0
    names = sorted(p.name for p in out.glob("schedule_*.json"))
    assert names
    steps = sum(s["n_steps"] for name in names
                for s in json.loads((out / name).read_text())["summaries"])
    assert steps > 0
    assert tracer.counts["solver.pooled_steps"] == steps
