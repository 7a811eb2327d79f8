"""Smoke test of tools/artifact_digests.py on one config and one subcommand."""

import hashlib
import json
import os
import subprocess
import sys

from balancelab.cli import main

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TOOL = os.path.join(ROOT, "tools", "artifact_digests.py")
CONFIG = os.path.join(ROOT, "configs", "constant_state.json")


def test_artifact_digests_records_exit_code_and_file_hashes(tmp_path):
    out = tmp_path / "digests.json"
    subprocess.run([sys.executable, TOOL, os.path.join(ROOT, "src"), str(out),
                    "--config", CONFIG, "--command", "solve"], check=True)
    record = json.loads(out.read_text())
    # the same run in this process, hashed here
    run_dir = tmp_path / "run"
    rc = main(["solve", "--config", CONFIG, "--out", str(run_dir), "--quiet"])
    want = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(run_dir))}
    assert want
    assert record == {"solve constant_state.json": {"exit": rc, "files": want}}
