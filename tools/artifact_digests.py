"""Record the exit code and the SHA-256 of every artifact of CLI runs.

Usage, from the root of a checkout:

    python3 tools/artifact_digests.py SRC_DIR OUT.json
        [--config PATH ...] [--command NAME ...] [--workload NAME:SEED ...]

Each (subcommand, config) pair runs ``balancelab.cli.main`` in its own
child process, with ``PYTHONPATH=SRC_DIR`` and a fresh output directory.
By default that is every subcommand on every shipped config
(``configs/*.json``).  ``--workload`` runs a benchmark workload's
subcommand on the config that ``perfbench/workloads.py`` writes for that
seed; given alone, it replaces the default configs.  OUT.json maps
``"<subcommand> <config file name>"`` and ``"<subcommand> <workload>-<seed>"``
to the exit code and the digest of each file the run wrote, keyed by its
path in the output directory.  The JSON is written with sorted keys, so
the records of two source trees compare with a plain ``diff``:

    python3 tools/artifact_digests.py parent/src parent.json
    python3 tools/artifact_digests.py src change.json
    diff parent.json change.json
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (importing it only defines the generators)

COMMANDS = ("solve", "verify", "converge", "ym", "parametrize")
CHILD = "import sys, balancelab.cli; sys.exit(balancelab.cli.main(sys.argv[1:]))"


def file_digests(out_dir):
    """Relative path -> SHA-256 hex digest of every file under out_dir."""
    digests = {}
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            digests[os.path.relpath(path, out_dir).replace(os.sep, "/")] = digest
    return digests


def run_one(src, command, config):
    """Exit code and file digests of one subcommand on one config."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    with tempfile.TemporaryDirectory() as work:
        out_dir = os.path.join(work, "out")
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, command, "--config",
             os.path.abspath(config), "--out", out_dir, "--quiet"],
            cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        files = file_digests(out_dir) if os.path.isdir(out_dir) else {}
    return {"exit": proc.returncode, "files": files}


def workload_seed(text):
    """``NAME:SEED`` of a benchmark workload, as (name, seed)."""
    name, _, seed = text.partition(":")
    if name not in workloads.WORKLOADS or not seed.isdigit():
        raise argparse.ArgumentTypeError(
            "expected NAME:SEED with NAME one of %s" % ", ".join(sorted(workloads.WORKLOADS)))
    return name, int(seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the balancelab package")
    parser.add_argument("out", help="path of the JSON record to write")
    parser.add_argument("--config", action="append",
                        help="config to run (repeatable; default: configs/*.json)")
    parser.add_argument("--command", action="append", choices=COMMANDS,
                        help="subcommand to run (repeatable; default: all five)")
    parser.add_argument("--workload", action="append", type=workload_seed,
                        help="benchmark workload and seed, as NAME:SEED (repeatable)")
    args = parser.parse_args(argv)
    configs = args.config or ([] if args.workload else sorted(
        glob.glob(os.path.join(ROOT, "configs", "*.json"))))
    record = {}
    for config in configs:
        for command in args.command or COMMANDS:
            key = "%s %s" % (command, os.path.basename(config))
            record[key] = run_one(args.src, command, config)
    for name, seed in args.workload or []:
        command, _ = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as work:
            config = workloads.write_config(name, seed, os.path.join(work, "config.json"))
            record["%s %s-%d" % (command, name, seed)] = run_one(args.src, command, config)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
