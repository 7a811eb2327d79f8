"""Record the reference numbers that benchmark runs are checked against.

Usage, from the root of a checkout:

    python3 perfbench/record_references.py

Runs every workload once on each of its workloads.N_INPUTS inputs, fails
if any run fails its own checks, and writes every number of every
artifact, with the files' SHA-256 (perfbench/check.py), to
perfbench/references.npz.  Record only at a commit whose numbers are
trusted: from then on a run whose numbers move by more than 1e-12 x scale
counts as failed.
"""

import os
import shutil
import sys

import check
import run
import workloads


def record():
    refs = {}
    for workload, (command, _) in sorted(workloads.WORKLOADS.items()):
        for index in range(workloads.N_INPUTS):
            co = run.Checkout(os.getcwd(), workload, index)
            os.makedirs(co.work)
            try:
                config = workloads.write_config(
                    workload, index, os.path.join(co.work, "config.json"))
                inv = run.invoke(co, command, config, "0")
                if inv["problems"]:
                    raise SystemExit("%s input %d: %s" % (
                        workload, index, "; ".join(inv["problems"])))
                refs[workload, index] = check.snapshot(inv["out_dir"],
                                                       inv["hashes"])
                print("%s input %d: %.2f s" % (workload, index, inv["run_s"]),
                      flush=True)
            finally:
                shutil.rmtree(co.work, ignore_errors=True)
    check.save_references(run.REFERENCES, refs)


def main():
    co = run.Checkout(os.getcwd(), "", 0)
    if not co.has_program():
        print("no balancelab sources under %s" % co.src, file=sys.stderr)
        return 2
    sys.path.insert(0, co.src)
    record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
