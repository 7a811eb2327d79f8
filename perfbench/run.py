"""The balancelab benchmark: one workload, one seed, one measuring run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ym-ensemble --seed 1 --seconds 25 --trace 0

The seed generates the workload's config file (perfbench/workloads.py);
the program sees only that file.  Load is a closed loop with one client:
each timed invocation of the subcommand runs in its own child process,
started only after the previous one has exited, until ``--seconds`` have
passed (at least two invocations, so reruns can be compared).

``--trace 0`` reports the end-to-end metrics: median run_s, cpu_s and
peak_rss_mb over the invocations, and setup_s, the median wall time of
fresh interpreters that import balancelab and load the config.
``--trace 1`` alternates untraced and traced invocations (perfbench/
spans.py) and reports the per-layer metrics; trace.overhead_s is the
difference of the two sides' median run_s.

Every invocation is checked: exit code 0, no traceback, artifacts
byte-identical to the first invocation's, and every number within 1e-12 x
scale of the reference recorded for the seed's input (perfbench/
references.npz, perfbench/check.py); a seed whose input has no reference
fails.  Traced runs must also repeat their counts exactly, and
the solver's step count must equal the n_steps the artifacts record.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(BENCH_DIR, "references.npz")
SETUP_PROBES = 7
MIN_RUNS = 2
CHILD_TIMEOUT_S = 170
SETUP_PROBE = "import sys, balancelab; balancelab.load_config(sys.argv[1])"

END_TO_END = [("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]


def per_layer_units():
    """Name -> unit of every metric a traced run reports."""
    units = {name: unit for name, unit, _, _ in spans.SPAN_METRICS}
    units.update(dict(spans.COUNT_METRICS))
    units.update({
        "solver.regularized.repeat_ratio": "ratio",
        "harness.solve_points.overlap": "ratio",
        "trace.coverage": "ratio",
        "cli.artifact_bytes": "bytes",
        "trace.overhead_s": "s",
    })
    return units


class Checkout:
    """Paths of one benchmark run inside the checkout it runs from."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_work", "%s-%d-%d" % (
            workload, seed, os.getpid()))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)

    def has_program(self):
        return os.path.isfile(os.path.join(self.src, "balancelab",
                                           "__init__.py"))


def invoke(co, command, config, tag, traced=False):
    """Run one subcommand in a fresh child process and check it.

    Returns a dict with the child's measurements, the artifact hashes and
    a list of problems (empty when the invocation passed)."""
    out_dir = os.path.join(co.work, "out-" + tag)
    result_path = os.path.join(co.work, "result-%s.json" % tag)
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), co.src,
            result_path, "1" if traced else "0", command, config, out_dir]
    problems = []
    try:
        proc = subprocess.run(argv, cwd=co.root, env=co.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": ["timed out after %d s" % CHILD_TIMEOUT_S],
                "out_dir": out_dir}
    if proc.returncode != 0:
        problems.append("exit code %d, expected 0" % proc.returncode)
    if "Traceback" in proc.stderr:
        problems.append("printed a traceback: %s"
                        % proc.stderr.strip().splitlines()[-1])
    inv = {"problems": problems, "out_dir": out_dir, "traced": traced}
    if os.path.isfile(result_path):
        with open(result_path) as fh:
            inv.update(json.load(fh))
    else:
        problems.append("no measurement written")
    if os.path.isdir(out_dir):
        inv["hashes"] = check.artifact_hashes(out_dir)
        inv["bytes"] = check.artifact_bytes(out_dir)
    else:
        problems.append("no artifacts written")
    return inv


def artifact_steps(out_dir):
    """Total n_steps the schedule artifacts record, or None if none do."""
    total = None
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("schedule_") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                summaries = json.load(fh)["summaries"]
            total = (total or 0) + sum(s["n_steps"] for s in summaries)
    return total


def measure_setup(co, config):
    """Median wall time of fresh interpreters importing balancelab and
    loading the config, after one unmeasured warm-up."""
    argv = [sys.executable, "-c", SETUP_PROBE, config]
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=co.root, env=co.env,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s"
                               % proc.stderr.decode(errors="replace"))
        if k:
            times.append(elapsed)
    return times


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_loop(co, command, config, seconds, trace):
    """The closed loop of invocations; with ``trace`` every second one is
    traced, starting untraced."""
    invs = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(invs) % 2 == 1
        invs.append(invoke(co, command, config, str(len(invs)), traced))
        per_side = len(invs) // 2 if trace else len(invs)
        if per_side >= MIN_RUNS and time.perf_counter() >= deadline:
            return invs


def check_invocations(invs, workload, seed):
    """Attach problems for rerun and reference mismatches; returns info
    lines about the reference comparison."""
    first = invs[0]
    info = []
    for inv in invs[1:]:
        if "hashes" in first and inv.get("hashes") != first["hashes"]:
            inv["problems"].append("artifacts differ from the first run")
    index = workloads.input_index(seed)
    ref = check.load_reference(REFERENCES, workload, index)
    if ref is None:
        for inv in invs:
            inv["problems"].append("no reference recorded for input %d"
                                   % index)
    elif "hashes" in first:
        found = check.snapshot(first["out_dir"], first["hashes"])
        ok, identical, why = check.compare(found, ref)
        info.append("reference: numbers %s, bytes %s" % (
            "match within 1e-12 x scale" if ok else "DIFFER (%s)" % why,
            "identical" if identical else "differ"))
        if not ok:
            for inv in invs:
                if inv.get("hashes") == first["hashes"]:
                    inv["problems"].append("numbers differ from reference")
    return info


def check_counts(traced):
    """Counts must repeat exactly and match the artifacts' n_steps."""
    units = per_layer_units()
    counts = [{k: v for k, v in inv.get("layers", {}).items()
               if units[k] == "count"} for inv in traced]
    for inv, c in zip(traced[1:], counts[1:]):
        if c != counts[0]:
            inv["problems"].append("counts differ between traced runs")
    for inv in traced:
        if "layers" not in inv or not os.path.isdir(inv["out_dir"]):
            continue
        steps = artifact_steps(inv["out_dir"])
        if steps is not None and steps != inv["pooled_steps"]:
            inv["problems"].append(
                "traced sweep steps %d != artifact n_steps %d"
                % (inv["pooled_steps"], steps))


def layer_metrics(untraced, traced):
    """Per-layer metrics: counts from the first traced run (check_counts
    has made sure they repeat), times and ratios as medians."""
    metrics = {}
    for name, unit in per_layer_units().items():
        vals = [inv["layers"].get(name) for inv in traced]
        if None in vals:
            continue
        value = vals[0] if unit == "count" else statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
    metrics["cli.artifact_bytes"] = {"value": traced[0]["bytes"],
                                     "unit": "bytes"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(inv["run_s"] for inv in traced)
        - statistics.median(inv["run_s"] for inv in untraced), "unit": "s"}
    return metrics


def summarize(name, unit, values):
    q1, q2, q3 = quartiles(values)
    return "%-15s median %.4f %s  quartiles [%.4f, %.4f]  n=%d  (%s)" % (
        name, q2, unit, q1, q3, len(values),
        " ".join("%.4f" % v for v in values))


def run(co, workload, seed, seconds, trace):
    command, _ = workloads.WORKLOADS[workload]
    os.makedirs(co.work)
    config = workloads.write_config(workload, seed,
                                    os.path.join(co.work, "config.json"))
    lines = ["workload %s seed %d (input %d): balancelab %s, closed loop, "
             "1 client" % (workload, seed, workloads.input_index(seed),
                           command)]
    hyp = workloads.validation_record(config)
    lines.append("validate_spec: " + ", ".join(
        "%s=%s" % (k, "pass" if v else "FAIL") for k, v in hyp.items()))

    setup = measure_setup(co, config)
    invs = run_loop(co, command, config, seconds, trace)
    lines += check_invocations(invs, workload, seed)
    traced = [inv for inv in invs if inv["traced"]]
    if trace:
        check_counts(traced)
    for i, inv in enumerate(invs):
        for p in inv["problems"]:
            lines.append("invocation %d FAILED: %s" % (i, p))
        shutil.rmtree(inv["out_dir"], ignore_errors=True)

    attempted = len(invs)
    failed = sum(1 for inv in invs if inv["problems"])
    lines.append("fail_frac %d/%d" % (failed, attempted))
    measured = [inv for inv in (traced if trace else invs) if "run_s" in inv]
    untraced = [inv for inv in invs if not inv["traced"] and "run_s" in inv]
    metrics = {}
    if measured and untraced and trace:
        metrics = layer_metrics(untraced, measured)
        lines.append(summarize("untraced run_s", "s",
                               [inv["run_s"] for inv in untraced]))
        lines.append(summarize("traced run_s", "s",
                               [inv["run_s"] for inv in measured]))
        lines.append("largest self time: " + ", ".join(
            "%s %.3f s" % (n, s) for n, s in measured[0]["top_self"]))
    elif measured:
        for name, unit in END_TO_END:
            vals = setup if name == "setup_s" else \
                [inv[name] for inv in measured]
            lines.append(summarize(name, unit, vals))
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    for line in lines:
        print(line)
    correct = bool(metrics) and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    co = Checkout(os.getcwd(), args.workload, args.seed)
    if not co.has_program():
        print("no balancelab sources under %s; run from the root of a "
              "checkout" % co.src, file=sys.stderr)
        return 2
    sys.path.insert(0, co.src)
    try:
        result = run(co, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    finally:
        shutil.rmtree(co.work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
