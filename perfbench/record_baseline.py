"""Measure and record the benchmark's baseline in perfbench/baseline.json.

Usage, from the root of a checkout:

    python3 perfbench/record_baseline.py

Runs perfbench/run.py exactly as BENCHMARK.json specifies, once per seed
of BASELINE_SEEDS and workload with ``--trace 0``, then once per workload
with ``--trace 1`` at the first seed.  For each end-to-end metric it records the median of
the per-run medians, their quartiles (``statistics.quantiles(n=4)``) and
the spread, the interquartile distance as a share of the median, next to
the metric's bound.  The file also holds the machine header, the traced
per-layer numbers and the table of which layer should move which metric.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH_DIR, "baseline.json")
BASELINE_SEEDS = range(1, 11)

# layer -> (end-to-end metric it should move, workloads that bypass it)
LAYER_TABLE = {
    "config": ("setup_s, and run_s everywhere", "none"),
    "flux": ("run_s on verify-smooth", "small everywhere"),
    "monotone": ("run_s and peak_rss_mb on verify-smooth",
                 "converge-riemann, ym-ensemble"),
    "solver": ("run_s and cpu_s on converge-riemann", "verify-smooth"),
    "harness": ("cpu_s and run_s on converge-riemann and ym-ensemble",
                "verify-smooth"),
    "entropy": ("run_s and peak_rss_mb on verify-smooth",
                "converge-riemann, ym-ensemble"),
    "measures": ("run_s and cpu_s on ym-ensemble",
                 "converge-riemann, verify-smooth"),
    "cli": ("run_s on ym-ensemble (young_measure.json)", "none"),
    "trace": ("none: the cost of tracing itself", "none"),
}


def bench_run(spec, workload, seed, trace):
    argv = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d is not correct:\n%s"
                         % (workload, seed, proc.stdout))
    return result, lines[:-1]


def summary(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound, "runs": values}


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seeds = list(BASELINE_SEEDS)
    out = {"machine": machine(), "run_seconds": spec["run_seconds"],
           "seeds": seeds, "workloads": {}, "layers": []}
    for w in spec["workloads"]:
        name = w["name"]
        values, attempted, failed = {}, 0, 0
        for seed in seeds:
            result, _ = bench_run(spec, name, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.4f" % (k, v["value"])
                for k, v in sorted(result["metrics"].items()))), flush=True)
        traced, info = bench_run(spec, name, seeds[0], 1)
        end_to_end = {m["name"]: summary(values[m["name"]], m["bound"])
                      for m in spec["end_to_end"]}
        for metric, s in end_to_end.items():
            print("%s %-12s median %.4f spread %.4f (bound %.2f)" % (
                name, metric, s["median"], s["spread"], s["bound"]),
                flush=True)
        out["workloads"][name] = {
            "why": w["why"],
            "fail_frac": "%d/%d" % (failed, attempted),
            "end_to_end": end_to_end,
            "validate_spec": next(i for i in info
                                  if i.startswith("validate_spec")),
            "largest_self_time": next(i for i in info
                                      if i.startswith("largest self")),
            "per_layer": {k: v["value"]
                          for k, v in sorted(traced["metrics"].items())},
        }
    for layer, (moves, bypassed) in LAYER_TABLE.items():
        out["layers"].append({
            "layer": layer,
            "metrics": [m["name"] for m in spec["per_layer"]
                        if m["name"].split(".")[0] == layer],
            "moves": moves, "bypassed": bypassed})
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
