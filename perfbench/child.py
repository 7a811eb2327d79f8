"""One timed subcommand invocation, run in its own process by run.py.

Usage: child.py SRC_DIR RESULT_JSON TRACE SUBCOMMAND CONFIG OUT_DIR

Imports balancelab from SRC_DIR, optionally installs the tracer, times
``balancelab.cli.main`` and writes wall time, CPU time (user plus system,
all threads), peak resident memory and, when traced, the per-layer
metrics to RESULT_JSON.  The process exits with main's return code, and
an uncaught exception prints its traceback as usual.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    src, result_path, traced, command, config, out_dir = argv
    import balancelab.cli
    if not os.path.abspath(balancelab.__file__).startswith(
            os.path.abspath(src) + os.sep):
        print("balancelab imported from %s, not %s" % (balancelab.__file__,
                                                       src), file=sys.stderr)
        return 2
    tracer = None
    if traced == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        rc = balancelab.cli.main([command, "--config", config, "--out",
                                  out_dir, "--quiet"])
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "run_s": t1 - t0,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = {k: v for k, (v, _) in
                            tracer.metrics(t0, t1).items()}
        result["pooled_steps"] = tracer.counts.get("solver.pooled_steps", 0)
        result["top_self"] = tracer.top_self()[:5]
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
