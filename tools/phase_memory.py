"""Where one benchmark workload's memory goes, layer by layer.

Usage, from the root of a checkout:

    python3 tools/phase_memory.py SRC_DIR --workload verify-smooth [--seed 1]

Imports ``balancelab`` from SRC_DIR and runs the workload's subcommand, in
this process, on the config that perfbench/workloads.py writes for the
seed.  Every function that perfbench/spans.py lists in ``LAYERS`` is
wrapped, in every namespace that binds it, as the benchmark's tracer wraps
it.  Per span name it reports:

  * ``calls``          the number of calls;
  * ``peak_mb``        the largest tracemalloc peak of one call, above the
                       memory traced when that call began;
  * ``held_mb``        the most that one call leaves traced when it
                       returns, its result included;
  * ``maxrss_rise_mb`` how far its calls raised ru_maxrss, summed;
  * ``maxrss_mb``      ru_maxrss when its last call returned.

Spans nest: a call's figures include those of the layers it calls, and a
``solve_points`` worker's calls nest under the ``solve_points`` call that
waits for them (the pool has one worker).  tracemalloc starts after the
import, so the ``total`` figures leave out the interpreter and numpy; its
own trace storage counts in ru_maxrss, so compare two trees with this tool
on both, not against ``perfbench/run.py``.  balancelab loads before numpy
(which perfbench/spans.py imports), so the run has the BLAS thread count
that the CLI sets.  One line per span name is printed, by peak; the last
line of standard output is one JSON object.
"""

import argparse
import functools
import json
import math
import os
import resource
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (importing it only defines the generators)

MB = 1024.0 * 1024.0


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class MemoryRecorder:
    """Wrappers for the benchmark tracer's install and uninstall that
    record tracemalloc and ru_maxrss figures in place of spans; ``main``
    mixes it into ``spans.Tracer`` once balancelab is loaded."""

    def __init__(self):
        super().__init__()
        self.layers = {}
        # one frame per open call: [traced at entry, largest traced since]
        self.frames = []

    def wrap(self, fn, name, hook):
        tracer = self

        def measured(*args, **kwargs):
            tracer.enter()
            rss0 = maxrss_mb()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(name, rss0)

        return functools.wraps(fn)(measured)

    def enter(self):
        current, peak = tracemalloc.get_traced_memory()
        if self.frames:
            # reset_peak drops the caller's running peak; keep it here
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        tracemalloc.reset_peak()
        self.frames.append([current, current])

    def close(self):
        """(traced now, largest traced) above the entry of the last open
        call, which closes."""
        current, peak = tracemalloc.get_traced_memory()
        start, running = self.frames.pop()
        peak = max(peak, running)
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        return current - start, peak - start

    def leave(self, name, rss0):
        held, peak = self.close()
        rss = maxrss_mb()
        rec = self.layers.setdefault(name, {"calls": 0, "peak_mb": 0.0, "held_mb": -math.inf,
                                            "maxrss_rise_mb": 0.0, "maxrss_mb": 0.0})
        rec["calls"] += 1
        rec["peak_mb"] = max(rec["peak_mb"], peak / MB)
        rec["held_mb"] = max(rec["held_mb"], held / MB)
        rec["maxrss_rise_mb"] += rss - rss0
        rec["maxrss_mb"] = rss


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", help="directory that holds the balancelab package")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import balancelab.cli
    import spans  # after balancelab, which sets the BLAS thread count

    class MemoryTracer(MemoryRecorder, spans.Tracer):
        pass

    command, _ = workloads.WORKLOADS[args.workload]
    tracer = MemoryTracer()
    tracer.install()
    with tempfile.TemporaryDirectory() as work:
        config = workloads.write_config(args.workload, args.seed,
                                        os.path.join(work, "config.json"))
        tracemalloc.start()
        tracer.enter()  # the whole run, as the outermost call
        t0 = time.perf_counter()
        try:
            rc = balancelab.cli.main([command, "--config", config, "--out",
                                      os.path.join(work, "out"), "--quiet"])
            current, peak = tracer.close()
        finally:
            wall = time.perf_counter() - t0
            tracemalloc.stop()
            tracer.uninstall()
    layers = {name: {k: round(v, 3) for k, v in rec.items()}
              for name, rec in sorted(tracer.layers.items())}
    for name, rec in sorted(layers.items(), key=lambda kv: -kv[1]["peak_mb"]):
        print("%-36s calls %5d  peak %8.3f MB  held %8.3f MB  maxrss +%7.3f -> %7.2f MB"
              % (name, rec["calls"], rec["peak_mb"], rec["held_mb"],
                 rec["maxrss_rise_mb"], rec["maxrss_mb"]))
    total = {"traced_peak_mb": round(peak / MB, 3), "traced_current_mb": round(current / MB, 3),
             "maxrss_mb": round(maxrss_mb(), 3), "wall_s": round(wall, 3)}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "command": command,
                      "rc": rc, "total": total, "layers": layers}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
