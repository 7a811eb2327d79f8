"""Per-call wall time of the LLF step kernel at several grid sizes.

Usage, from the root of a checkout:

    python3 tools/kernel_timing.py SRC_DIR [--cells 64 512 1024 2048]
        [--calls 200] [--repeats 7]

Imports ``balancelab`` from SRC_DIR and builds the problem of the
converge-riemann benchmark workload at seed 1 (perfbench/workloads.py),
whose solves are mostly this kernel.  For each cell count it solves to
T/4 (the first snapshot of a two-slab run), then times ``numerical_flux``
on that state's interfaces and one whole ``step`` from it: ``--repeats``
blocks of ``--calls`` calls each.  The last line of standard output is one JSON
object mapping each cell count to the median over blocks of the
microseconds per call.  Run it on two source trees in alternation to
compare them on one machine.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (importing it only defines the generators)


def per_call_us(fn, calls, repeats):
    """Median over blocks of the microseconds per call of fn()."""
    blocks = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(blocks)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src")
    p.add_argument("--cells", type=int, nargs="+", default=[64, 512, 1024, 2048])
    p.add_argument("--calls", type=int, default=200)
    p.add_argument("--repeats", type=int, default=7)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from balancelab import load_config
    from balancelab.solver import Grid1D, cfl_dt, regularized, solve, step

    with tempfile.TemporaryDirectory() as work:
        config = workloads.write_config("converge-riemann", 1,
                                        os.path.join(work, "config.json"))
        spec = load_config(config).problem
    out = {}
    for n in args.cells:
        grid = Grid1D(spec.x_lo, spec.x_hi, n)
        reg = regularized(spec, grid)
        run = solve(spec, grid, snapshots=2, reg=reg)
        u, v = run.U[0], run.V[0]
        u_ext = np.pad(u, 1)
        dt = cfl_dt(u, reg)
        out[str(n)] = {
            "numerical_flux_us": per_call_us(
                lambda: reg.numerical_flux(u_ext[:-1], u_ext[1:]),
                args.calls, args.repeats),
            "step_us": per_call_us(lambda: step(u, v, dt, 0.0, reg),
                                   args.calls, args.repeats),
        }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
