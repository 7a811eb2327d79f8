"""Per-call wall time of the LLF step, cfl_dt and MeasureContext by grid size.

Usage, from the root of a checkout:

    python3 tools/kernel_timing.py SRC_DIR [--cells 64 512 1024 2048]
        [--calls 200] [--repeats 7]
        [--workload {converge-riemann,verify-smooth,ym-ensemble}]

Imports ``balancelab`` from SRC_DIR and builds the problem of one
benchmark workload at seed 1 (perfbench/workloads.py): converge-riemann
by default, whose solves are mostly this kernel on one-row flux tables, or
verify-smooth, whose x-dependent coefficient gives one flux-table row per
interface, or ym-ensemble, whose arctan source with finite l and m puts
the source and its theta_j on every step; on its 64 cells each call's
fixed cost is most of its time.  For each cell count it solves to
T/4 (the first snapshot of a two-slab run), then times ``numerical_flux``
on that state's interfaces, one whole ``step`` from it and ``cfl_dt`` on
it (the max |slope| over the state's range on every flux-table row):
``--repeats`` blocks of ``--calls`` calls each.  For ym-ensemble it also
solves the workload's j ensemble once per cell count, estimates its Young
measure as ``ym`` does and times the construction of
``MeasureContext(ym, regs[-1])`` (``measure_context``).  The last line
of standard output is one JSON object mapping each cell count to the median
(``*_us``) and the minimum (``*_min_us``) over blocks of the microseconds
per call.  Other tenants' load only ever adds time, so the minimum
separates two trees where the median cannot.  Run it on two source trees in alternation to compare them
on one machine.  balancelab loads before numpy, so the kernels run with
the BLAS thread count that the CLI sets.
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (importing it only defines the generators)


def per_call_us(fn, calls, repeats):
    """Median and minimum over blocks of the microseconds per call of fn()."""
    blocks = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(blocks), min(blocks)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src")
    p.add_argument("--cells", type=int, nargs="+", default=[64, 512, 1024, 2048])
    p.add_argument("--calls", type=int, default=200)
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--workload",
                   choices=["converge-riemann", "verify-smooth", "ym-ensemble"],
                   default="converge-riemann")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from balancelab import load_config
    from balancelab.harness import solve_points
    from balancelab.measures import MeasureContext, estimate_young_measure
    from balancelab.solver import Grid1D, cfl_dt, regularized, solve, step
    import numpy as np  # after balancelab, which sets the BLAS thread count

    with tempfile.TemporaryDirectory() as work:
        config = workloads.write_config(args.workload, 1,
                                        os.path.join(work, "config.json"))
        cfg = load_config(config)
    spec = cfg.problem
    out = {}
    for n in args.cells:
        grid = Grid1D(spec.x_lo, spec.x_hi, n)
        reg = regularized(spec, grid)
        run = solve(spec, grid, snapshots=2, reg=reg)
        u = run.U[0]
        u_ext = np.pad(u, 1)
        dt = cfl_dt(u, reg)
        kernels = {
            "numerical_flux": lambda: reg.numerical_flux(u_ext[:-1], u_ext[1:]),
            "step": lambda: step(u, dt, 0.0, reg),
            "cfl_dt": lambda: cfl_dt(u, reg),
        }
        if args.workload == "ym-ensemble":
            specs = [dataclasses.replace(spec, j=j) for j in cfg.schedules["j"]]
            runs, _, regs = solve_points(specs, grid, snapshots=cfg.snapshots)
            ym = estimate_young_measure(runs)
            kernels["measure_context"] = lambda: MeasureContext(ym, regs[-1])
        out[str(n)] = {}
        for name, fn in kernels.items():
            median, least = per_call_us(fn, args.calls, args.repeats)
            out[str(n)].update({name + "_us": median, name + "_min_us": least})
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
