"""Command line front end for the balance-law laboratory.

Five subcommands share one JSON run-configuration format (see
``docs/formats.md``):

* ``solve``        integrate one problem and dump snapshots
* ``verify``       entropy battery plus a two-solution contraction check
* ``converge``     perturbation-index sweeps and a self-convergence order
* ``ym``           Young-measure estimate over a regularization ensemble
* ``parametrize``  sampled plateau-filling reparametrization of the flux

Exit codes: 0 success, 1 a checked property failed, 2 configuration error,
3 a test function or window is unresolved at the grid resolution, 4 the
evolution produced a non-finite state.  Exit codes 2 to 4 print one JSON
object ``{"error": kind, "message": ...}`` on stderr.  All outputs are
deterministic; rerunning a command reproduces each artifact bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config, write_json
from .entropy import (FORMS, ResidualEvaluator, ResolutionError,
                      battery_from_geometry, k_samples, l1_distance_curve,
                      pair_gap_battery)
from .flux import build_parametrization
from .harness import (check_grid_triple, scheme_tol, self_convergence_order,
                      solve_points, sweep)
from .measures import (MeasureContext, default_support_radius,
                       estimate_young_measure, mv_residual_table,
                       support_and_trace_check, write_mv_table_csv)
from .problem import json_number, u0_params
from .solver import Grid1D, SolverError, run_to_csv, solve

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------


def _write_json(payload, path):
    write_json(payload, path)


def _emit_error(kind, message):
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _info(quiet, message):
    if not quiet:
        print(message)


def _grid(cfg):
    return Grid1D(cfg.problem.x_lo, cfg.problem.x_hi, cfg.grid_sizes[0])


def _battery(cfg):
    return battery_from_geometry(cfg.problem, **cfg.battery)


def _scaled_u0(u0, scale):
    """The same initial-datum shape with its amplitude multiplied."""
    uid = u0.get("id", "zero")
    params = dict(u0.get("params", {}))
    if uid == "zero":
        return {"id": "zero", "params": {}}
    key = "value" if uid == "constant" else "height"
    params[key] = float(u0_params(u0)[key]) * float(scale)
    return {"id": uid, "params": params}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(cfg, out_dir, quiet):
    grid = _grid(cfg)
    result = solve(cfg.problem, grid, snapshots=cfg.snapshots)
    csv_path = os.path.join(out_dir, "snapshots.csv")
    run_to_csv(result, csv_path)
    _write_json({"config": cfg.to_dict(), "metadata": result.metadata()},
                os.path.join(out_dir, "run.json"))
    _info(quiet, "solve: %d cells, %d steps, final t = %.6g" % (
        grid.n_cells, result.n_steps, result.final_t))
    _info(quiet, "solve: wrote %s" % csv_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg, out_dir, quiet):
    spec = cfg.problem
    grid = _grid(cfg)
    psis = _battery(cfg)

    # A partner with the same operator but a rescaled datum, on one shared
    # step so snapshots align; the entropy battery uses the pair's first run.
    scale = float(cfg.options.get("partner_scale", 0.5))
    partner = dataclasses.replace(spec, u0=_scaled_u0(spec.u0, scale))
    (run1, run2), _, (reg, reg2) = solve_points([spec, partner], grid,
                                                cfg.snapshots)

    evaluator = ResidualEvaluator(run1, reg)

    forms = [f for f in FORMS if f != "N1" or spec.smooth_in_x]
    kp = cfg.k_policy
    ks_v = k_samples(run1.V, reg, n=kp["n"], space="v", pad=kp["pad"])
    ks = {form: ks_v for form in forms}
    if "N1" in ks:
        ks["N1"] = k_samples(run1.U, reg, n=kp["n"], space="u", pad=kp["pad"])
    report = evaluator.battery_report(forms, ks, psis)
    report.write_json(os.path.join(out_dir, "entropy_report.json"))
    report.write_csv(os.path.join(out_dir, "entropy_report.csv"))

    tol = scheme_tol(grid.dx, run1.V)
    minima = report.minima()
    entropy_ok = all(m >= -tol for m in minima.values())
    for form in forms:
        _info(quiet, "verify: %-10s min residual % .3e (tol %.3e)" % (
            form, minima[form], tol))

    times, dists = l1_distance_curve(run1, run2)
    slack = 1e-12 * max(1, run1.n_steps)
    growth = float(np.max(np.diff(dists))) if len(dists) > 1 else 0.0
    curve_ok = growth <= slack
    gaps = pair_gap_battery("CONTRACTION", evaluator,
                            ResidualEvaluator(run2, reg2), psis)
    gap_min = float(np.min(gaps)) if len(gaps) else 0.0
    pair_ok = curve_ok and gap_min >= -tol
    _write_json({
        "partner_scale": scale,
        "distance_times": [float(t) for t in times],
        "distance_values": [float(d) for d in dists],
        "max_step_growth": growth,
        "growth_slack": slack,
        "contraction_gaps": [float(g) for g in gaps],
        "min_gap": gap_min,
        "tolerance": tol,
        "curve_nonincreasing": curve_ok,
        "gaps_nonnegative": gap_min >= -tol,
    }, os.path.join(out_dir, "pair_check.json"))
    _info(quiet, "verify: distance curve max step growth % .3e (slack %.3e)"
          % (growth, slack))
    _info(quiet, "verify: min contraction gap % .3e (tol %.3e)" % (gap_min,
                                                                   tol))

    ok = entropy_ok and pair_ok
    _info(quiet, "verify: %s" % ("all checks passed" if ok
                                 else "PROPERTY VIOLATION"))
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def cmd_converge(cfg, out_dir, quiet):
    spec = cfg.problem
    grid = _grid(cfg)
    sizes = cfg.grid_sizes
    if len(sizes) >= 3:
        triple = [int(n) for n in sizes[:3]]
    else:
        triple = [int(sizes[0]), 2 * int(sizes[0]), 4 * int(sizes[0])]
    grids = [Grid1D(spec.x_lo, spec.x_hi, n) for n in triple]
    check_grid_triple(grids)

    sch = cfg.schedules
    held = {"m": dataclasses.replace(spec, ell=sch["ell_fixed"]),
            "ell": dataclasses.replace(spec, m=sch["m_fixed"]),
            "j": spec}
    # all sweeps run before any report is written (no partial artifacts)
    reports = {kind: sweep(kind, base, grid, sch[kind], snapshots=cfg.snapshots)
               for kind, base in held.items()}
    ok = True
    for kind, rep in reports.items():
        rep.write_json(os.path.join(out_dir, "schedule_%s.json" % kind))
        rep.write_csv(os.path.join(out_dir, "schedule_%s.csv" % kind))
        _info(quiet, "converge: %-3s sweep max violation %.3e (tol %.3e)" % (
            kind, rep.max_violation, rep.tolerance))
        if kind in ("m", "ell") and rep.max_violation > rep.tolerance:
            ok = False

    order = self_convergence_order(spec, grids, snapshots=cfg.snapshots)
    _write_json({"grids": triple, "order": json_number(order)},
                os.path.join(out_dir, "convergence.json"))
    with open(os.path.join(out_dir, "convergence.csv"), "w") as fh:
        fh.write("n_coarse,n_mid,n_fine,order\n")
        fh.write("%d,%d,%d,%r\n" % (triple[0], triple[1], triple[2], order))
    _info(quiet, "converge: self-convergence order %r on grids %s" % (
        order, triple))
    _info(quiet, "converge: %s" % ("ordering holds" if ok
                                   else "ORDERING VIOLATION"))
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# ym
# ---------------------------------------------------------------------------


def cmd_ym(cfg, out_dir, quiet):
    spec = cfg.problem
    grid = _grid(cfg)
    js = [int(j) for j in cfg.schedules["j"]]
    specs = [dataclasses.replace(spec, j=j) for j in js]
    runs, _, regs = solve_points(specs, grid, snapshots=cfg.snapshots)

    opts = cfg.options
    macro = tuple(int(v) for v in opts.get("macro", (8, 8)))
    merge_tol = float(opts.get("merge_tol", 1e-9))
    ym = estimate_young_measure(runs, macro=macro, merge_tol=merge_tol)
    ym.write_json(os.path.join(out_dir, "young_measure.json"))

    reg = regs[-1]
    kp = cfg.k_policy
    mus = k_samples(ym.values, reg, n=kp["n"], space="v", pad=kp["pad"])
    psis = _battery(cfg)
    ctx = MeasureContext(ym, reg)
    rows = mv_residual_table(ctx, mus, psis,
                             gamma=float(opts.get("gamma", 0.0)))
    write_mv_table_csv(rows, os.path.join(out_dir, "mv_residuals.csv"))

    radius = float(opts.get("support_radius", default_support_radius(ym)))
    u0_values = spec.initial_values(grid.centers, grid.dx)
    check = support_and_trace_check(ctx, radius, u0_values)
    check["radius"] = radius
    _write_json(check, os.path.join(out_dir, "support_check.json"))

    tol = scheme_tol(grid.dx, ym.values)
    res_min = min(r[3] for r in rows) if rows else 0.0
    ok = res_min >= -tol and check["support_ok"]
    max_atoms = int(np.diff(ym.offsets).max())
    _info(quiet, "ym: %d ensemble members, %d x %d blocks, "
          "max atoms per block %d" % (len(runs), ym.n_t_blocks,
                                      ym.n_x_blocks, max_atoms))
    _info(quiet, "ym: min residual % .3e (tol %.3e), support %s" % (
        res_min, tol, "ok" if check["support_ok"] else "VIOLATED"))
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parametrize
# ---------------------------------------------------------------------------


def cmd_parametrize(cfg, out_dir, quiet):
    spec = cfg.problem
    par = build_parametrization(spec.flux, spec.gap_slope)
    plateaus = par.plateaus
    s_lo, _ = par.inverse.value_interval(spec.flux.xs[0])
    _, s_hi = par.inverse.value_interval(spec.flux.xs[-1])
    n = int(cfg.options.get("n_samples", 257))
    csv_path = os.path.join(out_dir, "parametrization.csv")
    par.export_csv(csv_path, s_lo, s_hi, n=n)
    _write_json({
        "gap_slope": par.gap_slope,
        "plateaus": [list(p) for p in plateaus],
        "s_lo": s_lo,
        "s_hi": s_hi,
        "n_samples": n,
    }, os.path.join(out_dir, "parametrization.json"))
    _info(quiet, "parametrize: %d plateaus, s in [%.6g, %.6g], wrote %s" % (
        len(plateaus), s_lo, s_hi, csv_path))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "converge": cmd_converge,
    "ym": cmd_ym,
    "parametrize": cmd_parametrize,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="balancelab",
        description="Solve 1D balance laws and verify entropy, contraction, "
                    "and convergence properties.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True,
                       help="path of the JSON run configuration")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational output")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    out_dir = args.out if args.out is not None else cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        _emit_error("config", "cannot create output directory: %s" % exc)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, out_dir, args.quiet)
    except ResolutionError as exc:
        _emit_error("resolution", str(exc))
        return EXIT_RESOLUTION
    except SolverError as exc:
        _emit_error("numerical", str(exc))
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError included
        _emit_error("config", str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
