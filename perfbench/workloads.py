"""Seeded generators of the benchmark's run configurations.

Each workload is one balancelab subcommand on one family of inputs.  The
seed picks the free parameters from ranges fixed here; the program only
ever sees the config file written from them.  Ranges that drive the cost
of a run (amplitudes, source strength) are kept narrow so that different
seeds cost about the same, while placement parameters (positions, skew,
phase) range widely so that the numbers differ from seed to seed.

Each workload has a family of N_INPUTS inputs, and a seed picks the input
``seed % N_INPUTS``.  Any N_INPUTS consecutive seeds give N_INPUTS
different inputs, and every seed's outputs can be checked against the
reference recorded for its input (perfbench/record_references.py).
"""

import json
import random

N_INPUTS = 10

# Burgers flux A(v) = v^2 / 2 sampled on the shipped 257-point grid of
# [-4, 4]; every sample is a dyadic rational, so the file is exact.
_FLUX_SAMPLES = [[-4.0 + k / 32.0, 0.5 * (-4.0 + k / 32.0) ** 2]
                 for k in range(257)]
_IDENTITY_GRAPH = {"breakpoints": [], "jumps": [], "slopes": [],
                   "tail_slopes": [1.0, 1.0]}
_BATTERY = {"t_fracs": [0.3, 0.5, 0.7], "x_fracs": [0.3, 0.5, 0.7],
            "radius_fracs": [0.15, 0.25]}
_SCHEDULES = {"j": [4, 8, 16, 32, 64], "ell": [1.0, 2.0, 4.0, 8.0],
              "m": [1.0, 2.0, 4.0, 8.0], "ell_fixed": 1.0, "m_fixed": 1.0}


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _problem(T, coeff, source, u0, ell="inf", m="inf"):
    return {
        "domain": {"x_lo": -2.0, "x_hi": 2.0, "T": T, "pad": 0.0},
        "theta": {"graph": dict(_IDENTITY_GRAPH), "coeff": coeff},
        "flux": {"curve": {"samples": _FLUX_SAMPLES, "jumps": []},
                 "gap_slope": 1.0},
        "source": source,
        "u0": u0,
        "indices": {"j": 16, "ell": ell, "m": m},
        "sample_radius": 2.0,
    }


def _config(problem, grid_sizes):
    return {
        "problem": problem,
        "grid_sizes": grid_sizes,
        "snapshots": 64,
        "k_policy": {"n": 33, "pad": 0.5},
        "battery": _BATTERY,
        "schedules": _SCHEDULES,
        "out_dir": "out",
        "options": {},
    }


def _ym_ensemble(rng):
    # arctan_damped shape: a two-lobe datum under finite arctan damping,
    # pooled over the 5-member j ensemble of the default schedule.
    u0 = {"id": "twolobe", "params": {
        "height": _draw(rng, 0.85, 0.9),
        "a": _draw(rng, -1.6, -1.4),
        "b": _draw(rng, 1.4, 1.6),
        "skew": _draw(rng, 0.6, 0.9),
    }}
    source = {"id": "arctan", "params": {"c": _draw(rng, 0.9, 1.1)}}
    problem = _problem(0.5, {"kind": "const"}, source, u0, ell=2.0, m=2.0)
    return _config(problem, [64])


def _converge_riemann(rng):
    # burgers_riemann shape: a box datum, constant coefficient, no source.
    a = _draw(rng, -1.2, -0.8)
    u0 = {"id": "box", "params": {
        "height": _draw(rng, 0.99, 1.01),
        "a": a,
        "b": _draw(rng, a + 1.2, a + 1.6),
    }}
    problem = _problem(0.5, {"kind": "const"}, {"id": "zero", "params": {}},
                       u0)
    return _config(problem, [512, 1024, 2048])


def _verify_smooth(rng):
    # het_smooth_coeff shape: a smooth bump under a smooth x-dependent
    # coefficient a + b sin(k x + phase) with a > |b|.
    a = _draw(rng, 0.95, 1.05)
    coeff = {"kind": "smooth", "a": a, "b": _draw(rng, -0.35, 0.35),
             "k": _draw(rng, 0.5, 1.5), "phase": _draw(rng, 0.0, 6.283185)}
    u0 = {"id": "bump", "params": {
        "height": _draw(rng, 0.75, 0.85),
        "a": _draw(rng, -1.3, -1.1),
        "b": _draw(rng, 1.1, 1.3),
    }}
    problem = _problem(0.25, coeff, {"id": "zero", "params": {}}, u0)
    return _config(problem, [1024])


# name -> (subcommand, generator)
WORKLOADS = {
    "ym-ensemble": ("ym", _ym_ensemble),
    "converge-riemann": ("converge", _converge_riemann),
    "verify-smooth": ("verify", _verify_smooth),
}


def input_index(seed):
    """The input of a workload's family that a seed picks."""
    return seed % N_INPUTS


def make_config(workload, seed):
    """The config dict of one workload at one seed."""
    _, gen = WORKLOADS[workload]
    return gen(random.Random("%s/%d" % (workload, input_index(seed))))


def config_text(workload, seed):
    """The exact bytes written for one workload at one seed."""
    return json.dumps(make_config(workload, seed), indent=2,
                      sort_keys=True) + "\n"


def write_config(workload, seed, path):
    with open(path, "w") as fh:
        fh.write(config_text(workload, seed))
    return path


def validation_record(path):
    """``validate_spec`` of the generated problem: which of the paper's
    hypotheses the input satisfies, by check name."""
    from balancelab import load_config, validate_spec
    report = validate_spec(load_config(path).problem)
    return {c.name: bool(c.passed) for c in report.checks}
