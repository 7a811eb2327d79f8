"""Run configuration: one JSON file describing an archivable experiment.

A RunConfig bundles the problem description with everything a command
needs to reproduce its outputs bit for bit: grid sizes, snapshot count,
the level-sample policy, the test-function battery geometry, the three
parameter schedules, the output directory, and per-command options.  All
numerics live in the config file; command-line flags only carry paths and
verbosity.  Parsing is strict (unknown keys are errors) and parse ->
serialize -> parse is the identity.
"""

from __future__ import annotations

import copy
import dataclasses
import json

from .problem import ProblemSpec


class ConfigError(ValueError):
    """Invalid run configuration; commands map this to exit code 2."""


_TOP_KEYS = {"problem", "grid_sizes", "snapshots", "k_policy", "battery",
             "schedules", "out_dir", "options"}
_K_KEYS = {"n", "pad"}
_BATTERY_KEYS = {"t_fracs", "x_fracs", "radius_fracs"}
_SCHEDULE_KEYS = {"j", "ell", "m", "ell_fixed", "m_fixed"}

DEFAULT_K_POLICY = {"n": 33, "pad": 0.5}
DEFAULT_BATTERY = {"t_fracs": [0.3, 0.5, 0.7],
                   "x_fracs": [0.3, 0.5, 0.7],
                   "radius_fracs": [0.15, 0.25]}
DEFAULT_SCHEDULES = {"j": [4, 8, 16, 32, 64],
                     "ell": [1.0, 2.0, 4.0, 8.0],
                     "m": [1.0, 2.0, 4.0, 8.0],
                     "ell_fixed": 1.0,
                     "m_fixed": 1.0}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _check_fracs(name, vals):
    _require(isinstance(vals, (list, tuple)) and len(vals) >= 1,
             f"battery.{name} must be a nonempty list")
    for v in vals:
        _require(isinstance(v, (int, float)) and 0.0 < float(v) < 1.0,
                 f"battery.{name} entries must lie strictly in (0, 1)")
    return [float(v) for v in vals]


def _check_schedule(name, vals, integral=False):
    _require(isinstance(vals, (list, tuple)) and len(vals) >= 1,
             f"schedules.{name} must be a nonempty list")
    out = []
    for v in vals:
        _require(isinstance(v, (int, float)), f"schedules.{name} entries must be numbers")
        if integral:
            _require(float(v) == int(v) and v >= 1,
                     f"schedules.{name} entries must be integers >= 1")
            out.append(int(v))
        else:
            _require(float(v) >= 1.0, f"schedules.{name} entries must be >= 1")
            out.append(float(v))
    _require(all(a < b for a, b in zip(out, out[1:])),
             f"schedules.{name} must be strictly increasing")
    return out


@dataclasses.dataclass
class RunConfig:
    problem: ProblemSpec
    grid_sizes: list
    snapshots: int = 8
    k_policy: dict = dataclasses.field(default_factory=lambda: dict(DEFAULT_K_POLICY))
    battery: dict = dataclasses.field(default_factory=lambda: copy.deepcopy(DEFAULT_BATTERY))
    schedules: dict = dataclasses.field(default_factory=lambda: copy.deepcopy(DEFAULT_SCHEDULES))
    out_dir: str = "out"
    options: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        _require(isinstance(self.grid_sizes, (list, tuple)) and len(self.grid_sizes) >= 1,
                 "grid_sizes must be a nonempty list")
        sizes = []
        for n in self.grid_sizes:
            _require(isinstance(n, (int, float)) and float(n) == int(n) and int(n) >= 4,
                     "grid_sizes entries must be integers >= 4")
            sizes.append(int(n))
        self.grid_sizes = sizes
        _require(isinstance(self.snapshots, int) and self.snapshots >= 1,
                 "snapshots must be an integer >= 1")

        k = dict(DEFAULT_K_POLICY)
        _require(set(self.k_policy) <= _K_KEYS,
                 f"unknown k_policy keys {sorted(set(self.k_policy) - _K_KEYS)}")
        k.update(self.k_policy)
        _require(isinstance(k["n"], int) and k["n"] >= 2, "k_policy.n must be an integer >= 2")
        _require(isinstance(k["pad"], (int, float)) and float(k["pad"]) >= 0.0,
                 "k_policy.pad must be nonnegative")
        k["pad"] = float(k["pad"])
        self.k_policy = k

        b = copy.deepcopy(DEFAULT_BATTERY)
        _require(set(self.battery) <= _BATTERY_KEYS,
                 f"unknown battery keys {sorted(set(self.battery) - _BATTERY_KEYS)}")
        b.update(self.battery)
        self.battery = {name: _check_fracs(name, b[name]) for name in
                        ("t_fracs", "x_fracs", "radius_fracs")}

        s = copy.deepcopy(DEFAULT_SCHEDULES)
        _require(set(self.schedules) <= _SCHEDULE_KEYS,
                 f"unknown schedules keys {sorted(set(self.schedules) - _SCHEDULE_KEYS)}")
        s.update(self.schedules)
        self.schedules = {
            "j": _check_schedule("j", s["j"], integral=True),
            "ell": _check_schedule("ell", s["ell"]),
            "m": _check_schedule("m", s["m"]),
            "ell_fixed": float(s["ell_fixed"]),
            "m_fixed": float(s["m_fixed"]),
        }
        _require(self.schedules["ell_fixed"] >= 1.0 and self.schedules["m_fixed"] >= 1.0,
                 "schedules.ell_fixed and m_fixed must be >= 1")

        _require(isinstance(self.out_dir, str) and self.out_dir,
                 "out_dir must be a nonempty string")
        _require(isinstance(self.options, dict), "options must be an object")

    def to_dict(self):
        return {
            "problem": self.problem.to_dict(),
            "grid_sizes": list(self.grid_sizes),
            "snapshots": self.snapshots,
            "k_policy": dict(self.k_policy),
            "battery": {k: list(v) for k, v in self.battery.items()},
            "schedules": {k: (list(v) if isinstance(v, list) else v)
                          for k, v in self.schedules.items()},
            "out_dir": self.out_dir,
            "options": dict(self.options),
        }

    @staticmethod
    def from_dict(d):
        _require(isinstance(d, dict), "config must be a JSON object")
        unknown = set(d) - _TOP_KEYS
        _require(not unknown, f"unknown config keys {sorted(unknown)}")
        _require("problem" in d, "config needs a 'problem' section")
        _require("grid_sizes" in d, "config needs 'grid_sizes'")
        try:
            problem = ProblemSpec.from_dict(d["problem"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"problem section is malformed: {exc!r}") from exc
        except ValueError as exc:
            raise ConfigError(f"problem section invalid: {exc}") from exc
        return RunConfig(
            problem=problem,
            grid_sizes=d["grid_sizes"],
            snapshots=d.get("snapshots", 8),
            k_policy=dict(d.get("k_policy", {})),
            battery=dict(d.get("battery", {})),
            schedules=dict(d.get("schedules", {})),
            out_dir=d.get("out_dir", "out"),
            options=dict(d.get("options", {})),
        )


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


def write_json(payload, path):
    """The one JSON artifact format: sorted keys, two-space indent and a
    trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_config(cfg, path):
    write_json(cfg.to_dict(), path)

