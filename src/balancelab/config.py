"""Run configuration: one JSON file describing an archivable experiment.

A RunConfig bundles the problem description with everything a command
needs to reproduce its outputs bit for bit: grid sizes, snapshot count,
the level-sample policy, the test-function battery geometry, the three
parameter schedules, the output directory, and per-command options.  All
numerics live in the config file; command-line flags only carry paths and
verbosity.  Parsing is strict (unknown keys are errors, and numbers are
JSON numbers) and parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from itertools import repeat
from json.encoder import encode_basestring_ascii

from .problem import ProblemSpec, check_keys, check_values


class ConfigError(ValueError):
    """Invalid run configuration; commands map this to exit code 2."""


_TOP_KEYS = {"problem", "grid_sizes", "snapshots", "k_policy", "battery",
             "schedules", "out_dir", "options"}
_K_KEYS = {"n", "pad"}
_BATTERY_KEYS = {"t_fracs", "x_fracs", "radius_fracs"}
_SCHEDULE_KEYS = {"j", "ell", "m", "ell_fixed", "m_fixed"}
# options of every subcommand: verify, ym (four), parametrize
_OPTION_KEYS = {"partner_scale", "macro", "merge_tol", "gamma",
                "support_radius", "n_samples"}
_NONNEGATIVE_OPTIONS = {"merge_tol", "gamma", "support_radius"}
# keys outside the problem that take a number
_NUMBER_KEYS = {"snapshots", "ell_fixed", "m_fixed"} | _K_KEYS | (
    _OPTION_KEYS - {"macro"})

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


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_options(opts):
    check_keys(opts, _OPTION_KEYS, "options")
    for key, v in opts.items():
        if key == "macro":
            _require(isinstance(v, list) and len(v) == 2
                     and all(_number(e) and float(e).is_integer() and e >= 1
                             for e in v),
                     "options.macro must be a list of two integers >= 1")
        elif key == "n_samples":
            _require(isinstance(v, int) and v >= 2,
                     "options.n_samples must be an integer >= 2")
        elif key in _NONNEGATIVE_OPTIONS:
            _require(_number(v) and v >= 0, f"options.{key} must be a number >= 0")
        else:
            _require(_number(v), f"options.{key} must be a number")


def _check_fracs(name, vals):
    _require(isinstance(vals, (list, tuple)) and len(vals) >= 1,
             f"battery.{name} must be a nonempty list")
    for v in vals:
        _require(isinstance(v, (int, float)) and 0.0 < float(v) < 1.0,
                 f"battery.{name} entries must be numbers strictly in (0, 1)")
    return [float(v) for v in vals]


def _check_schedule(name, vals, integral=False):
    _require(isinstance(vals, (list, tuple)) and len(vals) >= 1,
             f"schedules.{name} must be a nonempty list")
    out = []
    for v in vals:
        _require(isinstance(v, (int, float)), f"schedules.{name} entries must be numbers")
        if integral:
            _require(float(v).is_integer() and v >= 1,
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
            _require(isinstance(n, (int, float)) and float(n).is_integer() and n >= 4,
                     "grid_sizes entries must be integers >= 4")
            sizes.append(int(n))
        self.grid_sizes = sizes
        _require(isinstance(self.snapshots, int) and self.snapshots >= 1,
                 "snapshots must be an integer >= 1")

        k = dict(DEFAULT_K_POLICY)
        k.update(check_keys(self.k_policy, _K_KEYS, "k_policy"))
        _require(isinstance(k["n"], int) and k["n"] >= 2, "k_policy.n must be an integer >= 2")
        _require(isinstance(k["pad"], (int, float)) and float(k["pad"]) >= 0.0,
                 "k_policy.pad must be a number >= 0")
        k["pad"] = float(k["pad"])
        self.k_policy = k

        b = copy.deepcopy(DEFAULT_BATTERY)
        b.update(check_keys(self.battery, _BATTERY_KEYS, "battery"))
        self.battery = {name: _check_fracs(name, b[name]) for name in
                        ("t_fracs", "x_fracs", "radius_fracs")}

        s = copy.deepcopy(DEFAULT_SCHEDULES)
        s.update(check_keys(self.schedules, _SCHEDULE_KEYS, "schedules"))
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
        _check_options(self.options)

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
        """Parse a JSON object; every rejection is a ConfigError."""
        try:
            check_keys(d, _TOP_KEYS, "config")
            check_values({k: v for k, v in d.items() if k != "problem"}, "",
                         _NUMBER_KEYS)
            _require("problem" in d, "config needs a 'problem' section")
            _require("grid_sizes" in d, "config needs 'grid_sizes'")
            return RunConfig(
                problem=ProblemSpec.from_dict(d["problem"]),
                grid_sizes=d["grid_sizes"],
                snapshots=d.get("snapshots", 8),
                k_policy=d.get("k_policy", {}),
                battery=d.get("battery", {}),
                schedules=d.get("schedules", {}),
                out_dir=d.get("out_dir", "out"),
                options=d.get("options", {}),
            )
        except ConfigError:
            raise
        except (IndexError, KeyError, TypeError) as exc:
            raise ConfigError(f"config is malformed: {exc!r}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


# A container none of whose items is a container is formatted in one join;
# any other container is written one item at a time
_CONTAINERS = (dict, list, tuple)


def _scalar(v):
    """JSON text of a scalar: ``float.__repr__`` for a finite float (what
    the stdlib encoder writes), the stdlib encoder's text for the rest."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, float):
        text = float.__repr__(v)
        if "n" not in text:  # of all float reprs only nan, inf, -inf hold an n
            return text
    return json.dumps(v)


def _leaf_text(node, pad):
    """JSON text of a scalar, or of a container none of whose items is a
    container, opened at indent ``pad``; None for any other container."""
    if not isinstance(node, _CONTAINERS):
        return _scalar(node)
    if not node:
        return "{}" if isinstance(node, dict) else "[]"
    sep = ",\n" + pad + "  "
    if isinstance(node, dict):
        if (any(map(isinstance, node.values(), repeat(_CONTAINERS)))
                or not all(map(isinstance, node, repeat(str)))):
            return None
        body = sep.join([encode_basestring_ascii(k) + ": " + _scalar(v)
                         for k, v in sorted(node.items())])
        return "{" + sep[1:] + body + "\n" + pad + "}"
    # a list of finite floats in one C-speed pass: float.__repr__ raises on
    # any other type, and a non-finite float shows as an n
    try:
        body = sep.join(map(float.__repr__, node))
    except TypeError:
        body = "n"
    if "n" in body:
        if any(map(isinstance, node, repeat(_CONTAINERS))):
            return None
        body = sep.join(map(_scalar, node))
    return "[" + sep[1:] + body + "\n" + pad + "]"


def _write_container(fh, node, pad):
    """Write a container that holds a container, opened at indent ``pad``."""
    inner = pad + "  "
    if isinstance(node, dict):
        if not all(map(isinstance, node, repeat(str))):
            # int, float, bool or None keys: the stdlib's own key rules
            text = json.dumps(node, indent=2, sort_keys=True)
            fh.write(text.replace("\n", "\n" + pad))
            return
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(node.items())]
        lead, close = "{\n" + inner, "}"
    else:
        items = zip(repeat(""), node)
        lead, close = "[\n" + inner, "]"
    for head, v in items:
        text = _leaf_text(v, inner)
        if text is None:
            fh.write(lead + head)
            _write_container(fh, v, inner)
        else:
            fh.write(lead + head + text)
        lead = ",\n" + inner
    fh.write("\n" + pad + close)


def write_json(payload, path):
    """The one JSON artifact format: sorted keys, two-space indent and a
    trailing newline.

    The file holds exactly the bytes of ``json.dump(payload, fh, indent=2,
    sort_keys=True)`` followed by ``"\\n"``, for every payload that call
    accepts, but is written one container at a time with one join per
    container of scalars, where the stdlib encoder makes one Python call
    per number once it indents."""
    with open(path, "w") as fh:
        text = _leaf_text(payload, "")
        if text is None:
            _write_container(fh, payload, "")
        else:
            fh.write(text)
        fh.write("\n")
