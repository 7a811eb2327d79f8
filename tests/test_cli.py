"""Config layer and command-line front end."""

import contextlib
import csv
import filecmp
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from balancelab.cli import main
from balancelab.config import ConfigError, RunConfig, load_config, write_json

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _config_path(name):
    return os.path.join(CONFIG_DIR, name + ".json")


def _load(name):
    return load_config(_config_path(name))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


def _assert_strict_json(out_dir):
    """Every JSON artifact under out_dir parses without the NaN/Infinity
    extensions of Python's json module."""
    paths = [os.path.join(base, n) for base, _, names in os.walk(out_dir)
             for n in names if n.endswith(".json")]
    assert paths
    for path in paths:
        with open(path) as fh:
            json.load(fh, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# Config layer
# ---------------------------------------------------------------------------

SHIPPED = [
    "burgers_riemann",
    "burgers_smooth",
    "signjump_burgers",
    "het_smooth_coeff",
    "pwc_coeff",
    "linear_decay",
    "arctan_damped",
    "jumpflux_parametrize",
    "constant_state",
    "antidissipative_demo",
]


@pytest.mark.parametrize("name", SHIPPED)
def test_config_round_trip_identity(name, tmp_path):
    # parse -> serialize -> parse must be the identity on every shipped file
    cfg = _load(name)
    d1 = cfg.to_dict()
    d2 = RunConfig.from_dict(d1).to_dict()
    assert d1 == d2
    path = tmp_path / "copy.json"
    write_json(cfg.to_dict(), path)
    assert load_config(path).to_dict() == d1


# keys with quotes, backslashes, control and non-ASCII characters, which the
# stdlib escapes
_KEYS = st.text(alphabet=st.sampled_from('az"\\/\n\t\x00\x7f\u00e9\u2028\u2603\U0001f600'),
                max_size=6)
_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")])
_SCALARS = (st.none() | st.booleans() | st.integers() | _FLOATS
            | _FLOATS.map(np.float64) | st.text(max_size=8))
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(_KEYS, kids, max_size=5)
                  | st.lists(_FLOATS, max_size=8)
                  | st.dictionaries(_KEYS, _SCALARS, max_size=5)
                  | st.dictionaries(st.integers(), kids, max_size=3)),
    max_leaves=40)


@seed(20140419)
@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_write_json_writes_the_bytes_of_the_stdlib_encoder(payload):
    # nested dicts, lists and tuples, empty containers, lists of floats
    # (finite or not), flat dicts of scalars and dicts with int keys
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        write_json(payload, path)
        with open(path, "rb") as fh:
            got = fh.read()
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert got == want.encode("ascii")


@pytest.mark.parametrize("command", ["ym", "verify"])
def test_ym_and_verify_do_not_import_numpy_ma(command, tmp_path):
    # np.unique without index outputs imports numpy.ma (about 13 ms), which
    # no balancelab path needs; a fresh interpreter shows the imports alone
    child = ("import sys, balancelab.cli; rc = balancelab.cli.main(sys.argv[1:]); "
             "print('numpy.ma' in sys.modules); sys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", child, command, "--config",
         _config_path("constant_state"), "--out", str(tmp_path / "out"), "--quiet"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_config_rejects_unknown_keys(tmp_path):
    d = _load("constant_state").to_dict()
    d["grids"] = [64]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(path)


def test_config_requires_problem_and_grids(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid_sizes": [64]}))
    with pytest.raises(ConfigError, match="problem"):
        load_config(path)
    d = _load("constant_state").to_dict()
    del d["grid_sizes"]
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigError, match="grid_sizes"):
        load_config(path)


def test_config_rejects_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.json")


def test_config_validates_schedules():
    cfg = _load("constant_state")
    d = cfg.to_dict()
    d["schedules"] = {"j": [8, 4]}
    with pytest.raises(ConfigError, match="strictly increasing"):
        RunConfig.from_dict(d)
    d["schedules"] = {"j": [2.5]}
    with pytest.raises(ConfigError, match="integ"):
        RunConfig.from_dict(d)


def test_config_validates_battery_fractions():
    d = _load("constant_state").to_dict()
    d["battery"] = {"radius_fracs": [0.0]}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(d)


# every object the contract declares a key set for, in a config that has it
NESTED_OBJECTS = [
    ("burgers_riemann", ["problem"]),
    ("burgers_riemann", ["problem", "domain"]),
    ("burgers_riemann", ["problem", "theta"]),
    ("burgers_riemann", ["problem", "theta", "coeff"]),
    ("pwc_coeff", ["problem", "theta", "coeff"]),
    ("het_smooth_coeff", ["problem", "theta", "coeff"]),
    ("burgers_riemann", ["problem", "theta", "graph"]),
    ("burgers_riemann", ["problem", "flux"]),
    ("burgers_riemann", ["problem", "flux", "curve"]),
    ("jumpflux_parametrize", ["problem", "flux", "curve", "jumps", 0]),
    ("burgers_riemann", ["problem", "source"]),
    ("burgers_riemann", ["problem", "source", "params"]),
    ("linear_decay", ["problem", "source", "params"]),
    ("burgers_riemann", ["problem", "u0"]),
    ("burgers_riemann", ["problem", "u0", "params"]),
    ("constant_state", ["problem", "u0", "params"]),
    ("burgers_riemann", ["problem", "indices"]),
    ("burgers_riemann", ["options"]),
]


def _exit_of(d, tmp_path, capsys, command="parametrize"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    code = main([command, "--config", str(path), "--out",
                 str(tmp_path / "o"), "--quiet"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name,where", NESTED_OBJECTS)
def test_unknown_key_in_nested_object_exits_2(name, where, tmp_path, capsys):
    d = _load(name).to_dict()
    obj = d
    for key in where:
        obj = obj[key]
    # a key of another coefficient kind, source or datum counts as unknown
    for bogus in ("bogus", "region_c", "amp", "skew"):
        if bogus not in obj:
            break
    obj[bogus] = 1.0
    code, err = _exit_of(d, tmp_path, capsys)
    assert code == 2
    err = json.loads(err)
    assert err["error"] == "config"
    assert "unknown" in err["message"] and bogus in err["message"]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literal_exits_2(literal, tmp_path, capsys):
    text = json.dumps(_load("burgers_riemann").to_dict())
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"T": 0.5', '"T": %s' % literal, 1))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and literal in err["message"]


@pytest.mark.parametrize("uid", ["box", "bump", "twolobe"])
def test_empty_datum_interval_exits_2(uid, tmp_path, capsys):
    d = _load("burgers_riemann").to_dict()
    d["problem"]["u0"] = {"id": uid, "params": {"height": 1.0, "a": 0.5,
                                                "b": 0.5}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "a < b" in err["message"]


@pytest.mark.parametrize("x_breaks,region_c,words", [
    ([0.5, -0.5], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0, 0.0], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0], [1.0], "one region_c value more"),
    ([0.0], [1.0, 0.0], "positive"),
])
def test_bad_pwc_coefficient_exits_2(x_breaks, region_c, words, tmp_path,
                                     capsys):
    d = _load("pwc_coeff").to_dict()
    d["problem"]["theta"]["coeff"].update(x_breaks=x_breaks, region_c=region_c)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and words in err["message"]


def test_non_integral_j_exits_2(tmp_path, capsys):
    d = _load("burgers_riemann").to_dict()
    d["problem"]["indices"]["j"] = 1.5
    code, err = _exit_of(d, tmp_path, capsys)
    assert code == 2
    err = json.loads(err)
    assert err["error"] == "config" and "indices.j" in err["message"]


@pytest.mark.parametrize("command", ["solve", "parametrize"])
def test_flux_sample_rows_that_are_not_pairs_exit_2(command, tmp_path, capsys):
    # a third column used to be dropped without a word
    d = _load("burgers_riemann").to_dict()
    d["problem"]["flux"]["curve"]["samples"] = [[-4.0, 8.0, 99.0], [4.0, 8.0, 99.0]]
    code, err = _exit_of(d, tmp_path, capsys, command)
    assert code == 2
    err = json.loads(err)
    assert err["error"] == "config" and "pairs" in err["message"]


@pytest.mark.parametrize("gap_slope", [-1.0, 0.0])
@pytest.mark.parametrize("command", ["solve", "verify", "converge", "ym", "parametrize"])
def test_non_positive_gap_slope_exits_2(command, gap_slope, tmp_path, capsys):
    d = _load("burgers_riemann").to_dict()
    d["problem"]["flux"]["gap_slope"] = gap_slope
    code, err = _exit_of(d, tmp_path, capsys, command)
    assert code == 2
    err = json.loads(err)
    assert err["error"] == "config" and "gap slope must be positive" in err["message"]


# values of every JSON type; a mutation draws one whose type differs from
# the value it replaces
WRONG_VALUES = [None, True, 3, 2.5, "x", [], [1, 2], {}, {"a": 1}]


def _positions(node, path=()):
    """(container, key, key path) of every value below a JSON node; of a
    long list (the flux samples) only the first two entries."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node[:2] if len(node) > 4 else node)
    out = []
    for key, child in items:
        out.append((node, key, path + (key,)))
        if isinstance(child, (dict, list)):
            out += _positions(child, path + (key,))
    return out


def _parametrize_exit(d):
    """Exit code and stderr of ``parametrize`` on the config ``d``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(d, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["parametrize", "--config", path, "--out",
                         os.path.join(tmp, "o"), "--quiet"])
    return code, err.getvalue()


@st.composite
def mutated_configs(draw):
    """A shipped config with one unknown key or one wrong-typed value at a
    place drawn uniformly from all of its values, the root included; and
    whether an object or a list was replaced."""
    holder = {"root": _load(draw(st.sampled_from(SHIPPED))).to_dict()}
    parent, key, _ = draw(st.sampled_from(_positions(holder)))
    node = parent[key]
    if isinstance(node, dict) and draw(st.booleans()):
        node["bogus"] = draw(st.sampled_from(WRONG_VALUES))
        return holder["root"], False
    parent[key] = draw(st.sampled_from(
        [v for v in WRONG_VALUES if type(v) is not type(node)]))
    return holder["root"], isinstance(node, (dict, list))


@seed(20140411)
@settings(max_examples=250, deadline=None)
@given(mutated_configs())
def test_mutated_configs_exit_0_or_2_with_json(case):
    d, container_replaced = case
    code, err = _parametrize_exit(d)
    assert code in (0, 2)
    if code:
        err = json.loads(err)
        assert err["error"] == "config"
        # an object or a list is not asked for as a number
        assert not (container_replaced and "must be a number" in err["message"])


@st.composite
def number_as_string_configs(draw):
    """A shipped config with one of its numbers, drawn from all of them (of
    a long list the first two entries), written as the string of its JSON
    text; with the number's dotted key path and that string."""
    d = _load(draw(st.sampled_from(SHIPPED))).to_dict()
    parent, key, path = draw(st.sampled_from(
        [pos for pos in _positions(d)
         if type(pos[0][pos[1]]) in (int, float)]))
    parent[key] = json.dumps(parent[key])
    return d, ".".join(map(str, path)), parent[key]


@seed(20140412)
@settings(max_examples=200, deadline=None)
@given(number_as_string_configs())
def test_number_written_as_a_string_exits_2_naming_its_path(case):
    d, path, text = case
    code, err = _parametrize_exit(d)
    assert code == 2
    assert json.loads(err) == {
        "error": "config", "message": "%s must be a number, not %r" % (path, text)}


@pytest.mark.parametrize("where,command", [
    (["problem", "domain", "T"], "parametrize"),
    (["grid_sizes", 0], "parametrize"),
    (["snapshots"], "solve"),
    (["schedules", "j", 1], "converge"),
])
def test_integer_too_large_for_a_float_exits_2_naming_its_key(
        where, command, tmp_path, capsys):
    d = _load("arctan_damped").to_dict()
    obj = d
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = 10 ** 400
    code, err = _exit_of(d, tmp_path, capsys, command)
    assert code == 2
    assert json.loads(err) == {
        "error": "config",
        "message": "%s is an integer too large for a float" % ".".join(map(str, where))}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_shipped_riemann_smoke(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--config", _config_path("burgers_riemann"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    rows = _read_csv(out / "snapshots.csv")
    assert rows[0] == ["t", "x", "u", "v"]
    meta = json.loads((out / "run.json").read_text())
    assert meta["metadata"]["n_cells"] == 1024
    assert meta["config"]["grid_sizes"] == [1024]
    assert len(rows) == 1 + len(meta["metadata"]["snapshot_times"]) * 1024
    _assert_strict_json(out)


def test_solve_rejects_m_zero(tmp_path, capsys):
    d = _load("burgers_riemann").to_dict()
    d["problem"]["indices"]["m"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_solve_unknown_source_names_the_id(tmp_path, capsys):
    d = _load("burgers_riemann").to_dict()
    d["problem"]["source"] = {"id": "frobnicate", "params": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_non_finite_state_exits_4(tmp_path, capsys):
    # an anti-dissipative source far past the source cap blows up near t = 4.4;
    # the overflows on the way there print no RuntimeWarning
    d = _load("antidissipative_demo").to_dict()
    d["grid_sizes"] = [32]
    d["problem"]["source"] = {"id": "antilinear_test", "params": {"c": 200}}
    d["problem"]["domain"]["T"] = 5
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(d))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    err = json.loads(err)
    assert err["error"] == "numerical" and "non-finite" in err["message"]
    assert not (tmp_path / "o" / "snapshots.csv").exists()
    assert not (tmp_path / "o" / "run.json").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_constant_config_all_residuals_tiny(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--config", _config_path("constant_state"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    rows = _read_csv(out / "entropy_report.csv")
    assert rows[0] == ["form", "k", "psi_id", "residual"]
    residuals = [abs(float(r[3])) for r in rows[1:]]
    assert residuals and max(residuals) <= 1e-8
    pair = json.loads((out / "pair_check.json").read_text())
    assert pair["curve_nonincreasing"] and pair["gaps_nonnegative"]


def test_verify_constant_datum_defaults_its_value(tmp_path):
    # the partner of a constant datum without "value" scales the default 1.0
    outs = []
    for params in ({}, {"value": 1.0}):
        d = _load("constant_state").to_dict()
        d["problem"]["u0"]["params"] = params
        path = tmp_path / ("cfg%d.json" % len(outs))
        path.write_text(json.dumps(d))
        out = tmp_path / ("v%d" % len(outs))
        assert main(["verify", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        outs.append((out / "pair_check.json").read_bytes())
    assert outs[0] == outs[1]


def test_verify_antidissipative_source_fails_contraction(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--config", _config_path("antidissipative_demo"),
                 "--out", str(out), "--quiet"])
    assert code == 1
    pair = json.loads((out / "pair_check.json").read_text())
    assert not pair["curve_nonincreasing"]
    assert pair["max_step_growth"] > pair["growth_slack"]


def test_verify_unresolved_battery_exits_3(tmp_path, capsys):
    d = _load("burgers_riemann").to_dict()
    d["snapshots"] = 8  # too few slabs for the default battery radii
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(d))
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resolution"
    assert "use n_cells >=" in err["message"]


def test_verify_shock_at_fine_grid_passes(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--config", _config_path("burgers_riemann"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "entropy_report.json").read_text())
    assert set(report["minima"]) == {"SEMI_PLUS", "SEMI_MINUS", "SGN", "N1",
                                     "N2"}
    _assert_strict_json(out)


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_reports_and_finite_order(tmp_path):
    out = tmp_path / "c"
    code = main(["converge", "--config", _config_path("burgers_smooth"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    for kind in ("m", "ell", "j"):
        assert (out / ("schedule_%s.json" % kind)).exists()
        assert (out / ("schedule_%s.csv" % kind)).exists()
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["grids"] == [64, 128, 256]
    assert 0.5 <= float(conv["order"]) <= 1.5
    rows = _read_csv(out / "convergence.csv")
    assert rows[0] == ["n_coarse", "n_mid", "n_fine", "order"]
    assert math.isfinite(float(rows[1][3]))


def test_converge_rejects_non_doubling_grids_before_sweeps(tmp_path):
    d = _load("constant_state").to_dict()
    d["grid_sizes"] = [64, 100, 200]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "c"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["converge", "--config", str(path), "--out", str(out),
                     "--quiet"])
    assert code == 2
    payload = json.loads(err.getvalue())
    assert payload["error"] == "config"
    assert "halve dx" in payload["message"]
    assert not (out / "schedule_m.json").exists()


def test_converge_constant_config_hits_sentinel(tmp_path):
    out = tmp_path / "c"
    code = main(["converge", "--config", _config_path("constant_state"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["order"] == "inf"
    _assert_strict_json(out)


# ---------------------------------------------------------------------------
# ym
# ---------------------------------------------------------------------------


def test_ym_one_member_ensemble_is_single_atom(tmp_path):
    out = tmp_path / "y"
    code = main(["ym", "--config", _config_path("constant_state"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    ym = json.loads((out / "young_measure.json").read_text())
    for block_row in ym["blocks"]:
        for block in block_row:
            assert len(block["values"]) == 1
            assert block["weights"] == [1.0]
    check = json.loads((out / "support_check.json").read_text())
    assert check["support_ok"]
    rows = _read_csv(out / "mv_residuals.csv")
    assert rows[0] == ["sign", "mu", "psi_id", "residual", "mu_is_atom"]
    assert min(float(r[3]) for r in rows[1:]) >= -1e-10
    _assert_strict_json(out)


def _ym_with_option(tmp_path, key, value):
    d = _load("constant_state").to_dict()
    d["options"][key] = value
    path = tmp_path / "option.json"
    path.write_text(json.dumps(d))
    return main(["ym", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--quiet"])


def test_ym_unresolved_macro_exits_3(tmp_path, capsys):
    # 32-slab blocks are wider in time than the 9.6-slab battery radius
    code = _ym_with_option(tmp_path, "macro", [32, 8])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "resolution"
    assert "unresolved" in err["message"] and "macro" in err["message"]
    assert "largest macro shape that resolves it on this grid is [9, 9]" \
        in err["message"]


def test_ym_macro_entry_below_one_exits_2(tmp_path, capsys):
    code = _ym_with_option(tmp_path, "macro", [0, 8])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "macro" in err["message"]


@pytest.mark.parametrize("macro", [[1, 1], [2, 1], [1, 3]])
def test_ym_macro_block_under_16_samples_exits_3(macro, tmp_path, capsys):
    # 5 ensemble members pool 5, 10 and 15 samples per block
    d = _load("arctan_damped").to_dict()
    d["options"]["macro"] = macro
    code, err = _exit_of(d, tmp_path, capsys, "ym")
    assert code == 3
    err = json.loads(err)
    assert err["error"] == "resolution"
    assert "block (0, 0) pools %d samples" % (5 * macro[0] * macro[1]) in err["message"]
    assert "slabs x cells >= 4" in err["message"]


# (key path, config, value): keys where a number written as a string exits 2
STRING_FOR_NUMBER = [
    (["grid_sizes"], "arctan_damped", ["64"]),
    (["snapshots"], "arctan_damped", "64"),
    (["k_policy", "n"], "arctan_damped", "33"),
    (["k_policy", "pad"], "arctan_damped", "0.5"),
    (["battery", "t_fracs"], "arctan_damped", ["0.3"]),
    (["battery", "radius_fracs"], "arctan_damped", ["0.2"]),
    (["schedules", "j"], "arctan_damped", ["4", "8"]),
    (["schedules", "ell"], "arctan_damped", ["1.0"]),
    (["schedules", "m"], "arctan_damped", ["1.0"]),
    (["options", "macro"], "arctan_damped", ["8", "8"]),
    (["options", "gamma"], "arctan_damped", "0.1"),
    (["options", "partner_scale"], "arctan_damped", "0.5"),
    (["options", "n_samples"], "arctan_damped", "257"),
    (["problem", "indices", "j"], "arctan_damped", "16"),
    (["problem", "source", "params", "c"], "arctan_damped", "1.0"),
    (["problem", "source", "params", "c"], "linear_decay", "1.0"),
    (["problem", "source", "params", "amp"], "modulated", "1.0"),
    (["problem", "source", "params", "mod"], "modulated", "0.5"),
    (["problem", "source", "params", "freq_t"], "modulated", "1.0"),
    (["problem", "source", "params", "freq_x"], "modulated", "1.0"),
]


@pytest.mark.parametrize("where,name,value", STRING_FOR_NUMBER)
def test_string_for_a_number_exits_2_naming_its_key(where, name, value,
                                                     tmp_path, capsys):
    if name == "modulated":
        d = _load("arctan_damped").to_dict()
        d["problem"]["source"] = {"id": "modulated", "params": {}}
    else:
        d = _load(name).to_dict()
    obj = d
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value
    code, err = _exit_of(d, tmp_path, capsys)
    assert code == 2
    message = json.loads(err)["message"]
    # indices.j is named without its `problem.` prefix
    key = ".".join(where[1:] if where[:2] == ["problem", "indices"] else where)
    assert key in message
    assert "number" in message or "integer" in message
    assert "TypeError" not in message and "malformed" not in message


# (config, key path, the number as a string) in problem.u0.params and
# problem.theta.coeff; a list key takes a list of such strings
NUMBER_AS_STRING = [
    ("arctan_damped", ["u0", "params", "height"], "0.9"),
    ("arctan_damped", ["u0", "params", "skew"], "0.8"),
    ("het_smooth_coeff", ["theta", "coeff", "b"], "0.3"),
    ("pwc_coeff", ["theta", "coeff", "region_c"], ["1.0", "1.5"]),
    ("pwc_coeff", ["theta", "coeff", "x_breaks"], ["0.0"]),
    ("arctan_damped", ["u0", "params", "height"], "1"),
]


@pytest.mark.parametrize("name,where,text", NUMBER_AS_STRING)
def test_number_written_as_a_string_exits_2_naming_its_key(
        name, where, text, tmp_path, capsys):
    d = _load(name).to_dict()
    obj = d["problem"]
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = text
    code, err = _exit_of(d, tmp_path, capsys, command="solve")
    assert code == 2
    assert not (tmp_path / "o").exists()
    err = json.loads(err)
    assert err["error"] == "config"
    if isinstance(text, list):
        where, text = where + [0], text[0]
    assert err["message"] == "problem.%s must be a number, not %r" % (
        ".".join(map(str, where)), text)


@pytest.mark.parametrize("where", [["u0", "params", "height"],
                                   ["theta", "coeff", "b"]])
@pytest.mark.parametrize("text", ["tall", "nan", "inf"])
def test_string_that_is_no_number_exits_2_naming_its_key(where, text,
                                                         tmp_path, capsys):
    d = _load("het_smooth_coeff").to_dict()
    obj = d["problem"]
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = text
    code, err = _exit_of(d, tmp_path, capsys)
    assert code == 2
    message = json.loads(err)["message"]
    assert "problem.%s must be a number" % ".".join(where) in message


# (key path, string): numbers written as strings that read as NaN or an
# infinity, or overflow to one; only indices.ell and indices.m take "inf"
NON_FINITE_STRING = [
    (["problem", "domain", "T"], "inf"),
    (["problem", "domain", "T"], "1e400"),
    (["problem", "domain", "T"], "nan"),
    (["problem", "domain", "x_lo"], "-inf"),
    (["problem", "domain", "pad"], "inf"),
    (["problem", "indices", "ell"], "nan"),
    (["problem", "indices", "ell"], "1e400"),
    (["problem", "indices", "m"], "-inf"),
    (["problem", "flux", "gap_slope"], "inf"),
    (["problem", "sample_radius"], "1e400"),
    (["schedules", "ell_fixed"], "inf"),
    (["schedules", "m_fixed"], "nan"),
]


@pytest.mark.parametrize("where,text", NON_FINITE_STRING)
def test_string_that_reads_as_non_finite_exits_2_naming_its_key(
        where, text, tmp_path, capsys):
    d = _load("arctan_damped").to_dict()
    obj = d
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = text
    code, err = _exit_of(d, tmp_path, capsys, command="solve")
    assert code == 2
    err = json.loads(err)
    assert err["error"] == "config"
    assert "%s must be a number" % ".".join(where) in err["message"]


@pytest.mark.parametrize("key,value", [
    ("macro", [2.5, 8]),  # not truncated to [2, 8]
    ("macro", [0.5, 8]),  # not quoted as [0, 8]
    ("gamma", -0.1),
    ("support_radius", -1),
    ("merge_tol", -1),
])
def test_ym_option_out_of_range_exits_2_naming_its_key(key, value, tmp_path,
                                                       capsys):
    code = _ym_with_option(tmp_path, key, value)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "options.%s" % key in err["message"]


# ---------------------------------------------------------------------------
# parametrize
# ---------------------------------------------------------------------------


def test_parametrize_no_jump_flux_keeps_U_equal_to_s(tmp_path):
    out = tmp_path / "p"
    code = main(["parametrize", "--config", _config_path("burgers_smooth"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    data = np.loadtxt(out / "parametrization.csv", delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], data[:, 1])
    meta = json.loads((out / "parametrization.json").read_text())
    assert meta["plateaus"] == []


def test_parametrize_jump_flux_fills_one_plateau(tmp_path):
    out = tmp_path / "p"
    code = main(["parametrize", "--config",
                 _config_path("jumpflux_parametrize"), "--out", str(out),
                 "--quiet"])
    assert code == 0
    meta = json.loads((out / "parametrization.json").read_text())
    assert len(meta["plateaus"]) == 1
    _assert_strict_json(out)
    data = np.loadtxt(out / "parametrization.csv", delimiter=",", skiprows=1)
    s, U = data[:, 0], data[:, 1]
    assert np.all(np.diff(U) >= 0)  # U nondecreasing
    a, b, z = meta["plateaus"][0]
    on = (s >= a) & (s <= b)
    assert on.any() and np.allclose(U[on], z)
    # docs/formats.md: every CSV number is written with %.17g
    for row in _read_csv(out / "parametrization.csv")[1:]:
        for cell in row:
            assert cell == "%.17g" % float(cell)


def test_jump_away_from_zero_with_a_tiny_gap_slope_runs(tmp_path):
    # U^-1 passes through (0, 0) exactly: its plateau ends are of size
    # |z| / gap_slope = 3e8 here, whose rounding is far above the graph's
    # 1e-9 tolerance for containing (0, 0)
    d = _load("jumpflux_parametrize").to_dict()
    curve = d["problem"]["flux"]["curve"]
    curve["jumps"][0]["z"] = -0.3
    curve["samples"] = [row for row in curve["samples"] if row[0] != -0.3]
    d["problem"]["flux"]["gap_slope"] = 1e-9
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(d))
    for command in ("parametrize", "solve", "verify"):
        code = main([command, "--config", str(path), "--out",
                     str(tmp_path / command), "--quiet"])
        assert code == 0, command
    meta = json.loads(
        (tmp_path / "parametrize" / "parametrization.json").read_text())
    [(a, b, z)] = meta["plateaus"]
    assert z == -0.3 and b - a == 1.0 and b < 0.0


# ---------------------------------------------------------------------------
# Idempotence
# ---------------------------------------------------------------------------


def _assert_dirs_byte_identical(d1, d2):
    names1, names2 = sorted(os.listdir(d1)), sorted(os.listdir(d2))
    assert names1 == names2
    for name in names1:
        assert filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name),
                           shallow=False), name


@pytest.mark.parametrize("command,name", [
    ("solve", "constant_state"),
    ("parametrize", "jumpflux_parametrize"),
])
def test_rerun_is_bit_identical(command, name, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main([command, "--config", _config_path(name), "--out",
                     str(out), "--quiet"]) == 0
        outs.append(str(out))
    _assert_dirs_byte_identical(*outs)
