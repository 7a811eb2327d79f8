"""Config layer and command-line front end."""

import csv
import filecmp
import json
import math
import os

import numpy as np
import pytest

from balancelab.cli import main
from balancelab.config import ConfigError, RunConfig, load_config, save_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _config_path(name):
    return os.path.join(CONFIG_DIR, name + ".json")


def _load(name):
    return load_config(_config_path(name))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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
    save_config(cfg, path)
    assert load_config(path).to_dict() == d1


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


def test_converge_constant_config_hits_sentinel(tmp_path):
    out = tmp_path / "c"
    code = main(["converge", "--config", _config_path("constant_state"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["order"] == "inf"


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
