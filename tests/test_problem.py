"""Tests for sources, the dissipative perturbation, initial data, problem
serialization, and the hypothesis validator.

Perturbation values are frozen from the defining formula by direct
substitution; mollified sources are cross-checked against independently
coded kernel quadratures.
"""

import json
import math

import numpy as np
import pytest

from balancelab.flux import FluxCurve
from balancelab.monotone import MonotoneGraph, mollifier_nodes
from balancelab.problem import (
    CHECK_CELLS,
    ProblemSpec,
    SourceSpec,
    initial_state,
    perturbation,
    perturbation_lipschitz,
    validate_spec,
)
from conftest import canonical_spec

# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------


def test_perturbation_frozen_values():
    assert perturbation(0.0, 3, 5) == 0.0
    assert perturbation(1.0, 1, 1) == pytest.approx(-math.pi / 4, abs=1e-15)
    assert perturbation(-1.0, 2, 7) == pytest.approx(math.pi / 8, abs=1e-15)


def test_perturbation_monotone_and_bounded():
    rs = np.linspace(-30.0, 30.0, 401)
    for ell, m in [(1, 1), (2, 7), (5, 2)]:
        vals = perturbation(rs, ell, m)
        assert np.all(np.diff(vals) < 0.0)
        assert np.abs(vals).max() <= math.pi / (2 * min(ell, m)) + 1e-15
    assert perturbation_lipschitz(2, 4) == 0.5


def test_perturbation_inf_sentinel_disables_a_side():
    assert perturbation(-1.0, float("inf"), 3.0) == 0.0
    assert perturbation(1.0, 3.0, float("inf")) == 0.0
    assert perturbation(1.0, float("inf"), 2.0) == pytest.approx(-math.atan(1.0) / 2)
    assert perturbation_lipschitz(float("inf"), float("inf")) == 0.0
    with pytest.raises(ValueError):
        perturbation(1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


def test_source_values_and_zero_at_origin():
    x = np.linspace(-1.0, 1.0, 5)
    lin = SourceSpec("linear", {"c": 2.0})
    assert np.allclose(lin.eval(0.3, x, np.full(5, 1.5)), -3.0)
    assert np.all(lin.eval(0.3, x, np.zeros(5)) == 0.0)
    at = SourceSpec("arctan", {"c": 2.0})
    assert at.eval(0.0, x[:1], np.array([1.0]))[0] == pytest.approx(-2 * math.pi / 4)
    zero = SourceSpec("zero")
    assert np.all(zero.eval(1.0, x, np.full(5, 3.0)) == 0.0)
    # combined with the perturbation at u = 1, theta identity, ell = m = 1
    combined = lin.eval(0.0, x[:1], np.array([1.0]))[0] / 2.0 + perturbation(1.0, 1, 1)
    assert combined == pytest.approx(-1.0 - math.pi / 4, abs=1e-15)


def test_antilinear_source_is_antidissipative():
    anti = SourceSpec("antilinear_test", {"c": 0.5})
    us = np.linspace(-2.0, 2.0, 9)
    fv = anti.eval(0.0, np.zeros_like(us), us)
    assert np.max((fv[:, None] - fv[None, :]) * (us[:, None] - us[None, :])) > 0


def test_source_registry_validation():
    with pytest.raises(ValueError):
        SourceSpec("nope")
    with pytest.raises(ValueError):
        SourceSpec("linear", {"c": -1.0})
    with pytest.raises(ValueError):
        SourceSpec("modulated", {"mod": 1.5})


def test_linear_source_mollification_is_exact():
    lin = SourceSpec("linear", {"c": 2.0})
    x = np.linspace(-1.0, 1.0, 5)
    u = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.array_equal(lin.eval_mollified(7, 0.2, x, u), lin.eval(0.2, x, u))
    assert lin.eval_mollified(7, 0.2, x[:1], np.zeros(1))[0] == 0.0


def test_arctan_mollification_matches_quadrature():
    src = SourceSpec("arctan", {"c": 1.0})
    j, r = 5, 0.2
    nodes, weights = mollifier_nodes()
    u = np.linspace(-2.0, 2.0, 9)
    direct = np.zeros_like(u)
    for s, w in zip(nodes, weights):
        direct += w * (-np.arctan(u - r * s))
    base = float(sum(w * (-np.arctan(-r * s)) for s, w in zip(nodes, weights)))
    want = direct - base
    got = src.g_mollified(j, u)
    assert np.allclose(got, want, atol=1e-14)
    assert src.g_mollified(j, np.zeros(1))[0] == 0.0
    # mollification error is bounded by the Lipschitz constant times 1/j
    assert np.abs(got - src.g_values(u)).max() <= 1.0 / j


def test_modulated_mollification_matches_double_quadrature():
    src = SourceSpec(
        "modulated", {"amp": 2.0, "mod": 0.7, "freq_t": 3.0, "freq_x": 2.0, "g": "neg_arctan"}
    )
    j = 5
    r = 1.0 / j
    nodes, weights = mollifier_nodes()
    t = 0.8
    xs = np.linspace(-1.0, 1.0, 7)
    direct = np.zeros_like(xs)
    for sp, wp in zip(nodes, weights):
        for sq, wq in zip(nodes, weights):
            direct += wp * wq * src.c_values(t - r * sp, xs - r * sq)
    assert np.allclose(src.c_mollified(j, t, xs), direct, atol=1e-12)
    assert src.c_mollified(j, t, xs).min() > 0.0


def test_perturbed_source_stays_dissipative():
    src = SourceSpec("modulated", {"amp": 1.5, "mod": 0.9})
    us = np.linspace(-3.0, 3.0, 41)
    for t in (0.0, 0.7):
        for xv in (-0.4, 1.1):
            g = src.eval_mollified(4, t, np.full_like(us, xv), us) + perturbation(us, 2, 3)
            assert np.all(np.diff(g) <= 1e-12)


def test_source_lipschitz_table():
    assert SourceSpec("zero").lipschitz_u() == 0.0
    assert SourceSpec("linear", {"c": 3.0}).lipschitz_u() == 3.0
    assert SourceSpec("modulated", {"amp": 2.0, "mod": 0.5}).lipschitz_u() == 3.0


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


def test_box_initial_data_exact_cell_averages():
    x = np.array([-0.375, -0.125, 0.125, 0.375, 0.625, 0.875, 1.125])
    got = initial_state({"id": "box", "params": {"height": 2.0, "a": 0.0, "b": 1.0}}, x, 0.25)
    assert np.array_equal(got, [0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 0.0])
    got = initial_state({"id": "box", "params": {"height": 2.0, "a": 0.1, "b": 1.0}}, x, 0.25)
    assert got[2] == pytest.approx(1.2, abs=1e-14)  # overlap 0.15 of 0.25


def test_bump_and_twolobe_data():
    x = np.linspace(-2.0, 2.0, 401)
    b = initial_state({"id": "bump", "params": {"height": 1.5, "a": -1.0, "b": 1.0}}, x, 0.01)
    assert b.max() == pytest.approx(1.5, abs=1e-12)
    assert np.all(b[np.abs(x) >= 1.0] == 0.0)
    t = initial_state({"id": "twolobe", "params": {"height": 1.0, "a": -1.0, "b": 1.0}}, x, 0.01)
    assert t.max() > 0.9
    assert t.min() < -0.7
    assert np.all(t[np.abs(x) >= 1.01] == 0.0)
    z = initial_state({"id": "zero"}, x, 0.01)
    assert np.all(z == 0.0)
    with pytest.raises(ValueError):
        initial_state({"id": "wavelet"}, x, 0.01)


# ---------------------------------------------------------------------------
# ProblemSpec
# ---------------------------------------------------------------------------


def test_spec_json_round_trip():
    spec = canonical_spec(
        coeff={"kind": "pwc", "x_breaks": [0.0], "region_c": [1.0, 2.0]},
        source=SourceSpec("arctan", {"c": 0.5}),
        ell=float("inf"),
        m=4.0,
    )
    blob = json.dumps(spec.to_dict())
    back = ProblemSpec.from_dict(json.loads(blob))
    assert back.to_dict() == spec.to_dict()
    assert math.isinf(back.ell)
    assert back.m == 4.0
    x = np.linspace(-1.9, 1.9, 16)
    assert not back.smooth_in_x
    assert np.array_equal(back.coefficient(x), np.where(x < 0.0, 1.0, 2.0))


def test_spec_constructor_guards():
    with pytest.raises(ValueError):
        canonical_spec(T=0.0)
    with pytest.raises(ValueError):
        canonical_spec(x_lo=1.0, x_hi=-1.0)
    with pytest.raises(ValueError):
        canonical_spec(j=0)
    with pytest.raises(ValueError):
        canonical_spec(coeff={"kind": "smooth", "a": 1.0, "b": 2.0})
    with pytest.raises(ValueError):
        canonical_spec(u0={"id": "mystery"})


def test_smooth_coeff_field():
    spec = canonical_spec(coeff={"kind": "smooth", "a": 1.5, "b": 0.5, "k": 2.0})
    x = np.linspace(-1.9, 1.9, 32)
    assert spec.smooth_in_x
    assert spec.coefficient(x).min() >= 1.0
    # the samples of each cell's theta_j row: c at its x-kernel nodes, one
    # cell at a time here, bit for bit
    nodes, kernel = mollifier_nodes()
    coeffs, weights = spec.coefficient_samples(x)
    want = [1.5 + 0.5 * np.sin(2.0 * (xi - (1.0 / 16) * nodes) + 0.0) for xi in x]
    assert np.array_equal(coeffs, want) and np.array_equal(weights, kernel)


# ---------------------------------------------------------------------------
# validate_spec
# ---------------------------------------------------------------------------


def test_validate_canonical_spec_passes():
    report = validate_spec(canonical_spec())
    assert report.ok
    names = [c.name for c in report.checks]
    assert "theta_zero" in names
    assert "theta_envelopes" in names
    assert "source_dissipative" in names
    blob = json.dumps(report.to_dict())
    assert json.loads(blob)["ok"] is True


def test_validate_flags_antidissipative_source():
    report = validate_spec(canonical_spec(source=SourceSpec("antilinear_test")))
    assert not report.ok
    check = {c.name: c for c in report.checks}["source_dissipative"]
    assert not check.passed
    u, v = check.witness["u"], check.witness["v"]
    assert (u - v) * (u - v) > 0.0 and check.witness["value"] > 0.0


def test_validate_flags_zero_condition_violation():
    # theta(x, 0) = c(x) [5e-10, 1] misses 0 by more than the check's 1e-12
    # slack where c = 1, not where c = 1e-4; c jumps at the left edge of
    # check cell 3, so that is the first failing cell
    edge = -2.0 + 3 * 4.0 / CHECK_CELLS
    spec = canonical_spec(
        theta_graph=MonotoneGraph([0.0], [[5e-10, 1.0]], [], (1.0, 1.0)),
        coeff={"kind": "pwc", "x_breaks": [edge], "region_c": [1e-4, 1.0]})
    report = validate_spec(spec)
    check = {c.name: c for c in report.checks}["theta_zero"]
    assert not check.passed
    assert check.witness["cell"] == 3


def test_validate_flags_flux_jump_on_plateau():
    plateau_graph = MonotoneGraph.from_knots(
        [(0.0, 0.0), (1.0, 1.0), (3.0, 1.0), (4.0, 2.0)], (1.0, 1.0)
    )
    jumpy = FluxCurve.from_pieces(
        lambda v: np.where(v >= 1.0, v + 1.0, v), [(1.0, 1.0, 2.0)], -4.0, 6.0, n=65
    )
    report = validate_spec(canonical_spec(theta_graph=plateau_graph, flux=jumpy))
    check = {c.name: c for c in report.checks}["flux_jump_composition"]
    assert not check.passed
    assert "plateau" in check.witness["reason"]


def test_validate_flags_noncompact_datum():
    report = validate_spec(canonical_spec(u0={"id": "constant", "params": {"value": 1.0}}))
    check = {c.name: c for c in report.checks}["u0_support"]
    assert not check.passed
    assert check.witness["max_abs_near_boundary"] == 1.0
