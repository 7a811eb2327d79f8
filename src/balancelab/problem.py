"""Problem bundles: sources, the strictly dissipative perturbation, initial
data, and hypothesis validation.

A problem couples a monotone nonlinearity theta(x, u) = c(x) * g(u), a flux
curve A (possibly with jumps), a separable source f(t, x, u) = C(t, x) G(u)
with G nonincreasing and G(0) = 0, an initial datum, and the regularization
indices j (smoothing), ell / m (perturbation strengths; inf disables a side).

Sources come from a closed-form registry so that dissipativity is verifiable
and mollification has exact separable form: mollifying C(t,x) G(u) with the
product kernel factorizes into mollified C times mollified G, and the
trigonometric modulations pick up the kernel cosine factor in closed form.

``ProblemSpec.from_dict`` reads the ``problem`` object of a run config, whose
numbers are JSON numbers; ``check_keys`` and ``check_values`` are the config
reader's checks of keys and of values.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .flux import FluxCurve, build_parametrization
from .monotone import (MonotoneGraph, bump_profile, compose_graphs,
                       mollifier_nodes)


def check_keys(obj, allowed, where):
    """``obj`` itself, if it is a JSON object whose keys all lie in
    ``allowed``; ValueError naming ``where`` otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys {sorted(unknown)}")
    return obj


def json_number(x):
    """``x`` as strict JSON allows: an infinite float becomes "inf" or "-inf"."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


# the strings a config takes: the names, and "inf" at indices.ell and m
_NAME_KEYS = frozenset({"id", "kind", "g", "out_dir"})
_INF_PATHS = ("problem.indices.ell", "problem.indices.m")
# lists whose entries are objects or lists
_ROWS = ("samples", "jumps")


def check_values(node, prefix, numbers, rows=False):
    """ValueError at the first value below the object or list ``node`` that
    no key takes: true, false, null, NaN, an infinity (Python's JSON reader
    accepts the last two), an integer too large for a float, and a string
    other than a name or the "inf" of indices.ell and m.  Messages name the
    value by ``prefix`` and its keys, and call a string a bad number only
    at a key in ``numbers`` or as an entry of a list that is not one of
    ``rows``."""
    for key, v in node.items() if isinstance(node, dict) else enumerate(node):
        where = f"{prefix}{key}"
        if isinstance(v, (dict, list)):
            check_values(v, where + ".", numbers, key in _ROWS)
        elif isinstance(v, str):
            if key in _NAME_KEYS or (v == "inf" and where in _INF_PATHS):
                continue
            if key in numbers or (isinstance(key, int) and not rows):
                raise ValueError(f"{where} must be a number, not {v!r}")
            raise ValueError(f"{where} is the string {v!r}, where no string "
                             "belongs")
        elif v is None or isinstance(v, bool) or (
                isinstance(v, float) and not math.isfinite(v)):
            raise ValueError(f"{where} is {json.dumps(v)}, which no key takes")
        elif isinstance(v, int):
            try:
                float(v)
            except OverflowError:
                raise ValueError(f"{where} is an integer too large for a "
                                 "float") from None


# ---------------------------------------------------------------------------
# Strictly dissipative perturbation
# ---------------------------------------------------------------------------


def perturbation(r, ell, m):
    """phi_{ell,m}(r) = (1/ell) atan(max(-r,0)) - (1/m) atan(max(r,0)).

    Strictly decreasing in r, zero at zero, bounded by pi/(2 min(ell, m));
    ell = inf or m = inf switches the corresponding side off.
    """
    if ell < 1 or m < 1:
        raise ValueError("perturbation indices must be >= 1")
    r = np.asarray(r, dtype=float)
    neg = np.arctan(np.maximum(-r, 0.0)) / ell
    pos = np.arctan(np.maximum(r, 0.0)) / m
    out = neg - pos
    return float(out) if out.ndim == 0 else out


def perturbation_lipschitz(ell, m):
    """Lipschitz constant of phi_{ell,m} in r (atan is 1-Lipschitz)."""
    return max(1.0 / ell, 1.0 / m)


# ---------------------------------------------------------------------------
# Source registry: f(t, x, u) = C(t, x) * G(u)
# ---------------------------------------------------------------------------


def _kernel_cos_factor(z):
    """Mollifying sin/cos(w y) in y with radius r multiplies the amplitude by
    kappa(w r) = sum_q weight_q cos(w r s_q)."""
    nodes, weights = mollifier_nodes()
    return float(weights @ np.cos(z * nodes))


@functools.lru_cache(maxsize=None)
def _arctan_zero_row(j):
    """The u = 0 row of the mollified arctan, sum_q weight_q atan(-s_q / j)."""
    nodes, weights = mollifier_nodes()
    return float((np.arctan(-(1.0 / j) * nodes) * weights).sum())


# source id -> its parameter names
_SOURCES = {
    "zero": (),
    "linear": ("c",),
    "arctan": ("c",),
    "modulated": ("amp", "mod", "freq_t", "freq_x", "g"),
    "antilinear_test": ("c",),
}


@dataclass
class SourceSpec:
    """Registry-backed separable source term."""

    id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in _SOURCES:
            raise ValueError(f"unknown source id {self.id!r}")
        p = dict(check_keys(self.params, _SOURCES[self.id],
                            "problem.source.params"))
        for key, v in p.items():
            if key != "g" and not isinstance(v, (int, float)):
                raise ValueError(
                    f"problem.source.params.{key} must be a number, not {v!r}")
        if self.id in ("linear", "arctan", "antilinear_test"):
            p.setdefault("c", 1.0)
            if p["c"] < 0:
                raise ValueError("source coefficient must be nonnegative")
        if self.id == "modulated":
            p.setdefault("amp", 1.0)
            p.setdefault("mod", 0.5)
            p.setdefault("freq_t", 1.0)
            p.setdefault("freq_x", 1.0)
            p.setdefault("g", "neg_arctan")
            if p["amp"] < 0 or abs(p["mod"]) > 1.0:
                raise ValueError("modulated source needs amp >= 0 and |mod| <= 1")
            if p["g"] not in ("neg_u", "neg_arctan"):
                raise ValueError("modulated g must be neg_u or neg_arctan")
        self.params = p

    # -- separable factors ---------------------------------------------------

    def c_values(self, t, x):
        """C(t, x) for scalar t and array x."""
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.id == "zero":
            return np.zeros_like(x)
        if self.id == "modulated":
            return p["amp"] * (
                1.0 + p["mod"] * math.sin(p["freq_t"] * t) * np.cos(p["freq_x"] * x)
            )
        return np.full_like(x, p["c"])

    def g_values(self, u):
        u = np.asarray(u, dtype=float)
        if self.id == "zero":
            return np.zeros_like(u)
        if self.id == "antilinear_test":
            return u.copy()
        if self.id == "linear" or (self.id == "modulated" and self.params["g"] == "neg_u"):
            return -u
        return -np.arctan(u)

    def eval(self, t, x, u):
        """Raw f(t, x, u); x and u arrays of matching shape."""
        return self.c_values(t, x) * self.g_values(u)

    # -- mollified evaluation --------------------------------------------------

    def c_mollified(self, j, t, x):
        """C mollified in (t, x) with radius 1/j: exact closed forms."""
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.id == "zero":
            return np.zeros_like(x)
        if self.id == "modulated":
            kt = _kernel_cos_factor(p["freq_t"] / j)
            kx = _kernel_cos_factor(p["freq_x"] / j)
            return p["amp"] * (
                1.0 + p["mod"] * kt * kx * math.sin(p["freq_t"] * t) * np.cos(p["freq_x"] * x)
            )
        return np.full_like(x, p["c"])

    def g_mollified(self, j, u):
        """G mollified in u with radius 1/j, normalized so the value at 0 is 0."""
        u = np.asarray(u, dtype=float)
        if self.id in ("zero", "linear", "antilinear_test") or (
            self.id == "modulated" and self.params["g"] == "neg_u"
        ):
            return self.g_values(u)  # affine: symmetric kernel leaves it fixed
        nodes, weights = mollifier_nodes()
        r = 1.0 / j
        pts = u[..., None] - r * nodes
        # row-wise kernel sums reduce identical rows to identical bits, so
        # subtracting the u = 0 row keeps g_mollified(j, 0) = 0 exactly
        base = (np.arctan(pts) * weights).sum(axis=-1)
        return _arctan_zero_row(j) - base

    def eval_mollified(self, j, t, x, u):
        """f^j(t, x, u) with f^j(t, x, 0) = 0 exactly."""
        return self.c_mollified(j, t, x) * self.g_mollified(j, u)

    # -- metadata --------------------------------------------------------------

    def lipschitz_u(self):
        p = self.params
        if self.id == "zero":
            return 0.0
        if self.id == "modulated":
            return p["amp"] * (1.0 + abs(p["mod"]))
        return p["c"]

    def to_dict(self):
        return {"id": self.id, "params": dict(self.params)}

    @staticmethod
    def from_dict(d):
        check_keys(d, ("id", "params"), "problem.source")
        return SourceSpec(d["id"], d.get("params", {}))


# ---------------------------------------------------------------------------
# Initial data registry
# ---------------------------------------------------------------------------


_U0_PARAMS = {"zero": (), "constant": ("value",), "box": ("height", "a", "b"),
              "bump": ("height", "a", "b"),
              "twolobe": ("height", "a", "b", "skew")}
_U0_DEFAULTS = {"value": 1.0, "skew": 0.8}


def u0_params(u0):
    """Parameters of an initial datum, with the optional ones defaulted."""
    return {**_U0_DEFAULTS, **u0.get("params", {})}


def initial_state(u0, x_centers, dx):
    """Cell values of the initial datum; box data use exact cell averages."""
    uid = u0.get("id", "zero")
    p = u0_params(u0)
    x = np.asarray(x_centers, dtype=float)
    if uid == "zero":
        return np.zeros_like(x)
    if uid == "constant":
        return np.full_like(x, float(p["value"]))
    if uid not in ("box", "bump", "twolobe"):
        raise ValueError(f"unknown initial datum id {uid!r}")
    h, a, b = float(p["height"]), float(p["a"]), float(p["b"])
    if not a < b:
        raise ValueError(f"initial datum {uid!r} needs a < b")
    if uid == "box":
        left = np.maximum(x - 0.5 * dx, a)
        right = np.minimum(x + 0.5 * dx, b)
        return h * np.clip((right - left) / dx, 0.0, 1.0)
    if uid == "bump":
        y = (2.0 * (x - a) / (b - a)) - 1.0
        return h * bump_profile(y)
    skew = float(p["skew"])
    r = 0.25 * (b - a)
    return (h * bump_profile((x - (a + r)) / r)
            - skew * h * bump_profile((x - (b - r)) / r))


# ---------------------------------------------------------------------------
# ProblemSpec
# ---------------------------------------------------------------------------


_COEFF_KEYS = {"const": ("kind",), "pwc": ("kind", "x_breaks", "region_c"),
               "smooth": ("kind", "a", "b", "k", "phase")}
_SMOOTH_DEFAULTS = {"a": 1.0, "b": 0.0, "k": 1.0, "phase": 0.0}
# keys of a problem that take a number
_NUMBER_KEYS = frozenset({
    "x_lo", "x_hi", "T", "pad", "gap_slope", "sample_radius", "j", "ell", "m",
    "z", "left", "right", *_SMOOTH_DEFAULTS}).union(
        *_SOURCES.values(), *_U0_PARAMS.values()) - _NAME_KEYS


@dataclass
class ProblemSpec:
    """Declarative problem instance; it alone reads the coefficient layout."""

    x_lo: float
    x_hi: float
    T: float
    theta_graph: MonotoneGraph
    coeff: dict
    flux: FluxCurve
    source: SourceSpec
    u0: dict
    j: int = 16
    ell: float = 1.0
    m: float = 1.0
    gap_slope: float = 1.0
    sample_radius: float = 2.0
    pad: float = 0.0

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        if not self.x_lo < self.x_hi:
            raise ValueError("domain must have x_lo < x_hi")
        if self.j < 1 or self.ell < 1 or self.m < 1:
            raise ValueError("indices j, ell, m must be >= 1")
        if self.sample_radius <= 0:
            raise ValueError("sample radius must be positive")
        if not self.gap_slope > 0:
            raise ValueError("gap slope must be positive")
        if not isinstance(self.coeff, dict):
            raise ValueError("problem.theta.coeff must be an object")
        kind = self.coeff.get("kind", "const")
        if kind not in _COEFF_KEYS:
            raise ValueError(f"unknown coefficient kind {kind!r}")
        check_keys(self.coeff, _COEFF_KEYS[kind], "problem.theta.coeff")
        if kind == "smooth":
            p = {**_SMOOTH_DEFAULTS, **self.coeff}
            if float(p["a"]) - abs(float(p["b"])) <= 0:
                raise ValueError("smooth coefficient must stay positive: need a > |b|")
        if kind == "pwc":
            xb = np.asarray(self.coeff["x_breaks"], dtype=float)
            rc = np.asarray(self.coeff["region_c"], dtype=float)
            if xb.ndim != 1 or rc.shape != (len(xb) + 1,):
                raise ValueError("pwc coefficient needs one region_c value more "
                                 "than x_breaks values")
            if np.any(rc <= 0):
                raise ValueError("pwc coefficient values must be positive")
            if np.any(np.diff(xb) <= 0):
                raise ValueError("pwc x_breaks must be strictly increasing")
        uid = check_keys(self.u0, ("id", "params"), "problem.u0").get("id", "zero")
        if uid not in _U0_PARAMS:
            raise ValueError(f"unknown initial datum id {uid!r}")
        check_keys(self.u0.get("params", {}), _U0_PARAMS[uid], "problem.u0.params")
        # one evaluation each rejects a missing or wrong-typed parameter here
        initial_state(self.u0, [0.0], 1.0)
        self.coefficient([0.0])
        self.source.eval_mollified(self.j, 0.0, [0.0], [0.0])

    # -- coefficient layout ----------------------------------------------------

    @property
    def smooth_in_x(self):
        """Whether c(x) is smooth (constant or smooth kind), not piecewise."""
        return self.coeff.get("kind", "const") in ("const", "smooth")

    def coefficient(self, x):
        """c(x) at the points x (any shape)."""
        x = np.asarray(x, dtype=float)
        kind = self.coeff.get("kind", "const")
        if kind == "const":
            return np.ones_like(x)
        if kind == "pwc":
            xb = np.asarray(self.coeff["x_breaks"], dtype=float)
            rc = np.asarray(self.coeff["region_c"], dtype=float)
            return rc[np.searchsorted(xb, x, side="right")]
        p = {**_SMOOTH_DEFAULTS, **self.coeff}
        a, b, k, phase = (float(p[name]) for name in _SMOOTH_DEFAULTS)
        return a + b * np.sin(k * x + phase)

    def coefficient_samples(self, x):
        """(samples, weights) per point of x: the coefficient samples whose
        weighted columns sum to its theta_j row.  A smooth coefficient is
        mollified in x with the u-kernel (its values at x - nodes/j); any
        other is taken at x with weight 1."""
        x = np.asarray(x, dtype=float)
        if self.coeff.get("kind") != "smooth":
            return self.coefficient(x)[:, None], [1.0]
        nodes, weights = mollifier_nodes()
        return self.coefficient(x[:, None] - (1.0 / self.j) * nodes), weights

    def initial_values(self, x_centers, dx):
        return initial_state(self.u0, x_centers, dx)

    # -- serialization ----------------------------------------------------------

    def to_dict(self):
        return {
            "domain": {"x_lo": self.x_lo, "x_hi": self.x_hi, "T": self.T, "pad": self.pad},
            "theta": {"graph": self.theta_graph.to_dict(), "coeff": dict(self.coeff)},
            "flux": {"curve": self.flux.to_dict(), "gap_slope": self.gap_slope},
            "source": self.source.to_dict(),
            "u0": {"id": self.u0.get("id", "zero"), "params": dict(self.u0.get("params", {}))},
            "indices": {
                "j": self.j,
                "ell": json_number(self.ell),
                "m": json_number(self.m),
            },
            "sample_radius": self.sample_radius,
        }

    @staticmethod
    def from_dict(d):
        check_keys(d, ("domain", "theta", "flux", "source", "u0", "indices",
                       "sample_radius"), "problem")
        check_values(d, "problem.", _NUMBER_KEYS)
        dom = check_keys(d["domain"], ("x_lo", "x_hi", "T", "pad"), "problem.domain")
        theta = check_keys(d["theta"], ("graph", "coeff"), "problem.theta")
        flux = check_keys(d["flux"], ("curve", "gap_slope"), "problem.flux")
        curve = check_keys(flux["curve"], ("samples", "jumps"), "problem.flux.curve")
        if not isinstance(curve.get("jumps", []), list):
            raise ValueError("problem.flux.curve.jumps must be a list")
        for jump in curve.get("jumps", []):
            check_keys(jump, ("z", "left", "right"), "problem.flux.curve.jumps entry")
        idx = check_keys(d.get("indices", {}), ("j", "ell", "m"), "problem.indices")
        j = idx.get("j", 16)
        if not (isinstance(j, int) or (isinstance(j, float) and j.is_integer())):
            raise ValueError(f"indices.j must be an integer >= 1, not {j!r}")
        return ProblemSpec(
            x_lo=float(dom["x_lo"]),
            x_hi=float(dom["x_hi"]),
            T=float(dom["T"]),
            theta_graph=MonotoneGraph.from_dict(check_keys(
                theta["graph"], ("breakpoints", "jumps", "slopes", "tail_slopes"),
                "problem.theta.graph")),
            coeff=theta.get("coeff", {"kind": "const"}),
            flux=FluxCurve.from_dict(curve),
            source=SourceSpec.from_dict(d.get("source", {"id": "zero"})),
            u0=d.get("u0", {"id": "zero"}),
            j=int(j),
            ell=float(idx.get("ell", 1.0)),
            m=float(idx.get("m", 1.0)),
            gap_slope=float(flux.get("gap_slope", 1.0)),
            sample_radius=float(d.get("sample_radius", 2.0)),
            pad=float(dom.get("pad", 0.0)),
        )


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------


# resolution of the sampled hypothesis checks: cells of the domain and
# points of [-sample_radius, sample_radius]
CHECK_CELLS = 64
CHECK_U = 65


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict
    note: str

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": self.witness,
            "note": self.note,
        }


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}


def validate_spec(spec):
    """Discrete hypothesis checks; returns a structured report, never raises."""
    checks = []
    x = np.linspace(spec.x_lo, spec.x_hi, CHECK_CELLS + 1)
    centers = 0.5 * (x[:-1] + x[1:])
    dx = x[1] - x[0]
    cell_c = spec.coefficient(centers)

    # ProblemSpec rejects c <= 0, so theta(x_i, .) = c(x_i) g scales the
    # value sets of g, its minimal selection included, cell by cell
    R = spec.sample_radius

    # theta passes through (x, 0, 0) in every cell
    lo, hi = spec.theta_graph.value_interval(0.0)
    lo, hi = lo * cell_c, hi * cell_c
    bad = {}
    for i in np.flatnonzero((lo > 1e-12) | (hi < -1e-12))[:1]:
        bad = {"cell": int(i), "value_interval": [float(lo[i]), float(hi[i])]}
    checks.append(
        CheckResult(
            "theta_zero",
            not bad,
            bad,
            "0 in theta(x, 0) cell by cell",
        )
    )

    # coercivity envelopes h1 <= |minimal selection| <= h2 on [-R, R]
    us = np.linspace(-R, R, CHECK_U)
    sel = np.abs(spec.theta_graph.minimal_selection(us)) * cell_c[:, None]
    h1 = sel.min(axis=0)
    h2 = sel.max(axis=0)
    mid = CHECK_U // 2
    mono_ok = bool(
        np.all(np.diff(h1[mid:]) >= -1e-9) and np.all(np.diff(h1[: mid + 1]) <= 1e-9)
    )
    ends_ok = bool(h1[0] > 0.0 and h1[-1] > 0.0)
    witness = {}
    if not ends_ok:
        witness = {"h1_at_-R": float(h1[0]), "h1_at_+R": float(h1[-1])}
    if not mono_ok:
        witness["h1"] = [float(v) for v in h1]
    checks.append(
        CheckResult(
            "theta_envelopes",
            mono_ok and ends_ok,
            witness,
            f"min envelope h1 in [{h1.min():.3g}, {h1.max():.3g}], "
            f"max envelope h2 up to {h2.max():.3g} on |u| <= {R}",
        )
    )

    # source vanishes at u = 0
    ts = np.linspace(0.0, spec.T, 5)
    worst = 0.0
    for t in ts:
        worst = max(worst, float(np.abs(spec.source.eval(t, centers, np.zeros(CHECK_CELLS))).max()))
    checks.append(
        CheckResult(
            "source_zero",
            worst <= 1e-14,
            {} if worst <= 1e-14 else {"max_abs": worst},
            "f(t, x, 0) = 0 on the sampling grid",
        )
    )

    # source dissipativity on sampled pairs
    upairs = np.linspace(-R, R, 17)
    worst_val = -np.inf
    worst_wit = {}
    for t in (0.0, 0.5 * spec.T, spec.T):
        for xi in centers[:: max(1, CHECK_CELLS // 8)]:
            fv = spec.source.eval(t, np.full_like(upairs, xi), upairs)
            prod = (fv[:, None] - fv[None, :]) * (upairs[:, None] - upairs[None, :])
            k = int(np.argmax(prod))
            val = float(prod.flat[k])
            if val > worst_val:
                worst_val = val
                a, b = divmod(k, len(upairs))
                worst_wit = {"t": float(t), "x": float(xi), "u": float(upairs[a]), "v": float(upairs[b])}
    diss_ok = worst_val <= 1e-12
    checks.append(
        CheckResult(
            "source_dissipative",
            diss_ok,
            {} if diss_ok else dict(worst_wit, value=worst_val),
            "(f(u) - f(v)) (u - v) <= 0 on sampled pairs",
        )
    )

    # initial datum compactly supported inside the padded domain
    fine = np.linspace(spec.x_lo, spec.x_hi, 1025)
    vals = initial_state(spec.u0, fine, (spec.x_hi - spec.x_lo) / 1024)
    margin = max(spec.pad, 2.0 * dx)
    edge = (fine < spec.x_lo + margin) | (fine > spec.x_hi - margin)
    sup_edge = float(np.abs(vals[edge]).max()) if edge.any() else 0.0
    supp_ok = sup_edge <= 1e-14
    checks.append(
        CheckResult(
            "u0_support",
            supp_ok,
            {} if supp_ok else {"max_abs_near_boundary": sup_edge, "margin": margin},
            "initial datum vanishes near the domain boundary",
        )
    )

    # flux jumps must compose with every cell graph
    if spec.flux.has_jumps:
        par = build_parametrization(spec.flux, spec.gap_slope)
        err = None
        # sorted(set()), not np.unique, which imports numpy.ma
        for c in sorted(set(cell_c.tolist())):
            try:
                compose_graphs(par.inverse, spec.theta_graph.scaled(float(c)))
            except ValueError as e:
                err = {"coefficient": float(c), "reason": str(e)}
                break
        checks.append(
            CheckResult(
                "flux_jump_composition",
                err is None,
                err or {},
                "flux jumps absorb into the nonlinearity via the plateau map",
            )
        )

    # growth-constant hypotheses are analytic statements about all of R;
    # recorded as informational only
    checks.append(
        CheckResult(
            "growth_constants_info",
            True,
            {},
            "asymptotic growth/coercivity constants are not discretely checkable; "
            "envelopes above cover the sampled range",
        )
    )
    return ValidationReport(checks)
