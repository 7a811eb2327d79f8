"""Shared test helpers: seeded random graphs, a canonical problem, the
resolvent and arctan-inverse bisection oracles, the single-test-function
pair gap, the elementwise psi matrices of the quadrature oracles, and the
skip marks of the tests that count a process's OS threads."""

import os

import numpy as np
import pytest

from balancelab.entropy import (ResidualEvaluator, bump_profile, bump_profile_dy,
                               pair_gap_battery)
from balancelab.flux import FluxCurve
from balancelab.monotone import MonotoneGraph
from balancelab.problem import ProblemSpec, SourceSpec

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="no /proc/self/task to count threads")
needs_two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1) < 2,
    reason="OpenBLAS starts no more threads than CPUs")


def canonical_spec(**kw):
    """Burgers flux, identity nonlinearity, smooth bump datum, no source."""
    defaults = dict(
        x_lo=-2.0,
        x_hi=2.0,
        T=0.5,
        theta_graph=MonotoneGraph.identity(),
        coeff={"kind": "const"},
        flux=FluxCurve.from_function(lambda v: 0.5 * v * v, -4.0, 4.0),
        source=SourceSpec("zero"),
        u0={"id": "bump", "params": {"height": 1.0, "a": -1.0, "b": 1.0}},
        j=16,
        ell=1.0,
        m=1.0,
        sample_radius=2.0,
    )
    defaults.update(kw)
    return ProblemSpec(**defaults)


def _interval_at_zero(b, jumps, slopes, tails):
    """Value interval of the raw piecewise data at u = 0 (pre-validation)."""
    K = len(b)
    if K == 0:
        return 0.0, 0.0
    i = int(np.searchsorted(b, 0.0, side="left"))
    if i < K and b[i] == 0.0:
        return jumps[i][0], jumps[i][1]
    if i == 0:
        v = jumps[0][0] + tails[0] * (0.0 - b[0])
        return v, v
    if i == K:
        v = jumps[K - 1][1] + tails[1] * (0.0 - b[K - 1])
        return v, v
    v = jumps[i - 1][1] + slopes[i - 1] * (0.0 - b[i - 1])
    return v, v


def random_monotone_graph(rng, max_breaks=3):
    """Draw a random maximal monotone graph containing (0, 0).

    Mixes flat and sloped pieces, degenerate and genuine jumps, and
    breakpoints placed exactly at 0 so every resolvent branch gets hit.
    """
    K = int(rng.integers(0, max_breaks + 1))
    if K == 0:
        s = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.8 else 0.0
        return MonotoneGraph.line(s)
    b = np.sort(rng.uniform(-3.0, 3.0, size=K))
    while K > 1 and np.diff(b).min() < 0.1:
        b = np.sort(rng.uniform(-3.0, 3.0, size=K))
    if rng.random() < 0.3:
        b[rng.integers(0, K)] = 0.0
        b = np.sort(b)
        if K > 1 and np.diff(b).min() < 1e-12:
            b = np.unique(b)
            K = len(b)
    slopes = np.where(rng.random(max(K - 1, 0)) < 0.25, 0.0, rng.uniform(0.0, 3.0, max(K - 1, 0)))
    heights = np.where(rng.random(K) < 0.4, 0.0, rng.uniform(0.0, 2.0, K))
    tails = tuple(np.where(rng.random(2) < 0.25, 0.0, rng.uniform(0.0, 3.0, 2)).tolist())
    # chain the values left to right, then shift so the graph passes through 0
    jumps = np.empty((K, 2))
    v = 0.0
    for i in range(K):
        jumps[i, 0] = v
        v += heights[i]
        jumps[i, 1] = v
        if i + 1 < K:
            v += slopes[i] * (b[i + 1] - b[i])
    lo0, hi0 = _interval_at_zero(b, jumps, slopes, tails)
    offset = lo0 + rng.random() * (hi0 - lo0)
    jumps -= offset
    return MonotoneGraph(b, jumps, slopes, tails)


def resolvent_bisect(graph, lam, w, tol=1e-12):
    """Bisection fallback/oracle for the resolvent (scalar w)."""
    w = float(w)
    lo, hi = w - 1.0, w + 1.0

    def above(u):
        vlo, vhi = graph.value_interval(u)
        return u + lam * vlo > w

    def below(u):
        vlo, vhi = graph.value_interval(u)
        return u + lam * vhi < w

    while below(hi):
        hi += max(1.0, abs(hi))
    while above(lo):
        lo -= max(1.0, abs(lo))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        elif below(mid):
            lo = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def _bisect_inverse(fn, v, lo=-6.0, hi=6.0, iters=200):
    """Solve fn(u) = v for increasing fn by plain bisection (vectorized)."""
    v = np.asarray(v, dtype=float)
    lo = np.full_like(v, lo)
    hi = np.full_like(v, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        take_hi = fn(mid) >= v
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


def _oracle_arctan_inverse_errors(ns, n_grid=1000):
    """Sup distance of (u + (2/pi)atan(nu))^{-1} to the inverse of u + Sgn(u)
    on [-2, 2]: bisection on the defining relation, no package code."""
    ys = np.linspace(-2.0, 2.0, n_grid)
    ginv = np.where(ys > 1.0, ys - 1.0, np.where(ys < -1.0, ys + 1.0, 0.0))
    out = []
    for n in ns:
        finv = _bisect_inverse(lambda u: u + (2.0 / np.pi) * np.arctan(n * u), ys)
        out.append(float(np.abs(finv - ginv).max()))
    return out


def pair_gap(kind, run1, run2, reg1, reg2, psi):
    """Single test-function variant of ``pair_gap_battery``."""
    return float(pair_gap_battery(kind, ResidualEvaluator(run1, reg1),
                                  ResidualEvaluator(run2, reg2), [psi])[0])


def psi_matrices(psi, t, x):
    """(psi, psi_t, psi_x) as (len(t), len(x)) matrices, built elementwise
    from the bump profile as independent oracles of the factored
    quadrature."""
    zt = (np.asarray(t, dtype=float) - psi.t_center) / psi.r_t
    zx = (np.asarray(x, dtype=float) - psi.x_center) / psi.r_x
    return (np.outer(bump_profile(zt), bump_profile(zx)),
            np.outer(bump_profile_dy(zt) / psi.r_t, bump_profile(zx)),
            np.outer(bump_profile(zt), bump_profile_dy(zx) / psi.r_x))
