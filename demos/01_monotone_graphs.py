"""Calculus on maximal monotone graphs.

A multivalued monotone relation like u + Sgn(u) cannot be evaluated
pointwise, but its resolvent (I + lam * theta)^{-1} is an ordinary
1-Lipschitz function for every lam > 0, and the Yosida quotient
(w - resolvent(w)) / lam is an ordinary monotone function that selects
values of theta.  This script walks those facts on a graph with a genuine
vertical segment, then shows how a sequence of smooth approximations
converges to the multivalued limit in the only metric that makes sense
for graphs: the distance between their *inverses*.
"""

import numpy as np

from balancelab import (
    MonotoneGraph,
    Table,
    check_inverse_convergence,
    compose_graphs,
    invert_graph,
    resolvent,
    yosida,
)


def main():
    theta = MonotoneGraph.sign_plus_identity()
    print("graph: u + Sgn(u), vertical segment at 0 spans", theta.value_interval(0.0))

    # Resolvents are single valued and nonexpansive even though theta is not.
    rng = np.random.default_rng(7)
    w = rng.uniform(-3, 3, size=1000)
    for lam in (1e-3, 0.1, 1.0, 10.0):
        r = np.array([resolvent(theta, lam, wi) for wi in w])
        order = np.argsort(w)
        lip = np.max(np.diff(r[order]) / np.diff(w[order]))
        assert lip <= 1.0 + 1e-12
        print(f"  lam={lam:6g}: resolvent Lipschitz constant <= {lip:.6f}")

    # The Yosida approximation selects elements of theta and grows toward
    # the minimal selection as lam shrinks.
    for u in (-0.5, 0.0, 0.75):
        ys = [yosida(theta, lam, u) for lam in (1.0, 0.1, 0.01)]
        lo, hi = theta.value_interval(resolvent(theta, 0.01, u))
        assert lo - 1e-9 <= ys[-1] <= hi + 1e-9
        print(f"  u={u:5.2f}: yosida over lam=1,0.1,0.01 -> {np.round(ys, 4)}"
              f"  (minimal selection {theta.minimal_selection(u):.3f})")

    # Inversion swaps the roles of horizontal and vertical segments; the
    # inverse of u + Sgn(u) has flat pieces instead of a jump, and
    # inverting twice returns the original values.
    inv = invert_graph(theta)
    print("inverse at 0.5 (inside the former jump):", inv.value_interval(0.5))
    double = invert_graph(inv)
    for u in np.linspace(-2, 2, 9):
        assert np.allclose(double.value_interval(u), theta.value_interval(u))
    print("invert twice reproduces the graph on a 9-point probe")

    # Composition keeps maximal monotonicity when the outer graph is
    # nondecreasing: here a saturating outer graph flattens the tails.
    outer = MonotoneGraph.from_knots([[-1.0, -1.0], [1.0, 1.0]], (0.0, 0.0))
    comp = compose_graphs(outer, theta)
    print("composed graph saturates:", comp.value_interval(-5.0),
          comp.value_interval(5.0))

    # Smooth approximations u + (2/pi) arctan(n u) converge to u + Sgn(u).
    # The sup distance between the *inverses* on a window decays like
    # sqrt(2/(pi n)) -- slow but monotone, which is what the check reports.
    # Each approximation is a one-row Table: sampled on a uniform grid,
    # interpolated linearly, and inverted exactly.
    seq = [
        Table.from_function(
            lambda u, n=n: u + (2.0 / np.pi) * np.arctan(n * u), -3.0, 3.0,
            n=8193)
        for n in (1, 4, 16, 64, 256)
    ]
    errs = check_inverse_convergence(seq, theta, (-2.0, 2.0))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    print("inverse sup errors for n=1,4,16,64,256:",
          np.array_str(np.asarray(errs), precision=4))
    print("monotone decrease toward the multivalued limit: OK")


if __name__ == "__main__":
    main()
