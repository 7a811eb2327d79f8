"""Shock and rarefaction capture on a classical Riemann-type datum.

A box datum under the quadratic flux v^2/2 (theta = identity, no source)
resolves into a rarefaction fan at the left edge and a shock at the right
edge whose position follows the equal-flux jump speed.  Both admit closed
forms, so the solver's waves can be measured against the truth: the shock
should sit within a couple of cells of its exact position and the fan
should match in L1.
"""

import os

import numpy as np

from balancelab import Grid1D, load_config, solve

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "configs", "burgers_riemann.json")


def exact_box(x, t, a=-1.0, b=0.5, h=1.0):
    """Box of height h on [a, b] evolved under v^2/2: fan + moving shock."""
    u = np.zeros_like(x)
    fan = (x >= a) & (x < a + h * t)
    u[fan] = (x[fan] - a) / t if t > 0 else h
    shock_x = b + 0.5 * h * t
    plateau = (x >= a + h * t) & (x < shock_x)
    u[plateau] = h
    return u


def main():
    cfg = load_config(CONFIG)
    spec = cfg.problem
    grid = Grid1D(spec.x_lo, spec.x_hi, 1024)
    run = solve(spec, grid, snapshots=4)
    t, u = run.final_t, run.final_u
    x = grid.centers
    truth = exact_box(x, t)

    # Locate the computed shock as the 0.5-level crossing right of center
    # and compare with the exact position b + h t / 2.
    right = x > 0.0
    xr, ur = x[right], u[right]
    i = int(np.argmax(ur < 0.5))
    frac = (ur[i - 1] - 0.5) / (ur[i - 1] - ur[i])
    shock = xr[i - 1] + frac * (xr[i] - xr[i - 1])
    shock_exact = 0.5 + 0.5 * t
    err = abs(shock - shock_exact)
    print("t = %.3f: computed shock at %.5f, exact %.5f, error %.2e "
          "(= %.2f cells)" % (t, shock, shock_exact, err, err / grid.dx))
    assert err <= 2 * grid.dx

    # The rarefaction fan occupies [a, a + t]; measure it in L1 away from
    # the shock so the wave families are judged separately.
    window = x <= 0.2
    fan_l1 = grid.dx * float(np.sum(np.abs(u[window] - truth[window])))
    full_l1 = grid.dx * float(np.sum(np.abs(u - truth)))
    print("rarefaction L1 error %.4f, full-domain L1 %.4f" % (fan_l1, full_l1))
    assert fan_l1 <= 0.02

    # Mass is conserved to rounding at every step, and nothing reached the
    # boundary (the run stayed compactly supported).
    meta = run.metadata()
    print("max per-step mass drift %.2e, boundary max %.2e" % (
        meta["conservation"]["max_step_drift"], meta["boundary_max"]))


if __name__ == "__main__":
    main()
