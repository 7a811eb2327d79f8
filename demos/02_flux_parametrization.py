"""Jump-continuous fluxes and their continuous reparametrization.

A flux A(v) with a jump at v = 0 makes the composition A(theta(x, u))
discontinuous in u, which breaks every tool that wants a continuous
nonlinearity.  The cure is a change of variable: travel along a new
parameter s that spends an interval on each jump, so that U(s) (the state)
climbs through the jump along an affine plateau while calA(s) (the flux)
interpolates the missing values.  Both become continuous and the pair
(U, calA) carries exactly the same information as the original graph.
"""

import numpy as np

from balancelab import FluxCurve, build_parametrization, smooth_flux


def main():
    # Burgers flux plus a unit step at v = 0: A(v) = v^2/2 + H(v).
    flux = FluxCurve.from_pieces(
        lambda v: 0.5 * v * v + np.where(v >= 0.0, 1.0, 0.0),
        jumps=[(0.0, 0.0, 1.0)], lo=-2.0, hi=2.0, n=513)
    print("flux sampled on [%g, %g] with a jump of size %g at v=0"
          % (flux.xs[0], flux.xs[-1], flux.jump_right[0] - flux.jump_left[0]))

    par = build_parametrization(flux, gap_slope=1.0)
    (a, b, z), = par.plateaus
    print("one plateau: s in [%.3f, %.3f] maps to the single state v=%g" % (a, b, z))

    # U is continuous, nondecreasing, flat exactly on the plateau; calA is
    # continuous and strictly increasing across it.
    s = np.linspace(a - 1.0, b + 1.0, 2001)
    U, A = par.U(s), par.calA(s)
    assert np.all(np.diff(U) >= -1e-12)
    on_plateau = (s >= a) & (s <= b)
    assert np.allclose(U[on_plateau], z)
    du = np.max(np.abs(np.diff(U)))
    da = np.max(np.abs(np.diff(A)))
    print("max increment over a %g-wide s step: U %.4f, calA %.4f (both -> 0 "
          "with the step, i.e. continuous)" % (s[1] - s[0], du, da))

    # Off the jump the parametrization is the identity in the state.
    off = np.abs(s) > 1.5
    assert np.allclose(A[off], 0.5 * U[off] ** 2 + (U[off] >= 0.0), atol=1e-6)
    print("away from the jump, calA(s) = A(U(s)) to 1e-6: OK")

    # Smoothing at index j mollifies along s, so even the jump is crossed
    # by a C^1 flux whose steepness grows with j but never overshoots.
    for j in (4, 16, 64):
        sm = smooth_flux(flux, j, -2.0, 2.0)
        vals = sm(0, np.linspace(-2.0, 2.0, 4001))
        assert vals.min() >= flux.ys.min() - 1e-9
        assert vals.max() <= max(flux.ys.max(), flux.jump_right[0]) + 1e-9
        print("  j=%3d: smoothed flux range [%.4f, %.4f], no overshoot" % (
            j, vals.min(), vals.max()))


if __name__ == "__main__":
    main()
