"""The factored battery quadrature against the elementwise oracle.

Every test function is a product psi(t, x) = b_t(t) b_x(x), so the
quadrature of a field against psi is the bilinear form b_t^T G b_x and a
whole battery is evaluated from a few thin matmuls.  The oracle below is
the elementwise sum over the (slab, cell) grid with the psi matrices built
directly from the bump profile.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from balancelab.entropy import (MIN_CELLS_PER_RADIUS, MIN_SLABS_PER_RADIUS,
                                ResolutionError, TestFunction, quadrature)
from conftest import psi_matrices


def _oracle(fields, psis, t, x, dx, slab):
    """dx slab sum(G1 psi_t + G2 psi_x + G3 psi) + dx sum(W0 psi(0, .)),
    one elementwise pass per psi."""
    out = []
    for psi in psis:
        P, Pt, Px = psi_matrices(psi, t, x)
        P0 = psi_matrices(psi, [0.0], x)[0][0]
        G1, G2, G3 = fields[:3]
        res = dx * slab * float(np.sum(G1 * Pt) + np.sum(G2 * Px) + np.sum(G3 * P))
        if len(fields) == 4:
            res += dx * float(np.sum(fields[3] * P0))
        out.append(res)
    return np.asarray(out)


@st.composite
def problems(draw):
    """A grid, random fields, a block shape and a battery whose psis draw
    their time and space factors from small pools, so centres and radii
    are shared, distinct or duplicated; some supports reach t = 0."""
    n_slabs, n_cells = draw(st.integers(16, 72)), draw(st.integers(16, 160))
    T, x_lo, x_hi = 0.5, -2.0, 2.0
    slab, dx = T / n_slabs, (x_hi - x_lo) / n_cells
    block = draw(st.sampled_from([(1, 1), None]))
    if block is None:
        block = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    need_t = max(MIN_SLABS_PER_RADIUS, block[0]) * slab
    need_x = max(MIN_CELLS_PER_RADIUS, block[1]) * dx

    def pool(lo, hi, need, size):
        return [(draw(st.floats(lo, hi)), draw(st.floats(need, max(need, 0.6 * (hi - lo)))))
                for _ in range(size)]

    t_pool = pool(-0.1 * T, 1.1 * T, need_t, draw(st.integers(1, 4)))
    x_pool = pool(x_lo, x_hi, need_x, draw(st.integers(1, 4)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(t_pool) - 1),
                                    st.integers(0, len(x_pool) - 1)),
                          min_size=1, max_size=12))
    psis = [TestFunction(t_pool[a][0], x_pool[b][0], t_pool[a][1], x_pool[b][1])
            for a, b in picks]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fields = [rng.standard_normal((n_slabs, n_cells)) for _ in range(3)]
    if draw(st.booleans()):
        fields.append(rng.standard_normal(n_cells))
    t = (np.arange(n_slabs) + 0.5) * slab
    x = x_lo + (np.arange(n_cells) + 0.5) * dx
    return tuple(fields), psis, t, x, dx, slab, block


@seed(20140408)
@settings(max_examples=200, deadline=None)
@given(problems())
def test_battery_matches_elementwise_oracle(problem):
    fields, psis, t, x, dx, slab, block = problem
    got = quadrature(fields, psis, t, x, dx, slab, block)
    want = _oracle(fields, psis, t, x, dx, slab)
    assert got.shape == (len(psis),)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("block, message", [
    ((1, 1), "test function support unresolved: radius (0.2, 0.05) needs at "
             "least 8 cells and 8 slabs per radius; use n_cells >= 640 and "
             "snapshots >= 20"),
    ((4, 4), "test function support unresolved on the macro-grid: radius "
             "(0.2, 0.05) needs at least 8 cells and 8 slabs per radius; use "
             "n_cells >= 640 and snapshots >= 20; the largest macro shape "
             "that resolves it on this grid is [25, 0]"),
])
def test_one_unresolved_psi_rejects_the_battery(block, message):
    # the resolution check runs on every psi before any arithmetic: the
    # fields are never touched
    t = (np.arange(64) + 0.5) * 0.5 / 64
    x = -2.0 + (np.arange(64) + 0.5) / 16
    good = TestFunction(0.25, 0.0, 0.2, 1.0)
    bad = TestFunction(0.25, 0.0, 0.2, 0.05)
    with pytest.raises(ResolutionError) as err:
        quadrature(None, [good, bad, good], t, x, 1 / 16, 0.5 / 64, block)
    assert str(err.value) == message
