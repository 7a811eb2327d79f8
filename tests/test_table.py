"""Property tests for the uniform sampled Table.

The references below are the implementations the Table replaced: the
comparison-count inverse over all samples of a row, the per-row
searchsorted inverse, and the n x (widest bracket) gather of slope cells.
The Table must agree with each of them bit for bit, and its LLF query
(both interpolants and the bracket max from one cell pass per side) with
its own interpolation and that gather, both on one-row tables (which scan
interleaved bracket bounds over their slope row) and on tables of several
rows (which gather the samples of the bracket cells first).  Its max |slope|
over one bracket on every row (a column window of its slope scan) must
equal the max of that gather over the rows.
"""

import tracemalloc

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from balancelab.monotone import Table

SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def count_inverse(table, rows, v):
    """Cell index by counting samples below v, one row per point."""
    T = table.values[rows]
    i = np.clip((T < v[:, None]).sum(axis=1) - 1, 0, table.n_samples - 2)
    k = np.arange(T.shape[0])
    lo, hi = T[k, i], T[k, i + 1]
    return table.lo + table.du * (i + (v - lo) / (hi - lo))


def searchsorted_inverse(table, rows, v):
    """Cell index by searchsorted on each row separately."""
    out = np.empty(len(v))
    for p, (r, vp) in enumerate(zip(rows, v)):
        row = table.values[r]
        i = min(max(np.searchsorted(row, vp, side="right") - 1, 0),
                table.n_samples - 2)
        out[p] = table.lo + table.du * (i + (vp - row[i]) / (row[i + 1] - row[i]))
    return out


def gather_range_max(table, rows, lo, hi):
    """Max |slope| per point by gathering a (points, widest bracket) block."""
    n_slope = table.n_samples - 1
    slopes = np.diff(table.values, axis=1) / table.du
    i0 = np.clip(np.floor((lo - table.lo) / table.du).astype(int), 0, n_slope - 1)
    i1 = np.clip(np.ceil((hi - table.lo) / table.du).astype(int), i0 + 1, n_slope)
    width = int((i1 - i0).max())
    idx = np.minimum(i0[:, None] + np.arange(max(width, 1))[None, :], i1[:, None] - 1)
    return np.abs(slopes[rows[:, None], idx]).max(axis=1)


def row_interp(values, lo, du, u):
    """One-row linear interpolation with linear extension."""
    t = (u - lo) / du
    i = np.clip(np.floor(t).astype(int), 0, len(values) - 2)
    return values[i] + (t - i) * (values[i + 1] - values[i])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@st.composite
def tables(draw, increasing=True, n_rows=st.integers(1, 5)):
    n_rows = draw(n_rows)
    n_samples = draw(st.integers(2, 70))
    lo = draw(st.floats(-3.0, 1.0))
    hi = lo + draw(st.floats(0.25, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if increasing:
        steps = rng.uniform(1e-3, 2.0, size=(n_rows, n_samples))
        values = np.cumsum(steps, axis=1) - rng.uniform(0.0, 10.0, size=(n_rows, 1))
    else:
        values = rng.normal(size=(n_rows, n_samples))
    return Table(lo, hi, values), rng


def points(table, rng, n=60):
    """Row per point and values: random, on table nodes, and off range."""
    rows = rng.integers(0, len(table.values), size=n)
    T = table.values
    v = rng.uniform(T.min() - 1.0, T.max() + 1.0, size=n)
    on_node = rng.random(n) < 0.3
    v[on_node] = T[rows[on_node], rng.integers(0, table.n_samples, size=on_node.sum())]
    return rows, v


def states(table, rng, shape):
    """States beyond [lo, hi] and, about a third of them, exactly on sample
    nodes lo + k*du (inside and outside the grid), most of which have
    floor(t) == ceil(t)."""
    u = rng.uniform(table.lo - 1.0, table.hi + 1.0, size=shape)
    on_node = rng.random(shape) < 0.3
    k = rng.integers(-3, table.n_samples + 3, size=on_node.sum())
    u[on_node] = table.lo + k * table.du
    return u


def brackets(table, rng, shape):
    """End states uL, uR; about a fifth of them are ties uL == uR."""
    uL = states(table, rng, shape)
    uR = np.where(rng.random(shape) < 0.2, uL, states(table, rng, shape))
    return uL, uR


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@seed(20140408)
@SETTINGS
@given(tables())
def test_inverse_matches_both_references(case):
    table, rng = case
    rows, v = points(table, rng)
    got = table.inverse(rows, v)
    assert np.array_equal(got, count_inverse(table, rows, v))
    assert np.array_equal(got, searchsorted_inverse(table, rows, v))


@seed(20140409)
@SETTINGS
@given(tables())
def test_inverse_broadcasts_rows_against_values(case):
    # (values, cells) layout: every value against every row
    table, rng = case
    rows, v = points(table, rng, n=12)
    got = table.inverse(rows[None, :], v[:, None])
    for a, va in enumerate(v):
        assert np.array_equal(got[a], count_inverse(table, rows, np.full(len(rows), va)))


@seed(20140410)
@SETTINGS
@given(tables())
def test_inverse_undoes_interpolation(case):
    table, rng = case
    rows = rng.integers(0, len(table.values), size=40)
    u = rng.uniform(table.lo - 1.0, table.hi + 1.0, size=40)
    back = table.inverse(rows, table(rows, u))
    assert np.allclose(back, u, rtol=0, atol=1e-9 * (1.0 + np.abs(u).max()))


@seed(20140411)
@SETTINGS
@given(tables(increasing=False))
def test_call_matches_row_interpolation(case):
    table, rng = case
    rows = rng.integers(0, len(table.values), size=(3, 7))
    u = rng.uniform(table.lo - 1.0, table.hi + 1.0, size=(3, 7))
    got = table(rows, u)
    for idx in np.ndindex(u.shape):
        want = row_interp(table.values[rows[idx]], table.lo, table.du, u[idx])
        assert got[idx] == want


@seed(20140412)
@SETTINGS
@given(tables(increasing=False, n_rows=st.one_of(st.just(1), st.integers(2, 5))))
def test_max_abs_slope_matches_gather_on_every_row(case):
    # brackets past either end of the grid, on nodes and, the first one
    # and about a fifth of the others, with lo == hi
    table, rng = case
    rows = np.arange(len(table.values))
    uL, uR = brackets(table, rng, 20)
    uR[0] = uL[0]
    for lo, hi in zip(np.minimum(uL, uR), np.maximum(uL, uR)):
        got = table.max_abs_slope(float(lo), float(hi))
        want = gather_range_max(table, rows, np.full(len(rows), lo),
                                np.full(len(rows), hi)).max()
        assert type(got) is float
        assert got == want


@seed(20140413)
@SETTINGS
@given(tables(increasing=False, n_rows=st.one_of(st.just(1), st.integers(2, 5))),
       st.sampled_from(["per point", "broadcast", "one row"]))
def test_llf_terms_match_call_and_gather(case, layout):
    # one row per point; per-cell rows against (members, cells) states; row 0;
    # half the tables have one row, the others several
    table, rng = case
    n = 40
    rows = 0 if layout == "one row" else rng.integers(0, len(table.values), size=n)
    uL, uR = brackets(table, rng, (3, n) if layout == "broadcast" else n)
    FL, FR, a = table.llf_terms(rows, uL, uR)
    assert np.array_equal(FL, table(rows, uL))
    assert np.array_equal(FR, table(rows, uR))
    flat = np.broadcast_to(rows, uL.shape).ravel()
    want = gather_range_max(table, flat, np.minimum(uL, uR).ravel(),
                            np.maximum(uL, uR).ravel())
    assert a.shape == uL.shape
    assert np.array_equal(a, want.reshape(uL.shape))


@seed(20140416)
@SETTINGS
@given(tables(increasing=False, n_rows=st.just(1)),
       st.sampled_from(["scalar u, row vector", "2-D u, scalar row",
                        "matching 1-D", "2-D u, row vector"]))
def test_one_row_table_matches_its_row_stacked_twice(case, layout):
    # a one-row table gathers from its row unless rows widens the result;
    # the same row stacked twice gathers (rows, i) pairs, and gathers the
    # bracket cells in llf_terms
    table, rng = case
    twice = Table(table.lo, table.hi, np.vstack([table.values, table.values]))
    n = 40
    rows, shape = {"scalar u, row vector": (np.zeros(n, dtype=int), ()),
                   "2-D u, scalar row": (0, (3, n)),
                   "matching 1-D": (np.zeros(n, dtype=int), (n,)),
                   "2-D u, row vector": (np.zeros(n, dtype=int), (3, n))}[layout]
    uL, uR = brackets(table, rng, shape)
    if shape == ():
        uL, uR = float(uL), float(uR)
    _, i = table._cells(uL)
    assert (table._one_row(rows, i) is None) == (layout == "scalar u, row vector")
    pairs = [(table(rows, uL), twice(rows, uL))]
    pairs += zip(table.llf_terms(rows, uL, uR), twice.llf_terms(rows, uL, uR))
    for got, want in pairs:
        assert np.shape(got) == np.shape(want) == np.broadcast(rows, uL).shape
        assert np.array_equal(got, want)


def test_llf_terms_on_wide_brackets_with_a_row_per_interface():
    # brackets up to about half the grid wide, some running past either
    # end of it, on (cells,) states and on (members, cells) states that
    # broadcast against one row per interface
    rng = np.random.default_rng(20140414)
    n = 129
    table = Table(-2.0, 3.0, rng.normal(size=(n, 257)))
    rows = np.arange(n)
    span = table.hi - table.lo
    for shape in [(n,), (3, n)]:
        mid = rng.uniform(table.lo - 0.1 * span, table.hi + 0.1 * span, size=shape)
        half = rng.uniform(0.0, 0.25 * span, size=shape)
        flip = rng.random(shape) < 0.5
        uL, uR = np.where(flip, mid + half, mid - half), np.where(flip, mid - half, mid + half)
        lo, hi = np.minimum(uL, uR), np.maximum(uL, uR)
        assert (lo < table.lo).any() and (hi > table.hi).any()
        assert (hi - lo).max() > 0.45 * span
        FL, FR, a = table.llf_terms(rows, uL, uR)
        assert np.array_equal(FL, table(rows, uL))
        assert np.array_equal(FR, table(rows, uR))
        flat = np.broadcast_to(rows, shape).ravel()
        want = gather_range_max(table, flat, lo.ravel(), hi.ravel())
        assert np.array_equal(a, want.reshape(shape))


def test_max_abs_slope_over_the_grid_peaks_below_half_a_table():
    # cfl_dt's query, one bracket over the whole grid on every row: the
    # slope cells are scanned a block of rows at a time, and no |slope|
    # array of the table's size is built
    rng = np.random.default_rng(20140415)
    table = Table(-2.0, 2.0, rng.normal(size=(256, 1025)))
    rows = np.arange(256)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = table.max_abs_slope(table.lo, table.hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 0.5 * table.values.nbytes
    want = gather_range_max(table, rows, np.full(256, table.lo), np.full(256, table.hi))
    assert got == want.max() == table.lipschitz


def test_one_row_table_takes_any_shape():
    table = Table.from_function(lambda u: u * u, -1.0, 1.0, n=9)
    u = np.linspace(-1.5, 1.5, 12).reshape(3, 4)
    got = table(0, u)
    assert got.shape == (3, 4)
    assert np.array_equal(got.ravel(), table(0, u.ravel()))

