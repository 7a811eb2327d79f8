import json

import numpy as np

import check


def _write(tmp_path, rows):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "a.json").write_text(json.dumps({"x": rows, "n_cells": 4096,
                                            "flag": True, "inf": "inf"}))
    (out / "b.csv").write_text("k,res\n" + "\n".join(
        "%r,%r" % (i, v) for i, v in enumerate(rows)) + "\n")
    return str(out)


def _snap(out):
    return check.snapshot(out, check.artifact_hashes(out))


def test_numbers_skip_flags_and_labels(tmp_path):
    out = _write(tmp_path, [1.5, -2.0])
    assert check.numbers(out + "/a.json") == [4096.0, 1.5, -2.0]
    assert check.numbers(out + "/b.csv") == [0.0, 1.5, 1.0, -2.0]


def test_scale_leaves_out_integers():
    assert check.scale([4096.0, 0.86, -1.5, 2.0]) == 1.5
    assert check.scale([4096.0, 0.0]) == 1.0


def test_compare_separates_numbers_from_bytes(tmp_path):
    rows = [0.1 * k - 3.0 for k in range(100)]
    ref = _snap(_write(tmp_path, rows))
    assert check.compare(_snap(_write(tmp_path, rows)), ref) == \
        (True, True, None)

    nudged = list(rows)
    nudged[50] += 1e-15  # last-bit move, far inside 1e-12 x scale
    ok, identical, why = check.compare(_snap(_write(tmp_path, nudged)), ref)
    assert ok and not identical and why is None

    ok, _, why = check.compare(_snap(_write(tmp_path, rows[:-1])), ref)
    assert not ok and "numbers" in why


def test_any_one_number_of_thousands_is_checked(tmp_path):
    rng = np.random.default_rng(0)
    rows = list(rng.uniform(-1.3, 1.3, 3000))
    ref = _snap(_write(tmp_path, rows))
    tol = check.REL_TOL * check.scale(ref["a.json"][1])
    for i in (1, 1234, 2999):
        moved = list(rows)
        moved[i] += 10 * tol  # within the files' sums, outside the bound
        ok, _, why = check.compare(_snap(_write(tmp_path, moved)), ref)
        assert not ok and "a.json: number %d " % (i + 1) in why


def test_references_round_trip(tmp_path):
    snap = _snap(_write(tmp_path, [0.25, -1.75]))
    path = str(tmp_path / "refs.npz")
    check.save_references(path, {("w", 3): snap})
    back = check.load_reference(path, "w", 3)
    assert check.compare(snap, back) == (True, True, None)
    assert check.load_reference(path, "w", 4) is None
    assert check.load_reference(str(tmp_path / "none.npz"), "w", 3) is None
