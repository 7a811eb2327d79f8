import pytest

import workloads
from balancelab import load_config

SEEDS = range(10)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_writes_byte_identical_files(name, tmp_path):
    a = workloads.write_config(name, 7, str(tmp_path / "a.json"))
    b = workloads.write_config(name, 7, str(tmp_path / "b.json"))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    texts = {workloads.config_text(name, s) for s in SEEDS}
    assert len(texts) == len(SEEDS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_specs_are_valid_and_meet_the_hypotheses(name, tmp_path):
    for seed in SEEDS:
        path = workloads.write_config(name, seed,
                                      str(tmp_path / ("%d.json" % seed)))
        cfg = load_config(path)
        record = workloads.validation_record(path)
        assert record and all(record.values()), (seed, record)
        coeff = cfg.problem.coeff
        if coeff["kind"] == "smooth":
            assert coeff["a"] > abs(coeff["b"])


def test_workload_shapes():
    ym = workloads.make_config("ym-ensemble", 0)
    assert ym["problem"]["u0"]["id"] == "twolobe"
    assert ym["problem"]["indices"]["ell"] != "inf"
    assert ym["schedules"]["j"] == [4, 8, 16, 32, 64]
    conv = workloads.make_config("converge-riemann", 0)
    assert conv["problem"]["u0"]["id"] == "box"
    assert conv["problem"]["theta"]["coeff"] == {"kind": "const"}
    n = conv["grid_sizes"]
    assert n == [n[0], 2 * n[0], 4 * n[0]]
    ver = workloads.make_config("verify-smooth", 0)
    assert ver["problem"]["theta"]["coeff"]["kind"] == "smooth"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_pick_inputs_of_a_finite_family(name):
    n = workloads.N_INPUTS
    assert workloads.config_text(name, 3) == workloads.config_text(name, 3 + n)
    texts = {workloads.config_text(name, s) for s in range(11, 11 + n)}
    assert len(texts) == n
