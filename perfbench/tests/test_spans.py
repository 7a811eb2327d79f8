import sys
import threading
import time

import numpy as np
import pytest

import spans
from spans import POOL_SPAN, Span, Tracer, self_time, union_length


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.75)]) == 3.0


def test_self_time_with_overlapping_children_from_two_threads():
    parent = Span("p", 0.0, 10.0, thread=1)
    parent.children = [Span("a", 1.0, 6.0, parent, thread=2),
                       Span("b", 4.0, 8.0, parent, thread=3)]
    # children cover [1, 8]; summing their durations would give 1 - 10 < 0
    assert self_time(parent) == pytest.approx(3.0)


def test_worker_thread_spans_attach_to_the_pool_span():
    tracer = Tracer()
    work = tracer.wrap(lambda: time.sleep(0.05), "member", None)
    pool = tracer._enter(POOL_SPAN)
    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer._exit(pool)
    members = [s for s in tracer.spans if s.name == "member"]
    assert len(members) == 2
    assert all(s.parent is pool for s in members)
    assert {s.thread for s in members} != {pool.thread}
    covered = union_length([(s.start, s.end) for s in members])
    assert self_time(pool) == pytest.approx(
        pool.end - pool.start - covered)
    assert self_time(pool) >= 0.0


def test_every_layer_resolves_to_a_callable():
    import balancelab.cli  # noqa: F401
    for module, path, _, _ in spans.LAYERS:
        owner, attr = spans._resolve(sys.modules["balancelab." + module],
                                     path)
        assert callable(owner.__dict__[attr])


def _namespaces():
    return {n: dict(m.__dict__) for n, m in sys.modules.items()
            if n == "balancelab" or n.startswith("balancelab.")}


def _small_run():
    from balancelab import Grid1D, solve
    from workloads import make_config
    from balancelab.config import RunConfig
    cfg = RunConfig.from_dict(make_config("converge-riemann", 0))
    return solve(cfg.problem, Grid1D(-2.0, 2.0, 32), snapshots=2)


def test_wrappers_are_removed_after_a_traced_run():
    import balancelab.cli
    import balancelab.entropy
    import balancelab.solver
    before = _namespaces()
    classes = (balancelab.solver.RegularizedProblem,
               balancelab.entropy.ResidualEvaluator)
    methods = [dict(c.__dict__) for c in classes]

    tracer = Tracer()
    tracer.install()
    try:
        assert balancelab.cli.solve is not before["balancelab.cli"]["solve"]
        assert balancelab.cli.solve is balancelab.harness.solve
        run = _small_run()
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"solver.solve", "solver.regularized",
            "solver.numerical_flux"} <= names
    assert tracer.counts["solver.steps"] == run.n_steps

    assert _namespaces() == before
    assert [dict(c.__dict__) for c in classes] == methods
    n_spans = len(tracer.spans)
    _small_run()
    assert len(tracer.spans) == n_spans


def test_metrics_report_counts_and_ratios():
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        _small_run()
        _small_run()
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    m = tracer.metrics(t0, t1)
    assert m["solver.regularized.calls"] == (2, "count")
    assert m["solver.regularized.repeats"] == (1, "count")
    assert m["solver.regularized.repeat_ratio"] == (0.5, "ratio")
    assert m["solver.numerical_flux.calls"][0] == m["solver.steps"][0]
    assert m["solver.cell_steps"][0] == 32 * m["solver.steps"][0]
    width = m["solver.numerical_flux.max_width"][0]
    assert 1 <= width
    assert m["solver.numerical_flux.gather_elems"][0] <= \
        33 * width * m["solver.steps"][0]
    assert 0.0 < m["trace.coverage"][0] <= 1.0
    assert np.isfinite(m["solver.numerical_flux.self_s"][0])


def test_count_hooks_are_not_charged_to_the_enclosing_span():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner",
                        lambda tr, args, result: time.sleep(0.05))
    outer = tracer.wrap(inner, "outer", None)
    outer()
    (span,) = [s for s in tracer.spans if s.name == "outer"]
    assert span.end - span.start >= 0.05
    assert self_time(span) < 0.01
    assert {s.name for s in tracer.spans} == {"inner", "outer"}
