"""Spans, self time, patch hygiene, and traced-run output identity."""

import importlib

import pytest

from bench.harness import import_program, measure
from bench.trace import LAYERS, Profile, Tracer, install_layers, self_times

import_program()

from bench.workloads import (EvaluateSession, FleetSession,  # noqa: E402
                             Workload, load_fixture, toy_config)
from repro.core import AdaPExFramework  # noqa: E402
from repro.runtime import make_policy  # noqa: E402

_MISSING = object()


def _span(name, start, end, parent):
    return [name, start, end, parent, None, 0]


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 3.0, 6.0, 0),     # overlaps a
        _span("c", 8.0, 9.0, 0),
        _span("late", 9.5, 12.0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx(
        [10.0 - (5.0 + 1.0 + 0.5), 2.0, 1.0, 3.0, 1.0, 2.5])


def test_profile_counts_only_outermost_spans_of_a_name_inside_reps():
    spans = [
        _span("setup", 0.0, 1.0, -1),
        _span("runtime.select", 0.2, 0.3, 0),
        _span("rep", 1.0, 5.0, -1),
        _span("runtime.select", 2.0, 3.0, 2),
        _span("runtime.select", 2.5, 2.75, 3),  # fallback inside select
    ]
    p = Profile(spans, reps=1)
    assert p.calls("runtime.select") == 1
    assert p.total("runtime.select") == pytest.approx(1.0)
    assert p.self_time("runtime.select") == pytest.approx(1.0)
    assert p.per_call("runtime.select") == pytest.approx(0.55)


def _attributes():
    out = {}
    for module, path, *_ in LAYERS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        out[(module, path)] = vars(owner).get(attr, _MISSING)
    return out


def test_every_patched_attribute_is_restored():
    before = _attributes()
    policy = make_policy("adapex", load_fixture())
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert all(_attributes()[k] is not v for k, v in before.items())
        policy.compile_policy_table()
        policy.select(100.0)
        # A recompile rebinds select over the wrapper: restore must hand
        # back the newest binding.
        policy.compile_policy_table()
        newest = vars(policy)["select"].__wrapped__
    finally:
        tracer.restore()
    assert _attributes() == before
    assert vars(policy)["select"] is newest
    assert any(s[0] == "runtime.select" for s in tracer.spans)


def _run(workload, tmp_path, traced):
    tracer = Tracer()
    install_layers(tracer, only=None if traced else workload.op_span)
    try:
        session = workload.setup(7, tmp_path)
        reps = measure(session, workload, 0.0, 1, tracer)
    finally:
        tracer.restore()
    return reps[0], {s[0] for s in tracer.spans}


TINY = [
    Workload("tiny-evaluate", EvaluateSession,
             dict(policies=("adapex", "finn"), runs=2, cameras=4,
                  batch_window_ms=2.0, dispatch_overhead_ms=0.5,
                  partial_reconfig="on", brownout=(0.02, 0.05)),
             "server run", "edge.server_run", 1),
    Workload("tiny-faults", EvaluateSession,
             dict(policies=("adapex", "finn"), runs=1, cameras=2,
                  faults="heavy"),
             "server run", "edge.server_run", 1),
    Workload("tiny-fleet", FleetSession,
             dict(tenants=16, cameras=2, ips_per_camera=10.0,
                  tenant_slos=(0.0, 0.15), ramp_s=3.0, servers=2,
                  max_servers=4, cooldown_s=1.0, duration_s=6.0,
                  fleet_faults="thundering-herd", brownout=(0.02, 0.05)),
             "server run", "edge.server_run", 1),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path):
    before = _attributes()
    plain, plain_names = _run(workload, tmp_path, traced=False)
    traced, names = _run(workload, tmp_path, traced=True)
    assert traced.result.digest == plain.result.digest
    assert plain_names == {"rep", "edge.server_run"}
    assert {"edge.server_run", "edge.arrival_times",
            "runtime.select"} <= names
    assert _attributes() == before


def test_traced_generate_matches_untraced(tmp_path):
    def build(traced):
        tracer = Tracer()
        if traced:
            install_layers(tracer)
        try:
            library = AdaPExFramework(toy_config(5)).build_library(
                point_cache=str(tmp_path / f"cache-{traced}"))
        finally:
            tracer.restore()
        return library.to_json(), {s[0] for s in tracer.spans}

    plain, _ = build(False)
    traced, names = build(True)
    assert traced == plain
    assert {"core.generate", "core.point", "nn.Trainer.fit",
            "ir.ExecutionPlan.run", "pruning.prune_model",
            "finn.compile_accelerator", "core.PointCache.put"} <= names
