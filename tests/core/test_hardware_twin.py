"""The hardware twin compiled from shapes equals the full-width one.

``LibraryGenerator._compile_hardware_twin`` builds each design point's
accelerator from the accuracy twin's streamlined graph at hardware
widths, with counts from a :class:`~repro.pruning.CountPlan`. The
oracle (:mod:`tests.core.hardware_oracle`) prunes, quantizes, exports
and streamlines the full-width twin instead. Without zero-skipping the
two must give the same modules, exit paths, resources and
``hw_achieved_rate`` on every variant, criterion, paper rate and
precision, at full and at quarter hardware width.
"""

import pytest

from repro.core import AdaPExConfig, LibraryGenerator
from repro.pruning import PruningError, paper_rate_sweep

from .hardware_oracle import (accuracy_twin_graph, full_width_accelerator,
                              full_width_layer_costs)

CRITERIA = ("l1", "fpgm", "hapm")
PRECISIONS = ("base", "int8")


def _contexts(resource_width_scale, width_scale=None):
    cfg = AdaPExConfig.quick(seed=0)
    cfg.criteria = list(CRITERIA)
    cfg.resource_width_scale = resource_width_scale
    gen = LibraryGenerator(cfg)
    contexts = []
    for variant, exits_cfg, pruned_exits in gen._variants():
        # Untrained accuracy twin: the hardware twin reads only its
        # graph's topology and precisions.
        scaled_base = gen._build(exits_cfg, width_scale or cfg.width_scale)
        contexts.append(gen._variant_context(variant, exits_cfg,
                                             pruned_exits, scaled_base))
    return gen, contexts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared against the oracle's error
        return exc


def _counts(counts):
    return {c.layer_name: (c.channels_before, c.requested_removal,
                           c.achieved_removal) for c in counts}


@pytest.fixture(scope="module", params=[1.0, 0.25], ids=["hw1.0", "hw0.25"])
def twins(request):
    return _contexts(request.param)


def test_hapm_layer_costs_match(twins):
    gen, contexts = twins
    for ctx in contexts:
        assert ctx.layer_costs == full_width_layer_costs(gen, ctx)


@pytest.mark.parametrize("criterion", CRITERIA)
def test_shape_compile_matches_full_width_twin(twins, criterion):
    gen, contexts = twins
    for ctx in contexts:
        crit = gen._resolve_criterion(ctx, criterion)
        for rate in paper_rate_sweep():
            for precision in PRECISIONS:
                where = (ctx.label, rate, precision, criterion)
                graph = accuracy_twin_graph(gen, ctx, rate, precision,
                                            criterion)
                shape = _outcome(gen._compile_hardware_twin, ctx, rate,
                                 crit, graph)
                oracle = _outcome(full_width_accelerator, gen, ctx, rate,
                                  precision, criterion)
                if isinstance(oracle, Exception):
                    # Infeasible (e.g. INT8 at full width overflows the
                    # device's BRAM): the same error, word for word.
                    assert type(shape) is type(oracle), where
                    assert str(shape) == str(oracle), where
                    continue
                (accel, plan), (full, report) = shape, oracle
                assert accel.modules == full.modules, where
                assert accel.exit_paths == full.exit_paths, where
                assert accel.resources() == full.resources(), where
                assert plan.achieved_rate == report.achieved_rate, where
                assert _counts(plan.counts) == _counts(report.decisions), \
                    where


def test_hardware_base_shared_and_untouched(twins):
    """Variants of one exit topology share one hardware twin, and the
    compiles above (count plans, HAPM's allocation, the oracle's pruning
    and export) left its weights as built."""
    gen, contexts = twins
    shared = {}
    for ctx, (_, exits_cfg, _) in zip(contexts, gen._variants()):
        key = gen._topology_key(exits_cfg)
        assert shared.setdefault(key, ctx.hw_base) is ctx.hw_base
        fresh = gen._build(exits_cfg, gen.config.resource_width_scale)
        state, want = ctx.hw_base.state_dict(), fresh.state_dict()
        assert state.keys() == want.keys()
        for name in state:
            assert state[name].tobytes() == want[name].tobytes(), name
    assert len({id(base) for base in shared.values()}) == len(shared) > 1


@pytest.mark.parametrize("criterion", CRITERIA)
def test_twins_hold_no_gradients(twins, criterion):
    """Nothing trains a hardware twin, so it carries no gradient
    buffers, and every criterion still compiles from it."""
    gen, contexts = twins
    for ctx in contexts:
        assert not any(layer.grads for layer in ctx.hw_base.all_layers())
        crit = gen._resolve_criterion(ctx, criterion)
        graph = accuracy_twin_graph(gen, ctx, 0.5, "base", criterion)
        accel, plan = gen._compile_hardware_twin(ctx, 0.5, crit, graph)
        assert accel.resources().lut > 0
        assert 0 < plan.achieved_rate < 1
        assert not any(layer.grads for layer in ctx.hw_base.all_layers())


def test_infeasible_fold_raises_the_same_error():
    # At width 0.6, exit1_conv has 76 channels but its consumer folds
    # with SIMD 8: neither twin can be pruned.
    gen, contexts = _contexts(0.6, width_scale=0.25)
    ctx = contexts[0]
    crit = gen._resolve_criterion(ctx, "l1")
    graph = accuracy_twin_graph(gen, ctx, 0.4, "base", "l1")
    with pytest.raises(PruningError, match="exit1_conv") as shape_error:
        gen._compile_hardware_twin(ctx, 0.4, crit, graph)
    with pytest.raises(PruningError, match="exit1_conv") as oracle_error:
        full_width_accelerator(gen, ctx, 0.4, "base", "l1")
    assert str(shape_error.value) == str(oracle_error.value)
