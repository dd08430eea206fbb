"""Power model: calibration band and structural trends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.finn import (
    OperatingPoints,
    PerformanceModel,
    PowerModel,
    PowerReport,
    ResourceEstimate,
    cnv_reference_fold,
    compile_accelerator,
)
from repro.ir import export_model, streamline
from repro.models import CNVConfig, ExitsConfiguration, build_cnv
from repro.nn import post_training_quantize
from repro.pruning import prune_model


def make_accel(exits=None, width=1.0, seed=0):
    model = build_cnv(CNVConfig(width_scale=width, seed=seed), exits)
    model.eval()
    graph = export_model(model)
    streamline(graph)
    return compile_accelerator(graph, cnv_reference_fold(model))


@pytest.fixture(scope="module")
def finn_accel():
    return make_accel()


@pytest.fixture(scope="module")
def ee_accel():
    return make_accel(ExitsConfiguration.paper_default())


class TestCalibration:
    def test_finn_power_band(self, finn_accel):
        """Full-width FINN CNV must land near the paper's ~1.1-1.2 W."""
        pm = PowerModel()
        p = pm.average_power_w(finn_accel, [1.0], 400)
        assert 0.9 < p < 1.4

    def test_exit_overhead_band(self, finn_accel, ee_accel):
        """Exit circuitry costs ~10-30 % power (paper: 16-20 %)."""
        pm = PowerModel()
        p_finn = pm.average_power_w(finn_accel, [1.0], 400)
        p_ee = pm.average_power_w(ee_accel, [0.0, 0.0, 1.0], 400)
        overhead = p_ee / p_finn - 1.0
        assert 0.05 < overhead < 0.35

    def test_energy_band(self, finn_accel):
        """Energy per inference in the paper's few-mJ regime."""
        pm = PowerModel()
        e = pm.energy_per_inference_j(finn_accel, [1.0])
        assert 0.5e-3 < e < 10e-3


class TestTrends:
    def test_power_increases_with_load(self, finn_accel):
        pm = PowerModel()
        p_idle = pm.average_power_w(finn_accel, [1.0], 0.0)
        p_busy = pm.average_power_w(finn_accel, [1.0], 400.0)
        assert p_busy > p_idle > pm.static_base_w

    def test_early_exit_saves_energy(self, ee_accel):
        pm = PowerModel()
        e_final = pm.energy_per_inference_j(ee_accel, [0.0, 0.0, 1.0])
        e_early = pm.energy_per_inference_j(ee_accel, [0.9, 0.05, 0.05])
        assert e_early < e_final

    def test_clock_scales_dynamic(self, finn_accel):
        pm = PowerModel()
        res = finn_accel.resources()
        assert pm.stage_dynamic_w(res, 200.0) == pytest.approx(
            2.0 * pm.stage_dynamic_w(res, 100.0))

    def test_report_consistent(self, finn_accel):
        pm = PowerModel()
        rep = pm.report(finn_accel, [1.0], 300.0)
        assert rep.total_w == pytest.approx(
            pm.average_power_w(finn_accel, [1.0], 300.0))
        assert rep.static_w == pytest.approx(
            pm.static_w(finn_accel.resources()))
        assert rep.energy_per_inference_j > 0


# ----------------------------------------------------------------------
# cost table: cached per-stage costs vs the per-module formula
# ----------------------------------------------------------------------

def _compiled(rate, zero_skip, int8):
    """Pruned (and optionally INT8) paper-exit CNV, compiled."""
    model = build_cnv(CNVConfig(width_scale=0.25, seed=0),
                      ExitsConfiguration.paper_default())
    fold = cnv_reference_fold(model)
    if rate:
        model, _ = prune_model(model, rate)
    if int8:
        model = post_training_quantize(model, 8, 8)
    model.eval()
    graph = export_model(model)
    streamline(graph)
    return compile_accelerator(graph, fold, zero_skip=zero_skip)


_COST_KEYS = [(rate, zero_skip, int8) for rate in (0.0, 0.5, 0.85)
              for zero_skip in (False, True) for int8 in (False, True)]


@pytest.fixture(scope="module")
def cost_accels():
    return {key: _compiled(*key) for key in _COST_KEYS}


def _reference(accel, exit_rates, arrival_ips):
    """The per-entry formulas over each module's own cycles()/resources()."""
    model = PowerModel()
    fractions = PerformanceModel(accel).stage_visit_fractions(exit_rates)
    rates = np.clip(np.asarray(exit_rates, dtype=np.float64), 0.0, 1.0)
    total = sum((m.resources() for m in accel.modules), ResourceEstimate())
    exit_latency = [sum(accel.modules[i].cycles() for i in path)
                    / accel.clock_hz for path in accel.exit_paths]
    latency = float(sum(r * exit_latency[k] for k, r in enumerate(rates)))

    power = model.static_w(total)
    dynamic_j = 0.0
    for idx, module in enumerate(accel.modules):
        visit = fractions.get(idx, 0.0)
        stage_w = model.stage_dynamic_w(module.resources(), accel.clock_mhz)
        busy = min(arrival_ips * visit * module.cycles() / accel.clock_hz,
                   1.0)
        power += (0.10 + (1.0 - 0.10) * busy) * stage_w
        dynamic_j += visit * (module.cycles() / accel.clock_hz) * stage_w
    energy = dynamic_j + model.static_w(total) * latency

    busiest = max((accel.modules[i].cycles() * frac
                   for i, frac in sorted(fractions.items())), default=1.0)
    capacity = float("inf") if busiest <= 0 else accel.clock_hz / busiest
    bound = 1 / latency if latency > 0 else float("inf")
    return {"power": power, "static": model.static_w(total),
            "energy": energy, "latency": latency,
            "capacity": min(bound, capacity)}


_exit_weights = st.lists(st.integers(0, 6), min_size=3, max_size=3).filter(
    lambda w: sum(w) > 0)


class TestCostTable:
    """Every figure from the cached stage costs equals (``==``) the
    formula recomputed from each module, entry by entry."""

    @settings(max_examples=80, deadline=None)
    @given(key=st.sampled_from(_COST_KEYS), weights=_exit_weights,
           arrival=st.one_of(st.just(0.0), st.floats(0.0, 2e5)),
           serve_at_capacity=st.booleans())
    def test_matches_per_module_formula(self, cost_accels, key, weights,
                                        arrival, serve_at_capacity):
        accel = cost_accels[key]
        rates = tuple(w / sum(weights) for w in weights)
        perf = PerformanceModel(accel)
        if serve_at_capacity:
            arrival = perf.serving_capacity_ips(rates)
        ref = _reference(accel, rates, arrival)
        model = PowerModel()
        assert model.average_power_w(accel, rates, arrival) == ref["power"]
        assert model.energy_per_inference_j(accel, rates) == ref["energy"]
        assert perf.average_latency_s(rates) == ref["latency"]
        assert perf.serving_capacity_ips(rates) == ref["capacity"]
        assert model.report(accel, rates, arrival) == PowerReport(
            static_w=ref["static"], dynamic_w=ref["power"] - ref["static"],
            energy_per_inference_j=ref["energy"])

    @pytest.mark.parametrize("key", _COST_KEYS)
    def test_totals_are_module_sums(self, cost_accels, key):
        accel = cost_accels[key]
        assert accel.resources() == sum(
            (m.resources() for m in accel.modules), ResourceEstimate())
        assert accel.stage_cycles == tuple(m.cycles() for m in accel.modules)
        for k, path in enumerate(accel.exit_paths):
            assert accel.exit_cycles(k) == sum(accel.modules[i].cycles()
                                               for i in path)
        assert accel.bottleneck_cycles() == max(m.cycles()
                                                for m in accel.modules)


class TestOperatingPoints:
    """One library entry's figures from ``OperatingPoints.at`` equal the
    separate model queries bit for bit (those stay the reference)."""

    @settings(max_examples=40, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           inflight=st.integers(1, 4))
    def test_matches_separate_queries(self, ee_accel, weights, inflight):
        total = sum(weights)
        rates = tuple(w / total for w in weights) if total > 0 \
            else (0.0, 0.0, 1.0)
        pm = PowerModel()
        perf = PerformanceModel(ee_accel)
        serving = perf.serving_capacity_ips(rates, inflight=inflight)
        expected = (serving, perf.average_latency_s(rates),
                    pm.energy_per_inference_j(ee_accel, rates),
                    pm.average_power_w(ee_accel, rates, 0.0),
                    pm.average_power_w(ee_accel, rates, serving))
        got = OperatingPoints(ee_accel, pm, inflight).at(rates)
        assert got == expected

    def test_single_exit(self, finn_accel):
        pm = PowerModel()
        got = OperatingPoints(finn_accel, pm).at((1.0,))
        perf = PerformanceModel(finn_accel)
        assert got[0] == perf.serving_capacity_ips((1.0,))
        assert got[2] == pm.energy_per_inference_j(finn_accel, (1.0,))

    def test_rejects_bad_input(self, ee_accel):
        with pytest.raises(ValueError):
            OperatingPoints(ee_accel, PowerModel(), inflight=0)
        with pytest.raises(ValueError):
            OperatingPoints(ee_accel, PowerModel()).at((0.5, 0.6, 0.1))
