"""Reconfiguration controller tests."""

import pytest

from repro.runtime import AcceleratorId, ReconfigurationController


def aid(rate):
    return AcceleratorId(pruning_rate=rate, pruned_exits=True, variant="ee")


class TestReconfigurationController:
    def test_initial_load_charged(self):
        ctrl = ReconfigurationController()
        dead = ctrl.switch(aid(0.0), now_s=0.0)
        assert dead == pytest.approx(0.145)
        assert ctrl.count == 1
        assert ctrl.runtime_swaps() == []  # initial load isn't a swap

    def test_same_target_free(self):
        ctrl = ReconfigurationController()
        ctrl.switch(aid(0.0))
        assert ctrl.switch(aid(0.0)) == 0.0
        assert ctrl.count == 1

    def test_paper_anecdote_four_swaps(self):
        """Four pruning-rate changes cost ~580 ms total (paper Sec VI-B)."""
        ctrl = ReconfigurationController()
        ctrl.switch(aid(0.05), now_s=0.0)
        total = 0.0
        for t, rate in [(3.0, 0.20), (8.0, 0.30), (15.0, 0.20), (21.0, 0.05)]:
            total += ctrl.switch(aid(rate), now_s=t)
        assert total == pytest.approx(0.580)
        assert len(ctrl.runtime_swaps()) == 4

    def test_events_recorded(self):
        ctrl = ReconfigurationController()
        ctrl.switch(aid(0.0), now_s=0.0)
        ctrl.switch(aid(0.4), now_s=5.0)
        event = ctrl.events[-1]
        assert event.time_s == 5.0
        assert event.from_accelerator == aid(0.0)
        assert event.to_accelerator == aid(0.4)

    def test_needs_switch(self):
        ctrl = ReconfigurationController()
        assert ctrl.needs_switch(aid(0.0))
        ctrl.switch(aid(0.0))
        assert not ctrl.needs_switch(aid(0.0))
        assert ctrl.needs_switch(aid(0.1))

    def test_total_dead_time(self):
        ctrl = ReconfigurationController(reconfig_time_s=0.1)
        ctrl.switch(aid(0.0))
        ctrl.switch(aid(0.1))
        assert ctrl.total_dead_time_s == pytest.approx(0.2)


class TestDeadTimeUnderJitter:
    """The paper's 4-swap = 580 ms anecdote must stay consistent when
    reconfiguration latency jitter is injected."""

    SWAP_PLAN = [(3.0, 0.20), (8.0, 0.30), (15.0, 0.20), (21.0, 0.05)]

    def _run_swaps(self, plan=None):
        from repro.runtime import FaultPlan

        ctrl = ReconfigurationController()
        ctrl.switch(aid(0.05), now_s=0.0)
        for t, rate in self.SWAP_PLAN:
            duration = None
            if plan is not None:
                _, duration = plan.reconfig_outcome(t,
                                                    ctrl.reconfig_time_s)
            ctrl.attempt_switch(aid(rate), now_s=t, duration_s=duration)
        return ctrl

    def test_no_jitter_reproduces_580ms(self):
        from repro.runtime import FaultPlan, FaultSpec

        ctrl = self._run_swaps(FaultPlan(FaultSpec(), seed=0))
        swaps = ctrl.runtime_swaps()
        assert len(swaps) == 4
        assert sum(e.duration_s for e in swaps) == pytest.approx(0.580)

    def test_jittered_dead_time_stays_consistent(self):
        from repro.runtime import FaultPlan, FaultSpec

        jitter = 0.25
        for seed in range(5):
            plan = FaultPlan(FaultSpec(reconfig_jitter=jitter), seed=seed)
            ctrl = self._run_swaps(plan)
            swaps = ctrl.runtime_swaps()
            assert len(swaps) == 4
            total = sum(e.duration_s for e in swaps)
            # Accounting identity: the controller's total equals the
            # per-event sum, jittered or not.
            assert ctrl.total_dead_time_s == pytest.approx(
                0.145 + total)  # + initial load
            # Each jittered swap stays within the configured band, so
            # the 4-swap total lands in [580*(1-j), 580*(1+j)] ms.
            assert 0.580 * (1 - jitter) <= total <= 0.580 * (1 + jitter)
            for e in swaps:
                assert 0.145 * (1 - jitter) <= e.duration_s \
                    <= 0.145 * (1 + jitter)

    def test_jittered_totals_deterministic_per_seed(self):
        from repro.runtime import FaultPlan, FaultSpec

        spec = FaultSpec(reconfig_jitter=0.4)
        a = self._run_swaps(FaultPlan(spec, seed=3))
        b = self._run_swaps(FaultPlan(spec, seed=3))
        assert a.total_dead_time_s == b.total_dead_time_s
        assert [e.duration_s for e in a.events] == \
            [e.duration_s for e in b.events]


class TestPartialReconfigModel:
    def _model(self, **kw):
        from repro.runtime import PartialReconfigModel
        return PartialReconfigModel(**kw)

    def test_validation(self):
        from repro.runtime import PartialReconfigModel
        with pytest.raises(ValueError):
            PartialReconfigModel(regions=0, stage_widths=())
        with pytest.raises(ValueError):
            PartialReconfigModel(exit_regions=8)
        with pytest.raises(ValueError):
            PartialReconfigModel(stage_widths=(64,))
        with pytest.raises(ValueError):
            PartialReconfigModel(overhead_s=0.2)  # > full_time_s

    def test_signature_distinguishes_designs(self):
        m = self._model()
        assert m.signature(aid(0.0)) != m.signature(aid(0.4))
        backbone = AcceleratorId(pruning_rate=0.0, variant="backbone")
        assert m.signature(aid(0.0)) != m.signature(backbone)
        # The backbone stages of rate-matched ee/backbone builds agree.
        n = len(m.stage_widths)
        assert m.signature(aid(0.0))[:n] == m.signature(backbone)[:n]

    def test_changed_regions(self):
        m = self._model()
        assert m.changed_regions(aid(0.4), aid(0.4)) == 0
        backbone = AcceleratorId(pruning_rate=0.4, variant="backbone")
        # Same rate, ee vs backbone: only the exit regions differ.
        assert m.changed_regions(aid(0.4), backbone) == m.exit_regions
        # A rate change rewrites every stage plus the exits.
        assert m.changed_regions(aid(0.0), aid(0.8)) == m.regions

    def test_switch_time_below_full(self):
        m = self._model()
        full = m.full_time_s
        assert m.switch_time_s(None, aid(0.4)) == pytest.approx(full)
        assert m.switch_time_s(aid(0.4), aid(0.4)) == 0.0
        backbone = AcceleratorId(pruning_rate=0.4, variant="backbone")
        partial = m.switch_time_s(aid(0.4), backbone)
        assert 0.0 < partial < full
        expected = m.overhead_s + (m.exit_regions / m.regions) \
            * (full - m.overhead_s)
        assert partial == pytest.approx(expected)
        # Worst case (every region differs) is capped at a full swap.
        assert m.switch_time_s(aid(0.0), aid(0.8)) <= full

    def test_parse(self):
        from repro.runtime import PartialReconfigModel
        assert PartialReconfigModel.parse("on") == PartialReconfigModel()
        assert PartialReconfigModel.parse("") == PartialReconfigModel()
        m = PartialReconfigModel.parse(
            "regions=4,exit_regions=1,overhead_ms=5,full_ms=100")
        assert m.regions == 4 and m.exit_regions == 1
        assert m.overhead_s == pytest.approx(0.005)
        assert m.full_time_s == pytest.approx(0.100)
        assert len(m.stage_widths) == 3
        with pytest.raises(ValueError):
            PartialReconfigModel.parse("bogus")
        with pytest.raises(ValueError):
            PartialReconfigModel.parse("turbo=9")
        with pytest.raises(ValueError):
            PartialReconfigModel.parse("regions=two")
        with pytest.raises(ValueError):
            PartialReconfigModel.parse("regions=2,exit_regions=2")

    def test_parse_exit_regions_alone(self):
        """``exit_regions`` without ``regions`` keeps the default region
        count and derives the backbone stages from it; ``on`` and
        ``regions=...`` build the same models as before."""
        from repro.runtime import PartialReconfigModel
        m = PartialReconfigModel.parse("exit_regions=3")
        assert (m.regions, m.exit_regions) == (8, 3)
        assert m.stage_widths == (64, 64, 128, 128, 256)
        m = PartialReconfigModel.parse("exit_regions=0,overhead_ms=5")
        assert m.stage_widths == (64, 64, 128, 128, 256, 256, 64, 64)
        assert PartialReconfigModel.parse("exit_regions=2") \
            == PartialReconfigModel.parse("on") == PartialReconfigModel()
        assert PartialReconfigModel.parse("regions=8") == PartialReconfigModel()
        assert PartialReconfigModel.parse("regions=4").stage_widths \
            == (64, 64)
        with pytest.raises(ValueError, match="regions=8 must exceed "
                                             "exit_regions=8"):
            PartialReconfigModel.parse("exit_regions=8")


class TestControllerWithCostModel:
    def test_planned_duration(self):
        from repro.runtime import PartialReconfigModel

        model = PartialReconfigModel()
        ctrl = ReconfigurationController(cost_model=model)
        assert ctrl.planned_duration_s(aid(0.4)) == pytest.approx(
            model.full_time_s)  # nothing loaded yet: full config
        ctrl.switch(aid(0.4))
        assert ctrl.planned_duration_s(aid(0.4)) == 0.0
        backbone = AcceleratorId(pruning_rate=0.4, variant="backbone")
        assert ctrl.planned_duration_s(backbone) == pytest.approx(
            model.switch_time_s(aid(0.4), backbone))

    def test_attempt_switch_charges_partial_cost(self):
        from repro.runtime import PartialReconfigModel

        model = PartialReconfigModel()
        ctrl = ReconfigurationController(cost_model=model)
        ctrl.switch(aid(0.4), now_s=0.0)
        backbone = AcceleratorId(pruning_rate=0.4, variant="backbone")
        ok, dead = ctrl.attempt_switch(backbone, now_s=1.0)
        assert ok
        assert dead == pytest.approx(
            model.switch_time_s(aid(0.4), backbone))
        assert 0.0 < dead < model.full_time_s
        # Flat controller charges the full 145 ms for the same swap.
        flat = ReconfigurationController()
        flat.switch(aid(0.4))
        _, flat_dead = flat.attempt_switch(backbone, now_s=1.0)
        assert dead < flat_dead
