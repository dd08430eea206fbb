"""Decision-tick phase offsets (the fleet coordinator's stagger knob)."""

import pytest

from repro.edge import ServerConfig, WorkloadSpec
from repro.edge.server import EdgeServerSimulator
from repro.runtime import make_policy


def run_with(policy, offset, sim_mode, seed=0):
    cfg = ServerConfig(decision_offset_s=offset, sim_mode=sim_mode,
                       record_trace=True)
    workload = WorkloadSpec(num_cameras=4, ips_per_camera=40.0,
                            duration_s=6.0, deviation_interval_s=2.0)
    return EdgeServerSimulator(policy, workload=workload, config=cfg,
                               seed=seed).run()


class TestDecisionOffset:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="decision_offset_s"):
            ServerConfig(decision_offset_s=-0.1)

    def test_offset_shifts_the_tick_train(self, toy_library):
        policy = make_policy("adapex", toy_library)
        metrics = run_with(policy, 0.3, "event")
        ticks = metrics.trace["t"]
        assert ticks, "no decision ticks recorded"
        assert ticks == [pytest.approx(0.3 + (k + 1) * 1.0)
                         for k in range(len(ticks))]

    @pytest.mark.parametrize("offset", [0.0, 0.0625, 0.3])
    def test_event_and_vector_engines_agree_bitwise(self, offset,
                                                    toy_library):
        policy = make_policy("adapex", toy_library)
        for seed in (0, 1, 2):
            event = run_with(policy, offset, "event", seed=seed)
            fast = run_with(policy, offset, "auto", seed=seed)
            assert fast == event  # dataclass eq: exact float equality

    def test_default_offset_is_the_historical_schedule(self, toy_library):
        policy = make_policy("adapex", toy_library)
        explicit = run_with(policy, 0.0, "event")
        cfg = ServerConfig(sim_mode="event", record_trace=True)
        workload = WorkloadSpec(num_cameras=4, ips_per_camera=40.0,
                                duration_s=6.0, deviation_interval_s=2.0)
        implicit = EdgeServerSimulator(policy, workload=workload,
                                       config=cfg, seed=0).run()
        assert explicit == implicit
