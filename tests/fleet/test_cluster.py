"""Cluster campaign determinism: worker-count and seed exactness."""

import numpy as np
import pytest

from repro.edge.cameras import CameraFleet
from repro.fleet import (FleetConfig, ReconfigCoordinator, ShardWorkload,
                         make_tenants, simulate_fleet)


def small_config(**kw):
    defaults = dict(num_servers=4, rack_size=2, duration_s=5.0,
                    slo_tiers=(0.05, 0.10))
    defaults.update(kw)
    return FleetConfig(**defaults)


def small_tenants(count=12):
    return make_tenants(count, cameras=2, ips_per_camera=20.0,
                        slo_tiers=(0.0, 0.80))


def generated_requests(tenants, cfg, seed):
    return sum(
        len(CameraFleet(t.workload(cfg.duration_s),
                        seed=(seed, i)).arrival_times())
        for i, t in enumerate(tenants))


class TestWorkerDeterminism:
    @pytest.mark.parametrize("router", ["hash", "least-loaded"])
    def test_campaign_byte_identical_across_worker_counts(self, router,
                                                          fleet_library):
        cfg = small_config(router=router)
        tenants = small_tenants()
        results = [simulate_fleet(fleet_library, tenants, cfg, seed=3,
                                  workers=w) for w in (1, 2, 4)]
        for other in results[1:]:
            # Dataclass equality is exact float equality field by field.
            assert other.fleet == results[0].fleet
            assert other.servers == results[0].servers
            assert other.assignment == results[0].assignment
            assert other.offsets == results[0].offsets

    def test_seed_reproduces_exactly_and_seeds_differ(self, fleet_library):
        cfg = small_config()
        tenants = small_tenants()
        a = simulate_fleet(fleet_library, tenants, cfg, seed=7)
        b = simulate_fleet(fleet_library, tenants, cfg, seed=7)
        c = simulate_fleet(fleet_library, tenants, cfg, seed=8)
        assert a.fleet == b.fleet and a.servers == b.servers
        assert c.fleet != a.fleet  # different workload realization


class TestConservation:
    def test_fault_free_campaign_conserves_every_request(self,
                                                         fleet_library):
        cfg = small_config()
        tenants = small_tenants()
        result = simulate_fleet(fleet_library, tenants, cfg, seed=3)
        assert result.fleet.total_requests \
            == generated_requests(tenants, cfg, 3)
        assert result.fleet.failover_dropped == 0
        assert result.fleet.herd_delayed == 0
        assert result.fleet.dead_servers == 0
        assert result.reroutes == {}

    def test_every_server_gets_a_run(self, fleet_library):
        cfg = small_config(num_servers=5, rack_size=2)
        result = simulate_fleet(fleet_library, small_tenants(), cfg,
                                seed=0)
        assert [r.server_id for r in result.servers] == list(range(5))
        assert result.fleet.servers == 5
        assert {r.rack for r in result.servers} == {0, 1, 2}


class TestCoordinatedOffsets:
    def test_offsets_follow_the_coordinator_schedule(self, fleet_library):
        cfg = small_config(num_servers=8, capacity_fraction=0.25)
        result = simulate_fleet(fleet_library, small_tenants(), cfg,
                                seed=0)
        expected = ReconfigCoordinator(
            0.25, cfg.decision_interval_s,
            cfg.reconfig_time_s).schedule(8).offsets
        assert tuple(result.offsets) == expected

    def test_no_coordinate_zeroes_every_offset(self, fleet_library):
        cfg = small_config(coordinate=False)
        result = simulate_fleet(fleet_library, small_tenants(), cfg,
                                seed=0)
        assert result.offsets == [0.0] * cfg.num_servers

    def test_stagger_preserves_campaign_determinism(self, fleet_library):
        """The offsets change tick times but not reproducibility."""
        cfg = small_config(num_servers=8)
        a = simulate_fleet(fleet_library, small_tenants(), cfg, seed=1,
                           workers=1)
        b = simulate_fleet(fleet_library, small_tenants(), cfg, seed=1,
                           workers=4)
        assert a.servers == b.servers


class TestShardWorkload:
    def test_duck_types_the_workload_protocol(self):
        arr = np.array([0.1, 0.5, 0.9])
        shard = ShardWorkload(arrivals=arr, duration_s=1.0,
                              nominal_ips=3.0)
        assert shard.arrival_times() is arr
        assert shard.arrival_times(seed=42) is arr  # seed is ignored
        assert shard.duration_s == 1.0
        assert shard.nominal_ips == 3.0


class TestValidation:
    def test_tenant_int_shorthand(self, fleet_library):
        result = simulate_fleet(fleet_library, 4,
                                small_config(duration_s=2.0), seed=0)
        assert result.fleet.tenants == 4

    def test_empty_and_duplicate_tenants_rejected(self, fleet_library):
        with pytest.raises(ValueError, match="at least one tenant"):
            simulate_fleet(fleet_library, [], small_config())
        dup = small_tenants(2) + small_tenants(1)
        with pytest.raises(ValueError, match="duplicate tenant"):
            simulate_fleet(fleet_library, dup, small_config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(num_servers=0)
        with pytest.raises(ValueError):
            FleetConfig(rack_size=0)
        with pytest.raises(ValueError):
            FleetConfig(router="nope")
        with pytest.raises(ValueError):
            FleetConfig(slo_tiers=())
        with pytest.raises(ValueError):
            FleetConfig(slo_tiers=(1.5,))
        with pytest.raises(ValueError):
            FleetConfig(capacity_fraction=0.0)
        with pytest.raises(ValueError):
            FleetConfig(duration_s=0.0)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(brownout_levels=(0.05, 0.02)), "strictly increasing"),
        (dict(brownout_levels=(0.02,), brownout_high=0.2,
              brownout_low=0.9), "brownout_low < brownout_high"),
        (dict(brownout_high=1.5), "brownout_high <= 1"),
    ])
    def test_brownout_ladder_checked_at_construction(self, kwargs,
                                                     message):
        """The ServerConfig every server gets is built with the config,
        so a bad ladder fails before any table compiles or tenant
        routes."""
        with pytest.raises(ValueError, match=message):
            FleetConfig(**kwargs)

    def test_rack_and_tier_layout(self):
        cfg = FleetConfig(num_servers=5, rack_size=2,
                          slo_tiers=(0.05, 0.10, 0.15))
        assert cfg.num_racks == 3
        assert [cfg.rack_of(i) for i in range(5)] == [0, 0, 1, 1, 2]
        assert cfg.tier_of(0) == 0.05
        assert cfg.tier_of(4) == 0.10

    def test_static_baseline_policy_works(self, fleet_library):
        cfg = small_config(policy="finn", duration_s=2.0)
        result = simulate_fleet(fleet_library, small_tenants(4), cfg,
                                seed=0)
        assert result.fleet.reconfigurations == 0
