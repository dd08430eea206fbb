"""Workload-router properties: conservation, stability, SLO awareness."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (ROUTER_POLICIES, ServerSlot, TenantSpec,
                         WorkloadRouter, make_tenants)
from repro.fleet.router import _stable_hash


def slots(n, floors=None):
    floors = floors or [0.0] * n
    return [ServerSlot(i, floors[i]) for i in range(n)]


class TestRoutingConservation:
    """Every stream routed exactly once — the fleet's accounting axiom."""

    @given(count=st.integers(1, 40), n=st.integers(1, 9),
           policy=st.sampled_from(ROUTER_POLICIES),
           vnodes=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_every_tenant_routed_exactly_once(self, count, n, policy,
                                              vnodes):
        tenants = make_tenants(count, slo_tiers=(0.0, 0.85))
        router = WorkloadRouter(policy, vnodes=vnodes)
        assignment = router.assign(tenants, slots(n))
        assert sorted(assignment) == sorted(t.tenant_id for t in tenants)
        assert set(assignment.values()) <= set(range(n))

    @given(count=st.integers(1, 30), n=st.integers(2, 8),
           policy=st.sampled_from(ROUTER_POLICIES),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_conservation_under_server_death(self, count, n, policy,
                                             data):
        tenants = make_tenants(count)
        pool = slots(n)
        router = WorkloadRouter(policy)
        assignment = router.assign(tenants, pool)
        dead = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                 max_size=n))
        moved = router.reroute(tenants, assignment, pool, dead)
        if len(dead) == n:
            # Total loss: nothing to move to; the cluster counts the
            # streams as failover-dropped instead.
            assert moved == {}
            return
        stranded = {tid for tid, sid in assignment.items() if sid in dead}
        assert set(moved) == stranded
        assert all(sid not in dead for sid in moved.values())
        # The merged map still routes every tenant exactly once, and
        # never onto a dead server.
        merged = {**assignment, **moved}
        assert sorted(merged) == sorted(t.tenant_id for t in tenants)
        assert all(sid not in dead for sid in merged.values())

    @given(count=st.integers(1, 30), n=st.integers(2, 8),
           dead=st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_hash_reroute_is_minimal_movement(self, count, n, dead):
        """Consistent hashing: killing one server re-homes only its own
        tenants — the merged map equals a fresh assignment over the
        survivors."""
        dead = dead % n
        tenants = make_tenants(count)
        pool = slots(n)
        router = WorkloadRouter("hash")
        assignment = router.assign(tenants, pool)
        moved = router.reroute(tenants, assignment, pool, {dead})
        survivors = [s for s in pool if s.server_id != dead]
        fresh = router.assign(tenants, survivors)
        assert {**assignment, **moved} == fresh


class TestSLOAwareness:
    def test_slo_tenants_land_on_qualified_servers(self):
        pool = [ServerSlot(0, 0.90), ServerSlot(1, 0.70)]
        tenants = [TenantSpec("strict", slo_accuracy=0.85),
                   TenantSpec("loose", slo_accuracy=0.0)]
        for policy in ROUTER_POLICIES:
            assignment = WorkloadRouter(policy).assign(tenants, pool)
            assert assignment["strict"] == 0

    def test_unsatisfiable_slo_degrades_instead_of_dropping(self):
        pool = [ServerSlot(0, 0.70), ServerSlot(1, 0.72)]
        tenants = [TenantSpec("impossible", slo_accuracy=0.99)]
        for policy in ROUTER_POLICIES:
            assignment = WorkloadRouter(policy).assign(tenants, pool)
            assert "impossible" in assignment  # placed, not dropped

    def test_least_loaded_balances_nominal_rate(self):
        pool = slots(2)
        tenants = make_tenants(8, cameras=1, ips_per_camera=10.0)
        assignment = WorkloadRouter("least-loaded").assign(tenants, pool)
        per_server = [sum(1 for s in assignment.values() if s == sid)
                      for sid in (0, 1)]
        assert per_server == [4, 4]


class TestDeterminismAndValidation:
    def test_assignment_is_deterministic(self):
        tenants = make_tenants(20, slo_tiers=(0.0, 0.8))
        pool = slots(5, floors=[0.9, 0.85, 0.8, 0.75, 0.9])
        for policy in ROUTER_POLICIES:
            router = WorkloadRouter(policy)
            assert router.assign(tenants, pool) \
                == router.assign(tenants, pool)

    def test_bad_policy_and_vnodes_rejected(self):
        with pytest.raises(ValueError, match="router policy"):
            WorkloadRouter("random")
        with pytest.raises(ValueError, match="vnodes"):
            WorkloadRouter("hash", vnodes=0)

    def test_empty_or_duplicate_servers_rejected(self):
        router = WorkloadRouter()
        tenants = make_tenants(2)
        with pytest.raises(ValueError, match="no servers"):
            router.assign(tenants, [])
        with pytest.raises(ValueError, match="duplicate"):
            router.assign(tenants, [ServerSlot(1), ServerSlot(1)])

    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("")
        with pytest.raises(ValueError):
            TenantSpec("t", cameras=0)
        with pytest.raises(ValueError):
            TenantSpec("t", slo_accuracy=1.5)
        with pytest.raises(ValueError):
            make_tenants(0)

    def test_tenant_workload_roundtrip(self):
        t = TenantSpec("t", cameras=3, ips_per_camera=5.0)
        spec = t.workload(12.0)
        assert spec.num_cameras == 3
        assert spec.duration_s == 12.0
        assert t.nominal_ips == pytest.approx(15.0)
        assert spec.nominal_ips == pytest.approx(15.0)


class TestRebalanceAdditions:
    """Scale-up rebalancing: moves land only on added servers, never
    shuffle incumbents among themselves, and respect SLO floors."""

    @given(count=st.integers(1, 30), n=st.integers(1, 6),
           grow=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_hash_growth_is_minimal_movement(self, count, n, grow):
        """Consistent hashing over the grown pool: the merged map equals
        a fresh assignment, and every move targets an added server."""
        tenants = make_tenants(count)
        router = WorkloadRouter("hash")
        assignment = router.assign(tenants, slots(n))
        pool = slots(n + grow)
        added = set(range(n, n + grow))
        moves = router.rebalance_additions(tenants, assignment, pool,
                                           added)
        assert set(moves.values()) <= added
        fresh = router.assign(tenants, pool)
        assert {**assignment, **moves} == fresh

    @given(count=st.integers(2, 24), n=st.integers(1, 4),
           grow=st.integers(1, 3), seed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_least_loaded_growth_never_raises_the_peak(self, count, n,
                                                       grow, seed):
        tenants = make_tenants(count, cameras=1 + seed % 3,
                               ips_per_camera=5.0 + seed)
        router = WorkloadRouter("least-loaded")
        assignment = router.assign(tenants, slots(n))
        pool = slots(n + grow)
        added = set(range(n, n + grow))
        moves = router.rebalance_additions(tenants, assignment, pool,
                                           added)
        assert set(moves.values()) <= added

        def peak(mapping):
            loads = {s.server_id: 0.0 for s in pool}
            for t in tenants:
                loads[mapping[t.tenant_id]] += t.nominal_ips
            return max(loads.values())

        # The greedy only ever relieves a loaded incumbent, so the
        # makespan can never get worse (though a tied second server may
        # keep it flat).
        merged = {**assignment, **moves}
        assert peak(merged) <= peak(assignment) + 1e-9

    def test_no_additions_or_empty_assignment_is_a_noop(self):
        tenants = make_tenants(4)
        router = WorkloadRouter("least-loaded")
        assignment = router.assign(tenants, slots(2))
        assert router.rebalance_additions(tenants, assignment,
                                          slots(2), set()) == {}
        assert router.rebalance_additions(tenants, {}, slots(3),
                                          {2}) == {}

    def test_added_server_must_qualify_for_the_slo(self):
        """A strict-SLO tenant never migrates onto an added server whose
        accuracy floor is below its requirement."""
        tenants = [TenantSpec("strict", cameras=4, ips_per_camera=30.0,
                              slo_accuracy=0.85),
                   TenantSpec("loose", cameras=4, ips_per_camera=30.0)]
        router = WorkloadRouter("least-loaded")
        pool0 = [ServerSlot(0, 0.90)]
        assignment = router.assign(tenants, pool0)
        grown = [ServerSlot(0, 0.90), ServerSlot(1, 0.70)]
        moves = router.rebalance_additions(tenants, assignment, grown,
                                           {1})
        assert moves == {"loose": 1}  # strict stays on the 0.90 floor

    def test_stale_assignment_entries_are_tolerated(self):
        """Retired servers linger in the assignment map mid-campaign;
        reroute and rebalance must ignore them rather than crash."""
        tenants = make_tenants(6)
        router = WorkloadRouter("least-loaded")
        pool = slots(3)
        assignment = router.assign(tenants, pool)
        # Server 2 retired: its slot is gone but the map still points
        # there. A later death of server 0 must still re-home cleanly.
        live = [s for s in pool if s.server_id != 2]
        moved = router.reroute(tenants, assignment, live, {0})
        stranded = {tid for tid, sid in assignment.items() if sid == 0}
        assert set(moved) == stranded
        assert set(moved.values()) <= {1}
        grown = live + [ServerSlot(3)]
        moves = router.rebalance_additions(tenants, assignment, grown,
                                           {3})
        assert set(moves.values()) <= {3}
        # Tenants homed on the stale server are not eligible movers.
        assert all(assignment[tid] != 2 for tid in moves)


class ReferenceRouter:
    """The router without memos: blake2b for every ring point and tenant
    on every call, a linear ring walk, qualified servers per tenant."""

    def __init__(self, policy, vnodes):
        self.policy = policy
        self.vnodes = vnodes

    @staticmethod
    def qualified(tenant, servers):
        ok = [s for s in servers
              if s.min_accuracy + 1e-9 >= tenant.slo_accuracy]
        return ok or list(servers)

    def assign_hash(self, tenants, servers):
        ring = sorted((_stable_hash(f"server-{s.server_id}#{v}"),
                       s.server_id)
                      for s in servers for v in range(self.vnodes))
        out = {}
        for t in tenants:
            allowed = {s.server_id for s in self.qualified(t, servers)}
            pos = bisect_left(ring, (_stable_hash(t.tenant_id), -1))
            for k in range(len(ring)):
                sid = ring[(pos + k) % len(ring)][1]
                if sid in allowed:
                    out[t.tenant_id] = sid
                    break
        return out

    def assign_least_loaded(self, tenants, servers, loads):
        out = {}
        for t in sorted(tenants, key=lambda t: (-t.nominal_ips,
                                                t.tenant_id)):
            target = min(self.qualified(t, servers),
                         key=lambda s: (loads[s.server_id], s.server_id))
            out[t.tenant_id] = target.server_id
            loads[target.server_id] += t.nominal_ips
        return {t.tenant_id: out[t.tenant_id] for t in tenants}

    def assign(self, tenants, servers):
        if self.policy == "hash":
            return self.assign_hash(tenants, servers)
        return self.assign_least_loaded(
            tenants, servers, {s.server_id: 0.0 for s in servers})

    def reroute(self, tenants, assignment, servers, dead):
        survivors = [s for s in servers if s.server_id not in dead]
        by_id = {t.tenant_id: t for t in tenants}
        stranded = sorted((by_id[tid] for tid, sid in assignment.items()
                           if sid in dead), key=lambda t: t.tenant_id)
        if not survivors or not stranded:
            return {}
        if self.policy == "hash":
            return self.assign_hash(stranded, survivors)
        loads = {s.server_id: 0.0 for s in survivors}
        for tid, sid in assignment.items():
            if sid in loads:
                loads[sid] += by_id[tid].nominal_ips
        return self.assign_least_loaded(stranded, survivors, loads)

    def rebalance_additions(self, tenants, assignment, servers, added):
        by_id = {t.tenant_id: t for t in tenants}
        if self.policy == "hash":
            full = self.assign_hash(
                [by_id[tid] for tid in sorted(assignment)], servers)
            return {tid: sid for tid, sid in full.items()
                    if sid in added and assignment[tid] != sid}
        loads = {s.server_id: 0.0 for s in servers}
        for tid, sid in assignment.items():
            if sid in loads:
                loads[sid] += by_id[tid].nominal_ips
        current = dict(assignment)
        moves = {}
        while True:
            best = None
            for tid in sorted(current):
                sid = current[tid]
                if sid in added or sid not in loads:
                    continue
                t = by_id[tid]
                allowed = {s.server_id for s in self.qualified(t, servers)}
                for dst in sorted(added & allowed):
                    gain = loads[sid] - (loads[dst] + t.nominal_ips)
                    if gain > 1e-12:
                        key = (gain, t.nominal_ips, tid, -dst)
                        if best is None or key > best[0]:
                            best = (key, tid, sid, dst)
            if best is None:
                return moves
            _, tid, src, dst = best
            loads[src] -= by_id[tid].nominal_ips
            loads[dst] += by_id[tid].nominal_ips
            current[tid] = dst
            moves[tid] = dst


@st.composite
def pools(draw, min_size=1):
    ids = draw(st.lists(st.integers(0, 40), min_size=min_size, max_size=8,
                        unique=True))
    return [ServerSlot(sid, draw(st.sampled_from((0.0, 0.1, 0.2))))
            for sid in ids]


class TestRouterMemo:
    """The memoized router (stable tenant and vnode hashes, one
    qualified-server set per SLO value) equals the uncached reference,
    call after call on one instance."""

    @given(policy=st.sampled_from(ROUTER_POLICIES),
           vnodes=st.integers(1, 24), count=st.integers(1, 30),
           tiers=st.sampled_from([(0.0,), (0.0, 0.15), (0.1, 0.25, 0.0)]),
           cameras=st.integers(1, 4), pool=pools(min_size=2),
           extra=pools(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_uncached_reference(self, policy, vnodes, count, tiers,
                                        cameras, pool, extra, data):
        tenants = make_tenants(count, cameras=cameras, slo_tiers=tiers)
        router = WorkloadRouter(policy, vnodes=vnodes)
        ref = ReferenceRouter(policy, vnodes)
        assignment = router.assign(tenants, pool)
        assert assignment == ref.assign(tenants, pool)
        assert list(assignment) == [t.tenant_id for t in tenants]
        ids = [s.server_id for s in pool]
        dead = set(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
        assert router.reroute(tenants, assignment, pool, dead) \
            == ref.reroute(tenants, assignment, pool, dead)
        grown = pool + [s for s in extra if s.server_id not in ids]
        added = {s.server_id for s in grown} - set(ids)
        for _ in range(2):  # the second round runs on warm memos
            assert router.rebalance_additions(
                tenants, assignment, grown, added) \
                == ref.rebalance_additions(tenants, assignment, grown,
                                           added)
            assert router.assign(tenants, grown) \
                == ref.assign(tenants, grown)

    def test_routers_with_different_vnodes_keep_their_own_rings(self):
        pool = slots(5)
        tenants = make_tenants(64)
        coarse = WorkloadRouter("hash", vnodes=2)
        fine = WorkloadRouter("hash", vnodes=32)
        for router in (coarse, fine, coarse, fine):
            assert router.assign(tenants, pool) == ReferenceRouter(
                "hash", router.vnodes).assign(tenants, pool)
        assert len(coarse._ring(pool)[0]) == 5 * 2
        assert len(fine._ring(pool)[0]) == 5 * 32
