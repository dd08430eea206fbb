"""Differential tests of ``plan_elastic``'s per-tick window loads.

``plan_elastic`` counts every tenant's arrivals per decision window
once, before the tick loop (``_window_rates``), and each tick sums one
row of them per server (``_window_loads``). The oracle here is the per-tick
form: two ``np.searchsorted`` calls per tenant per tick on the loop's
own float edges (``t = k * interval`` and ``t - interval``), summed in
sorted tenant order. Intervals that are not binary fractions make
``t - interval`` differ from ``(k - 1) * interval`` in the last bit, so
an implementation that rebuilt the lower edges another way would
disagree on arrivals that sit on an edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (ElasticConfig, FleetConfig, ServerSlot,
                         TenantSpec, WorkloadRouter)
from repro.fleet import elastic
from repro.fleet.elastic import _window_rates, plan_elastic

INTERVALS = (0.1, 0.3, 0.7, 1.0)


def oracle_rates(arr, interval, k):
    """One tenant's offered rate over tick ``k``'s window, per tick."""
    t = k * interval
    lo = int(np.searchsorted(arr, t - interval, side="right"))
    hi = int(np.searchsorted(arr, t, side="right"))
    return (hi - lo) / interval


def oracle_loads(arrivals, home, active, interval, k):
    """Per-server offered ips at tick ``k``, summed in tenant order."""
    loads = {sid: 0.0 for sid in active}
    for tid in sorted(home):
        sid = home[tid]
        if sid is None or sid not in loads:
            continue
        loads[sid] += oracle_rates(arrivals[tid], interval, k)
    return loads


def edge_stream(interval, num_ticks):
    """Arrivals placed exactly on both float forms of every lower edge."""
    pts = []
    for k in range(1, num_ticks + 1):
        t = k * interval
        pts += [t, t - interval, (k - 1) * interval]
    return np.sort(np.asarray(pts, dtype=np.float64))


@st.composite
def campaigns(draw):
    interval = draw(st.sampled_from(INTERVALS))
    ticks = draw(st.integers(2, 24))
    # Mostly durations off the tick grid; an exact multiple now and then.
    frac = draw(st.sampled_from((0.0, 0.05, 0.37, 0.5, 0.93)))
    duration = (ticks + frac) * interval
    count = draw(st.integers(1, 10))
    tenants = []
    for i in range(count):
        # Late joiners, some past the horizon (an empty stream).
        start = draw(st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.2)))
        tenants.append(TenantSpec(
            tenant_id=f"t{i:02d}",
            cameras=draw(st.integers(1, 3)),
            ips_per_camera=draw(st.sampled_from((2.0, 7.5, 20.0))),
            slo_accuracy=draw(st.sampled_from((0.0, 0.15))),
            start_s=start * duration))
    servers = draw(st.integers(1, 3))
    max_servers = servers + draw(st.integers(0, 3))
    capacity = draw(st.sampled_from((5.0, 30.0, 200.0)))
    kill = draw(st.sampled_from((None, 0.3, 0.6)))
    policy = draw(st.sampled_from(("hash", "least-loaded")))
    seed = draw(st.integers(0, 2**16))
    return dict(interval=interval, duration=duration, tenants=tenants,
                servers=servers, max_servers=max_servers,
                capacity=capacity, kill=kill, policy=policy, seed=seed)


def run_plan(c):
    """Plan one campaign, recording every ``_window_loads`` call."""
    cfg = FleetConfig(num_servers=c["servers"], rack_size=1,
                      duration_s=c["duration"],
                      decision_interval_s=c["interval"])
    ecfg = ElasticConfig(min_servers=1, max_servers=c["max_servers"],
                         cooldown_s=c["interval"],
                         startup_delay_s=c["interval"],
                         overload_ticks=1)
    slots = {sid: ServerSlot(sid, 0.1 * (sid % 2))
             for sid in range(c["max_servers"])}
    capacity = {sid: c["capacity"] for sid in slots}
    kills = {} if c["kill"] is None else {0: c["kill"] * c["duration"]}
    router = WorkloadRouter(c["policy"], vnodes=8)
    assignment = router.assign(
        c["tenants"], [slots[sid] for sid in range(c["servers"])])
    arrivals = {t.tenant_id: t.arrival_times(c["duration"],
                                             seed=(c["seed"], i))
                for i, t in enumerate(c["tenants"])}
    calls = []
    real = elastic._window_loads

    def spy(row, order, home, active):
        out = real(row, order, home, active)
        calls.append((dict(home), set(active), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elastic, "_window_loads", spy)
        plan = plan_elastic(cfg, ecfg, c["tenants"], arrivals, assignment,
                            slots, capacity, kills, router=router,
                            seed=c["seed"])
    return plan, arrivals, calls


class TestWindowRates:
    @given(interval=st.sampled_from(INTERVALS),
           ticks=st.integers(1, 40), seed=st.integers(0, 2**16),
           frac=st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_tick_searchsorted(self, interval, ticks, seed,
                                           frac):
        duration = (ticks + frac) * interval
        rng = np.random.default_rng(seed)
        streams = [edge_stream(interval, ticks),
                   np.empty(0, dtype=np.float64),
                   np.sort(rng.uniform(0.0, duration, 50)),
                   TenantSpec("late", cameras=2, start_s=duration / 2)
                   .arrival_times(duration, seed=seed)]
        num_ticks = int(np.floor(duration / interval))
        rates = _window_rates(streams, interval, num_ticks)
        assert rates.shape == (num_ticks, len(streams))
        for k in range(1, num_ticks + 1):
            got = rates[k - 1].tolist()
            want = [oracle_rates(arr, interval, k) for arr in streams]
            assert got == want
            assert all(type(v) is float for v in got)

    def test_lower_edge_is_the_loops_own_float(self):
        """0.3 is not a binary fraction: at k=3, t - 0.3 and 2 * 0.3
        differ, and an arrival on either edge must count as the loop
        counts it."""
        interval, k = 0.3, 3
        t = k * interval
        assert t - interval != (k - 1) * interval
        arr = np.sort(np.array([t - interval, (k - 1) * interval, t]))
        rates = _window_rates([arr], interval, k)
        assert rates[k - 1, 0] == oracle_rates(arr, interval, k)


class TestPlanWindowLoads:
    @given(c=campaigns())
    @settings(max_examples=40, deadline=None)
    def test_loads_match_the_per_tick_oracle(self, c):
        plan, arrivals, calls = run_plan(c)
        assert len(calls) == len(plan.utilization)
        for k, (home, active, got) in enumerate(calls, start=1):
            assert plan.utilization[k - 1][0] == k * c["interval"]
            want = oracle_loads(arrivals, home, active, c["interval"], k)
            assert got == want
            assert all(type(v) is float for v in got.values())
        for t, servers, util in plan.utilization:
            assert type(t) is float and type(util) is float
            assert type(servers) is int
        for event in plan.scale_events:
            assert type(event.fleet_utilization) is float
