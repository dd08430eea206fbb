"""Fleet campaign simulator: N edge servers sharded across processes.

One campaign simulates a whole fleet — each server its own FPGA,
:class:`~repro.runtime.RuntimeManager` and fastsim path — serving the
camera streams of many tenants at once. The design rule that makes the
campaign byte-identical across ``--workers 1/2/4`` is **all randomness
and all cross-server coupling happen in the parent**:

1. the reconfiguration coordinator computes every server's decision-tick
   offset (:mod:`repro.fleet.coordinator`);
2. the correlated fault plan decides which racks die and when
   (:mod:`repro.fleet.faults`);
3. the router places every tenant, and re-places the stranded ones
   (:mod:`repro.fleet.router`);
4. each tenant's arrival trace is generated from ``(seed, tenant_idx)``
   and cut/merged into per-server :class:`ShardWorkload` traces —
   including the failover transformation (thundering-herd burst or
   clean drop).

What remains is embarrassingly parallel: one independent
:class:`~repro.edge.server.EdgeServerSimulator` run per server, fanned
out over a :class:`~repro.core.supervise.SupervisedPool` (ordered
results; a failed server run raises, naming the server). Policies are
built once per SLO tier in the parent with their O(1) policy tables
compiled (:meth:`RuntimeManager.compile_policy_table`, brownout floors
included); forked workers inherit the pool initializer's arguments,
never pickled, so every worker shares those compiled tables for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.supervise import SuperviseConfig, SupervisedPool
from ..edge.server import EdgeServerSimulator, ServerConfig
from ..runtime.baselines import make_policy
from ..runtime.manager import SelectionPolicy
from .coordinator import ReconfigCoordinator
from .elastic import ElasticConfig, plan_elastic
from .faults import FleetFaultPlan, FleetFaultSpec, transfer_stream
from .metrics import FleetMetrics, ServerRun, merge_fleet
from .router import (ROUTER_POLICIES, ServerSlot, TenantSpec,
                     WorkloadRouter, make_tenants)

__all__ = ["FleetConfig", "FleetResult", "ShardWorkload", "simulate_fleet"]

#: Per-server seed spacing: wide enough that no two servers' derived
#: streams (arrivals use (seed, tenant), sims use seed + 777) collide.
_SERVER_SEED_STRIDE = 1_000_003


@dataclass(frozen=True, eq=False)
class ShardWorkload:
    """One server's precomputed arrival trace.

    Duck-types the workload protocol of
    :class:`~repro.edge.server.EdgeServerSimulator` (``duration_s``,
    ``nominal_ips``, ``arrival_times(seed)``) — the seed is ignored
    because the parent already realized the arrivals. ``duration_s`` is
    the server's *lifetime*: a killed server's shard ends at its kill
    time, so it draws no power and makes no decisions afterwards.
    """

    arrivals: np.ndarray
    duration_s: float
    nominal_ips: float

    def arrival_times(self, seed=0) -> np.ndarray:
        return self.arrivals


@dataclass(frozen=True)
class FleetConfig:
    """Shape and serving parameters of one fleet campaign.

    Servers are numbered ``0..num_servers-1`` and grouped into racks of
    ``rack_size`` consecutive ids (the correlated-failure domain).
    ``slo_tiers`` are accuracy-loss thresholds assigned round-robin over
    servers — each tier gets one shared policy instance, so a fleet of
    thousands of servers still compiles each policy table exactly once.
    ``capacity_fraction`` caps the fleet share that may be mid-
    reconfiguration at once; ``coordinate=False`` disables staggering
    (all offsets zero) for A/B experiments against the coordinator.

    ``brownout_levels`` arms the per-server degradation ladder
    (:class:`~repro.edge.server.ServerConfig`): under queue pressure a
    server steps its accuracy floor down by those deltas tier by tier
    and sheds load only at the bottom rung. Empty (the default) keeps
    the historical hard-admission behaviour, byte for byte.
    """

    num_servers: int = 4
    rack_size: int = 2
    router: str = "hash"
    vnodes: int = 64
    policy: str = "adapex"
    slo_tiers: tuple = (0.10,)
    capacity_fraction: float = 0.25
    coordinate: bool = True
    duration_s: float = 10.0
    decision_interval_s: float = 1.0
    queue_capacity: int = 64
    monitor_window_s: float = 1.0
    reconfig_time_s: float = 0.145
    record_trace: bool = False
    brownout_levels: tuple = ()
    brownout_high: float = 0.85
    brownout_low: float = 0.25
    brownout_shed_occupancy: float = 1.0

    def __post_init__(self):
        if self.num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if self.rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        if self.router not in ROUTER_POLICIES:
            raise ValueError(
                f"router must be one of {ROUTER_POLICIES}, "
                f"got {self.router!r}")
        tiers = tuple(self.slo_tiers)
        if not tiers:
            raise ValueError("slo_tiers must be non-empty")
        for t in tiers:
            if not 0.0 <= t <= 1.0:
                raise ValueError("slo_tiers entries must be in [0, 1]")
        object.__setattr__(self, "slo_tiers", tiers)
        if not 0.0 < self.capacity_fraction <= 1.0:
            raise ValueError("capacity_fraction must be in (0, 1]")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        # Normalize the tuple so configs hash/compare cleanly, then
        # build the ServerConfig every server gets: it owns the rules of
        # the brownout ladder and the serving parameters.
        object.__setattr__(self, "brownout_levels",
                           tuple(self.brownout_levels))
        _server_config(self, 0.0)

    @property
    def num_racks(self) -> int:
        return math.ceil(self.num_servers / self.rack_size)

    def rack_of(self, server_id: int) -> int:
        return server_id // self.rack_size

    def tier_of(self, server_id: int) -> float:
        return self.slo_tiers[server_id % len(self.slo_tiers)]


@dataclass
class FleetResult:
    """Everything one fleet campaign produced."""

    fleet: FleetMetrics
    servers: list = field(default_factory=list)  # of ServerRun
    assignment: dict = field(default_factory=dict)  # tenant -> server
    reroutes: dict = field(default_factory=dict)  # moved tenants only
    dead_servers: dict = field(default_factory=dict)  # server -> kill t
    slo_violations: list = field(default_factory=list)  # tenant ids
    offsets: list = field(default_factory=list)  # decision offsets
    # Elastic-campaign ledgers (empty on fixed-fleet campaigns):
    migrations: list = field(default_factory=list)  # of MigrationEvent
    scale_events: list = field(default_factory=list)  # of ScaleEvent
    utilization: list = field(default_factory=list)  # (t, active, ewma)
    lifetimes: dict = field(default_factory=dict)  # sid -> (start, end)


def _build_policies(library, cfg: FleetConfig) -> dict:
    """One shared policy instance per distinct SLO tier, tables
    precompiled in the parent so forked workers inherit them.

    With a brownout ladder configured, every rung's degraded floor is
    precompiled as an extra policy-table accuracy level: the in-sim
    ladder queries ``select_at(min_accuracy - delta, ...)`` with exactly
    these floats, so the O(1) ``lookup_at`` path stays hot under
    brownout too.
    """
    out = {}
    for tier in sorted(set(cfg.slo_tiers)):
        policy = make_policy(cfg.policy, library,
                             SelectionPolicy(accuracy_loss_threshold=tier))
        compile_table = getattr(policy, "compile_policy_table", None)
        if compile_table is not None:
            compile_table(extra_accuracy_levels=tuple(
                policy.min_accuracy - d for d in cfg.brownout_levels))
        out[tier] = policy
    return out


def _server_config(cfg: FleetConfig, offset: float) -> ServerConfig:
    """The per-server simulator config for one decision offset."""
    return ServerConfig(
        queue_capacity=cfg.queue_capacity,
        decision_interval_s=cfg.decision_interval_s,
        decision_offset_s=offset,
        monitor_window_s=cfg.monitor_window_s,
        reconfig_time_s=cfg.reconfig_time_s,
        record_trace=cfg.record_trace,
        brownout_levels=cfg.brownout_levels,
        brownout_high=cfg.brownout_high,
        brownout_low=cfg.brownout_low,
        brownout_shed_occupancy=cfg.brownout_shed_occupancy)


def _stagger_offsets(cfg: FleetConfig, n: int) -> list:
    """Decision-tick offsets of servers ``0..n-1`` (all zero when the
    coordinator is off)."""
    if not cfg.coordinate:
        return [0.0] * n
    coordinator = ReconfigCoordinator(
        capacity_fraction=cfg.capacity_fraction,
        decision_interval_s=cfg.decision_interval_s,
        max_swap_s=cfg.reconfig_time_s)
    return list(coordinator.schedule(n).offsets)


def _rack_kills(cfg: FleetConfig, faults, n: int, *, seed,
                fault_seed) -> dict:
    """Kill time of every server among ``0..n-1`` whose rack the
    correlated fault plan takes down."""
    if faults is None or faults.racks_lost <= 0:
        return {}
    plan = FleetFaultPlan(faults, seed=(fault_seed, seed))
    killed_racks = plan.realize(math.ceil(n / cfg.rack_size),
                                cfg.duration_s)
    return {sid: killed_racks[cfg.rack_of(sid)] for sid in range(n)
            if cfg.rack_of(sid) in killed_racks}


def _shard_context(cfg: FleetConfig, lifetimes: dict, chunks: dict,
                   nominal: dict, offsets, policies_by_tier: dict,
                   seed: int) -> tuple:
    """Per-server ``(policies, workloads, configs, seeds)`` for every
    server in ``lifetimes`` (``sid -> (start, end)`` in campaign time).

    A server's arrival chunks merge into one sorted trace, shifted into
    server-local time when it came on line late, so standby and retired
    periods draw no idle power and make no decisions.
    """
    policies, workloads, configs, seeds = {}, {}, {}, {}
    for sid, (start, end) in lifetimes.items():
        parts = [c for c in chunks[sid] if len(c)]
        merged = np.sort(np.concatenate(parts)) if parts \
            else np.empty(0, dtype=np.float64)
        if start:
            merged = merged - start
        workloads[sid] = ShardWorkload(arrivals=merged,
                                       duration_s=end - start,
                                       nominal_ips=nominal[sid])
        configs[sid] = _server_config(cfg, offsets[sid])
        seeds[sid] = seed + _SERVER_SEED_STRIDE * (sid + 1)
        policies[sid] = policies_by_tier[cfg.tier_of(sid)]
    return policies, workloads, configs, seeds


def _capacity_ips(library, floor: float) -> float:
    """Serving capacity of a server pinned at accuracy ``floor``: the
    fastest library entry still honouring the floor (the autoscaler's
    utilization denominator)."""
    qualified = [e.serving_ips for e in library.entries
                 if e.accuracy >= floor]
    if qualified:
        return max(qualified)
    return max((e.serving_ips for e in library.entries), default=0.0)


def _accuracy_floor(policy) -> float:
    """The accuracy a server running ``policy`` promises its tenants."""
    floor = getattr(policy, "min_accuracy", None)
    if floor is not None:
        return floor
    # Static baselines (FINN) serve one fixed entry; its accuracy is
    # simultaneously the floor and the ceiling.
    return policy.select(0.0).accuracy


# ----------------------------------------------------------------------
# Per-worker shard context. Installed by the pool initializer; under the
# fork start method the whole tuple — compiled policy tables included —
# is inherited by address space, never pickled.
# ----------------------------------------------------------------------
_FLEET_CONTEXT: tuple | None = None


def _fleet_worker_init(context) -> None:
    global _FLEET_CONTEXT
    _FLEET_CONTEXT = context


def _fleet_task(server_id: int):
    policies, workloads, configs, seeds, server_faults, fault_seed = \
        _FLEET_CONTEXT
    sim = EdgeServerSimulator(
        policies[server_id], workload=workloads[server_id],
        config=configs[server_id], seed=seeds[server_id],
        faults=server_faults, fault_seed=fault_seed)
    return sim.run()


def _run_servers(server_ids, context, workers, progress) -> list:
    """One run per server in ``server_ids`` (results in that order) on
    the ``(policies, workloads, configs, seeds, server_faults,
    fault_seed)`` shard context; the first failed run raises."""
    try:
        return SupervisedPool(
            workers, SuperviseConfig(retries=0), progress=progress,
            label=lambda sid: f"server {sid}",
            initializer=_fleet_worker_init, initargs=(context,),
        ).map(_fleet_task, server_ids)
    finally:
        _fleet_worker_init(None)


def simulate_fleet(library, tenants, config: FleetConfig | None = None, *,
                   seed: int = 0, faults: FleetFaultSpec | None = None,
                   fault_seed: int = 0, elastic: ElasticConfig | None = None,
                   workers=0, progress=None) -> FleetResult:
    """Simulate one fleet campaign; byte-identical for any ``workers``.

    ``tenants`` is a list of :class:`~repro.fleet.router.TenantSpec` (or
    an int, shorthand for :func:`~repro.fleet.router.make_tenants`).
    ``faults`` overlays a correlated :class:`FleetFaultSpec`; its
    realization, the failover routing and the stream transformations all
    happen here in the parent, so the worker count can never change
    which servers die or where a stream lands.

    ``elastic`` arms the elastic control plane
    (:mod:`repro.fleet.elastic`): the fleet starts at ``num_servers``,
    autoscales within ``[min_servers, max_servers]``, health-checks for
    deaths with a phi-accrual detector and live-migrates tenants off
    draining or overloaded servers. All of that planning also happens in
    the parent at decision-tick granularity, so elastic campaigns keep
    the same worker-count byte-identity guarantee. ``elastic=None``
    (default) runs the historical fixed-fleet path unchanged.
    """
    cfg = config or FleetConfig()
    if isinstance(tenants, int):
        tenants = make_tenants(tenants)
    tenants = list(tenants)
    if not tenants:
        raise ValueError("need at least one tenant")
    ids = [t.tenant_id for t in tenants]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate tenant ids")
    if elastic is not None:
        return _simulate_elastic(library, tenants, cfg, elastic,
                                 seed=seed, faults=faults,
                                 fault_seed=fault_seed, workers=workers,
                                 progress=progress)
    n = cfg.num_servers

    # 1. Stagger schedule: one decision-tick offset per server.
    offsets = _stagger_offsets(cfg, n)

    # 2. Policies (one per tier) and the routing view of each server.
    policies_by_tier = _build_policies(library, cfg)
    floors = {tier: _accuracy_floor(p)
              for tier, p in policies_by_tier.items()}
    slots = [ServerSlot(sid, floors[cfg.tier_of(sid)]) for sid in range(n)]

    # 3. Correlated fault realization: which servers die, and when.
    dead = _rack_kills(cfg, faults, n, seed=seed, fault_seed=fault_seed)

    # 4. Routing: initial placement, then failover for the stranded.
    router = WorkloadRouter(cfg.router, vnodes=cfg.vnodes)
    assignment = router.assign(tenants, slots)
    reroutes = router.reroute(tenants, assignment, slots, set(dead)) \
        if dead else {}

    # 5. Per-tenant arrivals, cut and merged into per-server shards.
    reroute_delay = faults.reroute_delay_s if faults is not None else 0.0
    herd = faults.herd if faults is not None else True
    chunks: dict = {sid: [] for sid in range(n)}
    nominal = {sid: 0.0 for sid in range(n)}
    failover_dropped = 0
    herd_delayed = 0
    for i, tenant in enumerate(tenants):
        arrivals = tenant.arrival_times(cfg.duration_s, seed=(seed, i))
        sid = assignment[tenant.tenant_id]
        nominal[sid] += tenant.nominal_ips
        kill = dead.get(sid)
        if kill is None:
            chunks[sid].append(arrivals)
            continue
        new_sid = reroutes.get(tenant.tenant_id)
        # No survivor to take the stream: a rejoin at the horizon makes
        # transfer_stream drop the whole tail at the fleet level.
        rejoin = kill + reroute_delay if new_sid is not None \
            else cfg.duration_s
        head, moved, delayed, dropped = transfer_stream(
            arrivals, kill, rejoin, cfg.duration_s, replay=herd)
        chunks[sid].append(head)  # served before the rack died
        herd_delayed += delayed
        failover_dropped += dropped
        if len(moved):
            chunks[new_sid].append(moved)

    lifetimes = {sid: (0.0, dead.get(sid, cfg.duration_s))
                 for sid in range(n)}
    context = _shard_context(cfg, lifetimes, chunks, nominal, offsets,
                             policies_by_tier, seed)

    # 6. Fan the independent per-server runs out over worker processes.
    server_faults = faults.server_faults if faults is not None else None
    results = _run_servers(range(n),
                           (*context, server_faults, fault_seed),
                           workers, progress)

    # 7. SLO audit + deterministic merge.
    runs = [ServerRun(server_id=sid, rack=cfg.rack_of(sid),
                      tier=cfg.tier_of(sid), killed_at_s=dead.get(sid),
                      metrics=results[sid])
            for sid in range(n)]
    by_sid = {r.server_id: r for r in runs}
    violated = []
    for tenant in tenants:
        serving = [assignment[tenant.tenant_id]]
        moved_to = reroutes.get(tenant.tenant_id)
        if moved_to is not None:
            serving.append(moved_to)
        stranded = serving[0] in dead and moved_to is None
        delivered = min(by_sid[s].metrics.accuracy for s in serving)
        if (stranded and tenant.slo_accuracy > 0.0) \
                or delivered + 1e-9 < tenant.slo_accuracy:
            violated.append(tenant.tenant_id)

    fleet = merge_fleet(
        runs, tenants=len(tenants), rerouted=len(reroutes),
        failover_dropped=failover_dropped, herd_delayed=herd_delayed,
        slo_violations=len(violated), duration_s=cfg.duration_s)
    return FleetResult(fleet=fleet, servers=runs, assignment=assignment,
                       reroutes=reroutes, dead_servers=dead,
                       slo_violations=violated, offsets=offsets)


def _simulate_elastic(library, tenants, cfg: FleetConfig,
                      ecfg: ElasticConfig, *, seed, faults, fault_seed,
                      workers, progress) -> FleetResult:
    """Elastic fleet campaign: same parent-side determinism discipline.

    The server id space covers the whole capacity envelope
    ``0..max_servers-1``; ids ``0..num_servers-1`` are on line at t=0
    and the rest are standby capacity the autoscaler may activate. The
    stagger schedule, fault realization, tier policies and routing slots
    are therefore computed over ``max_servers`` up front — scaling a
    server up never changes any other server's offsets, seeds or tier.
    """
    if cfg.num_servers > ecfg.max_servers:
        raise ValueError(
            f"num_servers ({cfg.num_servers}) exceeds the elastic "
            f"capacity envelope max_servers ({ecfg.max_servers})")
    if cfg.num_servers < ecfg.min_servers:
        raise ValueError(
            f"num_servers ({cfg.num_servers}) is below elastic "
            f"min_servers ({ecfg.min_servers})")
    m = ecfg.max_servers

    # 1. Stagger schedule over the full envelope: activating a standby
    # server must not rephase anyone, so its offset exists from t=0.
    offsets = _stagger_offsets(cfg, m)

    # 2. Policies, routing slots and serving capacities over the
    # envelope (capacity feeds the autoscaler's utilization signal).
    policies_by_tier = _build_policies(library, cfg)
    floors = {tier: _accuracy_floor(p)
              for tier, p in policies_by_tier.items()}
    slots = {sid: ServerSlot(sid, floors[cfg.tier_of(sid)])
             for sid in range(m)}
    capacity = {sid: _capacity_ips(library, floors[cfg.tier_of(sid)])
                for sid in range(m)}

    # 3. Fault realization over the envelope's racks: standby servers
    # can die too (a scale-up onto a doomed rack is a legal outcome the
    # detector must then catch).
    kills = _rack_kills(cfg, faults, m, seed=seed, fault_seed=fault_seed)

    # 4. Initial routing over the on-line servers only.
    router = WorkloadRouter(cfg.router, vnodes=cfg.vnodes)
    initial_slots = [slots[sid] for sid in range(cfg.num_servers)]
    assignment = router.assign(tenants, initial_slots)

    # 5. Realize every tenant stream, then resolve the whole campaign's
    # scaling/migration/failover timeline in the parent.
    arrivals = {t.tenant_id: t.arrival_times(cfg.duration_s,
                                             seed=(seed, i))
                for i, t in enumerate(tenants)}
    reroute_delay = faults.reroute_delay_s if faults is not None else 0.5
    herd = faults.herd if faults is not None else True
    eplan = plan_elastic(
        cfg, ecfg, tenants, arrivals, assignment, slots, capacity,
        kills, herd=herd, reroute_delay_s=reroute_delay, router=router,
        seed=(fault_seed, seed))

    # 6. Shards for every server that was on line at some point.
    live = sorted(eplan.lifetimes)
    lifetimes = {sid: eplan.lifetimes[sid] for sid in live}
    context = _shard_context(cfg, lifetimes, eplan.chunks, eplan.nominal,
                             offsets, policies_by_tier, seed)
    server_faults = faults.server_faults if faults is not None else None
    results = _run_servers(live, (*context, server_faults, fault_seed),
                           workers, progress)

    # 7. SLO audit over each tenant's full serving chain, then the
    # permutation-invariant merge with the elastic ledgers folded in.
    runs = [ServerRun(server_id=sid, rack=cfg.rack_of(sid),
                      tier=cfg.tier_of(sid), killed_at_s=kills.get(sid),
                      metrics=results[i])
            for i, sid in enumerate(live)]
    by_sid = {r.server_id: r for r in runs}
    home = dict(assignment)
    for ev in eplan.migrations:
        home[ev.tenant_id] = ev.dst
    violated = []
    for tenant in tenants:
        tid = tenant.tenant_id
        chain = [s for s in eplan.serving.get(tid, []) if s in by_sid]
        stranded = home.get(tid) is None
        delivered = min((by_sid[s].metrics.accuracy for s in chain),
                        default=0.0)
        if (stranded and tenant.slo_accuracy > 0.0) \
                or delivered + 1e-9 < tenant.slo_accuracy:
            violated.append(tid)

    rerouted = {ev.tenant_id for ev in eplan.migrations
                if ev.reason == "failover" and ev.dst is not None}
    planned = [ev for ev in eplan.migrations if ev.planned]
    dead = {sid: kills[sid] for sid in live if sid in kills}
    fleet = merge_fleet(
        runs, tenants=len(tenants), rerouted=len(rerouted),
        failover_dropped=eplan.failover_dropped,
        herd_delayed=eplan.herd_delayed,
        migrations=len(planned),
        migration_delayed=eplan.migration_delayed,
        autoscale_ups=eplan.autoscale_ups,
        autoscale_downs=eplan.autoscale_downs,
        slo_violations=len(violated), duration_s=cfg.duration_s)
    reroutes = {ev.tenant_id: ev.dst for ev in eplan.migrations
                if ev.reason == "failover" and ev.dst is not None}
    return FleetResult(
        fleet=fleet, servers=runs, assignment=assignment,
        reroutes=reroutes, dead_servers=dead, slo_violations=violated,
        offsets=[offsets[sid] for sid in live],
        migrations=list(eplan.migrations),
        scale_events=list(eplan.scale_events),
        utilization=list(eplan.utilization),
        lifetimes=dict(eplan.lifetimes))
