"""Elastic fleet control: autoscaling, health checks, live migration.

The PR 7 fleet serves a fixed tenant population on a fixed server set
and reacts only to death. This module adds the control plane that makes
the fleet *elastic*:

* an **autoscaler** that tracks per-server utilization (an EWMA of
  offered load over serving capacity) and spins servers up or down from
  the coordinator's capacity envelope — with a hysteresis band between
  the scale-up and scale-down thresholds and a shared cooldown, so a
  fault spike cannot make the fleet flap;
* a **phi-accrual-style failure detector**: each server emits seeded,
  jittered heartbeats; a death is *suspected* only once the silence
  makes the accrued suspicion cross ``phi_threshold``, which turns the
  instant-failover of PR 7 into a realistic detect-then-drain timeline;
* **live migration**: draining servers (scale-down), sustained-overload
  servers and detected-dead servers hand their tenants over through the
  same generalized backlog transform
  (:func:`repro.fleet.faults.transfer_stream`) — planned migrations
  replay the short hand-off window at the destination and drop nothing,
  failovers keep the PR 7 herd/drop semantics.

Everything here runs in the **parent process at decision-tick
granularity** (the PR 7 determinism pattern): :func:`plan_elastic`
consumes the pre-realized arrival streams and emits per-server stream
chunks, server lifetimes and a migration/scale ledger before a single
shard is dispatched, so campaigns stay byte-identical across
``--workers 1/2/4`` and seed-exact. Request conservation is structural:
every generated frame lands in exactly one server chunk or is counted
``failover_dropped``, so ``total + failover_dropped == generated``
holds with migrations in the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.spec import check_finite, parse_spec
from ..runtime.faults import _category_rng
from .faults import transfer_stream

__all__ = ["ElasticConfig", "MigrationEvent", "ScaleEvent",
           "PhiAccrualDetector", "ElasticPlan", "plan_elastic"]

_LN10 = math.log(10.0)

#: Fleet fault categories use PCG64 streams 100+ (:mod:`.faults`);
#: the heartbeat jitter draws from its own stream in that range.
_DETECTOR_CATEGORY = 110


@dataclass(frozen=True)
class ElasticConfig:
    """Knobs of the elastic control plane.

    The fleet starts at ``FleetConfig.num_servers`` and may grow to
    ``max_servers`` / shrink to ``min_servers``. Utilization is offered
    load over serving capacity, smoothed per server with an EWMA of
    weight ``ewma_alpha``; the fleet scales up when the mean crosses
    ``scale_up_utilization``, down below ``scale_down_utilization``
    (the band between them is the hysteresis dead zone; migrations aim
    at ``target_utilization``), and no two scaling actions happen within
    ``cooldown_s`` of each other. A scaled-up server takes
    ``startup_delay_s`` to come on line; any planned migration replays
    its backlog after a ``handoff_s`` hand-off window. A server whose
    EWMA stays at or above ``overload_utilization`` for
    ``overload_ticks`` consecutive decision ticks gets tenants migrated
    away. ``phi_threshold``, ``heartbeat_interval_s`` and
    ``heartbeat_jitter`` parameterize the failure detector.
    """

    min_servers: int = 1
    max_servers: int = 8
    scale_up_utilization: float = 0.80
    scale_down_utilization: float = 0.30
    target_utilization: float = 0.60
    ewma_alpha: float = 0.30
    cooldown_s: float = 3.0
    startup_delay_s: float = 1.0
    handoff_s: float = 0.25
    overload_utilization: float = 1.10
    overload_ticks: int = 3
    phi_threshold: float = 8.0
    heartbeat_interval_s: float = 0.10
    heartbeat_jitter: float = 0.20

    def __post_init__(self):
        check_finite(self)
        if self.min_servers < 1:
            raise ValueError("min_servers must be >= 1")
        if self.max_servers < self.min_servers:
            raise ValueError("max_servers must be >= min_servers")
        if not (0.0 < self.scale_down_utilization
                < self.target_utilization
                < self.scale_up_utilization):
            raise ValueError(
                "need 0 < scale_down_utilization < target_utilization "
                "< scale_up_utilization")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        for name in ("cooldown_s", "startup_delay_s", "handoff_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"elastic delays must be >= 0, got "
                                 f"{name}={getattr(self, name)!r}")
        if self.overload_utilization <= self.scale_up_utilization:
            raise ValueError(
                "overload_utilization must exceed scale_up_utilization")
        if self.overload_ticks < 1:
            raise ValueError("overload_ticks must be >= 1")
        if self.phi_threshold <= 0:
            raise ValueError("phi_threshold must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if not 0.0 <= self.heartbeat_jitter < 1.0:
            raise ValueError("heartbeat_jitter must be in [0, 1)")

    @classmethod
    def parse(cls, text: str) -> "ElasticConfig":
        """Build a config from a CLI ``key=value[,key=value...]`` list in
        the grammar of :mod:`repro.core.spec` (an empty string gives the
        defaults)."""
        return parse_spec(cls, text, what="elastic")


@dataclass(frozen=True)
class MigrationEvent:
    """One stream hand-off in the migration ledger.

    ``reason`` is one of ``"failover"`` (detected death — may drop),
    ``"overload"`` (sustained per-server overload), ``"drain"``
    (scale-down) or ``"rebalance"`` (onto a freshly scaled-up server);
    everything except failover is *planned* and conserves every frame
    (``dropped == 0``). ``moved`` counts frames transferred to ``dst``,
    ``delayed`` the subset replayed as a burst at ``rejoin_s``,
    ``dropped`` the frames lost (failover only; ``dst is None`` means no
    destination survived).
    """

    tenant_id: str
    src: int
    dst: int | None
    at_s: float
    rejoin_s: float
    moved: int
    delayed: int
    dropped: int
    reason: str

    @property
    def planned(self) -> bool:
        return self.reason != "failover"


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action (``action`` is ``"up"`` or ``"down"``)."""

    at_s: float
    action: str
    server_id: int
    fleet_utilization: float


class PhiAccrualDetector:
    """Seeded phi-accrual-style failure detector (exponential model).

    Each server's heartbeat period is ``heartbeat_interval_s`` jittered
    once per server from the fleet fault stream family. Under the
    exponential inter-arrival model the suspicion after ``dt`` seconds
    of silence is ``phi(dt) = dt / (mean * ln 10)`` — so a death is
    *detected* (phi crosses the threshold) after exactly
    ``phi_threshold * mean * ln 10`` seconds. The closed form keeps the
    detector deterministic and parent-side while still giving every
    server its own realistic detection latency.
    """

    def __init__(self, cfg: ElasticConfig, seed, num_servers: int):
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        rng = _category_rng(seed, _DETECTOR_CATEGORY)
        jitter = rng.uniform(1.0 - cfg.heartbeat_jitter,
                             1.0 + cfg.heartbeat_jitter,
                             size=num_servers)
        self.mean_interval_s = cfg.heartbeat_interval_s * jitter
        self.phi_threshold = cfg.phi_threshold

    def phi(self, server_id: int, silence_s: float) -> float:
        """Accrued suspicion after ``silence_s`` seconds of silence."""
        if silence_s <= 0:
            return 0.0
        return silence_s / (float(self.mean_interval_s[server_id])
                            * _LN10)

    def detection_delay_s(self, server_id: int) -> float:
        """Silence needed for phi to cross the threshold."""
        return float(self.phi_threshold
                     * self.mean_interval_s[server_id] * _LN10)

    def detection_time_s(self, server_id: int,
                         kill_time_s: float) -> float:
        return kill_time_s + self.detection_delay_s(server_id)


@dataclass
class ElasticPlan:
    """Everything :func:`plan_elastic` decided for one campaign."""

    chunks: dict          # sid -> [np.ndarray] fleet-time arrival parts
    lifetimes: dict       # sid -> (activated_s, end_s), activated only
    nominal: dict         # sid -> nominal ips routed to it
    migrations: list      # of MigrationEvent, in decision order
    scale_events: list    # of ScaleEvent, in decision order
    serving: dict         # tenant_id -> [sids that served it, in order]
    tenant_dropped: dict  # tenant_id -> frames dropped for it
    failover_dropped: int
    herd_delayed: int
    migration_delayed: int
    utilization: list     # per tick: (t, active_servers, mean_ewma)

    @property
    def autoscale_ups(self) -> int:
        return sum(1 for e in self.scale_events if e.action == "up")

    @property
    def autoscale_downs(self) -> int:
        return sum(1 for e in self.scale_events if e.action == "down")


def _window_rates(streams, interval: float, num_ticks: int) -> np.ndarray:
    """Offered rate of each stream over every decision tick's window.

    ``rates[k - 1, i]`` is ``(hi - lo) / interval`` for stream ``i`` at
    tick ``t = k * interval``, where ``hi`` and ``lo`` count its
    arrivals at or before ``t`` and ``t - interval``. Both edges are the
    tick loop's own floats: ``t - interval`` is recomputed from ``t``
    (it is not ``(k - 1) * interval`` bit for bit), so the counts equal
    two per-tick ``searchsorted`` calls exactly, at two calls per stream.
    """
    hi_edges = [k * interval for k in range(1, num_ticks + 1)]
    lo_edges = [t - interval for t in hi_edges]
    counts = np.empty((num_ticks, len(streams)), dtype=np.int64)
    for i, arr in enumerate(streams):
        counts[:, i] = (np.searchsorted(arr, hi_edges, side="right")
                        - np.searchsorted(arr, lo_edges, side="right"))
    return counts / interval


def _window_loads(row, order, home, active) -> dict:
    """Offered ips per active server over one tick's window: ``row[i]``
    is tenant ``order[i]``'s rate, added in that (sorted-id) order."""
    loads = {sid: 0.0 for sid in active}
    for rate, tid in zip(row, order):
        sid = home[tid]
        if sid is not None and sid in loads:
            loads[sid] += rate
    return loads


def plan_elastic(cfg, ecfg: ElasticConfig, tenants, arrivals, assignment,
                 slots, capacity_ips, kills, *, herd: bool = True,
                 reroute_delay_s: float = 0.5, router,
                 seed=0) -> ElasticPlan:
    """Resolve every scaling/migration/failover decision for a campaign.

    Pure parent-side planning over pre-realized inputs: ``arrivals``
    maps tenant id to its full fleet-time stream, ``assignment`` is the
    router's initial placement over the first ``FleetConfig.num_servers``
    servers, ``slots``/``capacity_ips`` describe all ``max_servers``
    potential servers (id -> routing slot / serving capacity at the
    tier's accuracy floor), ``kills`` maps server id to its death
    instant. The returned plan fully determines the per-server shards,
    so the fan-out stays embarrassingly parallel.
    """
    duration = cfg.duration_s
    interval = cfg.decision_interval_s
    by_id = {t.tenant_id: t for t in tenants}
    detector = PhiAccrualDetector(ecfg, seed, ecfg.max_servers)

    pending = {tid: arrivals[tid] for tid in arrivals}
    home = dict(assignment)
    order = sorted(home)  # the key set never changes
    chunks: dict = {sid: [] for sid in range(ecfg.max_servers)}
    nominal = {sid: 0.0 for sid in range(ecfg.max_servers)}
    for tid, sid in assignment.items():
        nominal[sid] += by_id[tid].nominal_ips
    serving = {tid: [sid] for tid, sid in assignment.items()}
    tenant_dropped = {tid: 0 for tid in assignment}

    active = set(range(cfg.num_servers))
    activated = {sid: 0.0 for sid in active}
    retired: dict = {}
    pending_up: dict = {}     # sid -> ready_at
    ewma: dict = {sid: None for sid in active}
    streak = {sid: 0 for sid in active}
    detect_at = {sid: detector.detection_time_s(sid, kill)
                 for sid, kill in kills.items()}
    failed_over: set = set()
    last_scale = -math.inf

    migrations: list = []
    scale_events: list = []
    utilization: list = []
    failover_dropped = 0
    herd_delayed = 0
    migration_delayed = 0

    def live_slots(exclude=()):
        pool = [slots[sid] for sid in sorted(active)
                if sid not in exclude]
        return pool

    def qualified_dst(tenant, candidates):
        ok = [sid for sid in candidates
              if slots[sid].min_accuracy + 1e-9 >= tenant.slo_accuracy]
        return ok or list(candidates)

    def proj_load(sid, extra_ips=0.0):
        """A destination's projected utilization after taking a move."""
        base = ewma[sid] if ewma.get(sid) is not None else 0.0
        cap = capacity_ips[sid]
        return base + (extra_ips / cap if cap else 0.0)

    def migrate(tid, dst, at, rejoin, reason) -> bool:
        """Planned hand-off of ``tid``'s remaining stream to ``dst``.

        Refused (``False``) when the hand-off window would outlast the
        campaign — a planned migration must never drop a frame, so near
        the horizon the stream simply stays where it is.
        """
        nonlocal migration_delayed
        src = home[tid]
        if not len(pending[tid]):
            # Nothing left to serve: re-home bookkeeping only, so a
            # drain can still complete without a phantom ledger entry.
            home[tid] = dst
            return True
        if rejoin >= duration:
            return False
        head, moved, delayed, dropped = transfer_stream(
            pending[tid], at, rejoin, duration, replay=True)
        assert dropped == 0  # planned rejoin is always inside the run
        if len(head):
            chunks[src].append(head)
        pending[tid] = moved
        home[tid] = dst
        nominal[dst] += by_id[tid].nominal_ips
        serving[tid].append(dst)
        migration_delayed += delayed
        migrations.append(MigrationEvent(
            tenant_id=tid, src=src, dst=dst, at_s=at, rejoin_s=rejoin,
            moved=len(moved), delayed=delayed, dropped=0, reason=reason))
        return True

    def fail_over(sid, t):
        """Detected death: re-home every tenant of ``sid`` (PR 7 herd
        or clean-drop semantics, cut at the kill instant)."""
        nonlocal failover_dropped, herd_delayed
        kill = kills[sid]
        stranded = sorted(tid for tid, h in home.items() if h == sid)
        if not stranded:
            return
        pool = live_slots()
        targets = router.reroute(
            [by_id[tid] for tid in stranded],
            {tid: sid for tid in stranded}, pool, {sid}) if pool else {}
        rejoin = t + reroute_delay_s
        for tid in stranded:
            dst = targets.get(tid)
            head, moved, delayed, dropped = transfer_stream(
                pending[tid], kill,
                rejoin if dst is not None else duration, duration,
                replay=herd)
            if len(head):
                chunks[sid].append(head)
            pending[tid] = moved
            home[tid] = dst
            failover_dropped += dropped
            herd_delayed += delayed
            tenant_dropped[tid] += dropped
            if dst is not None:
                nominal[dst] += 0.0  # failover keeps PR 7 nominal rules
                serving[tid].append(dst)
            migrations.append(MigrationEvent(
                tenant_id=tid, src=sid, dst=dst, at_s=t, rejoin_s=rejoin,
                moved=len(moved), delayed=delayed, dropped=dropped,
                reason="failover"))

    def drain(sid, t):
        """Planned migration of every tenant off ``sid``."""
        victims = sorted(tid for tid, h in home.items() if h == sid)
        rejoin = t + ecfg.handoff_s
        for tid in victims:
            others = [s for s in sorted(active)
                      if s != sid and s not in pending_up]
            if not others:
                return
            w = by_id[tid].nominal_ips
            dsts = qualified_dst(by_id[tid], others)
            dst = min(dsts, key=lambda s: (proj_load(s, w), s))
            if not migrate(tid, dst, t, rejoin, "drain"):
                return
            if ewma.get(dst) is not None:
                ewma[dst] = proj_load(dst, w)

    num_ticks = int(math.floor(duration / interval))
    rates = _window_rates([arrivals[tid] for tid in order], interval,
                          num_ticks)
    for k in range(1, num_ticks + 1):
        t = k * interval
        if t >= duration:
            break

        # (a) Servers whose startup delay elapsed come on line, and the
        # router rebalances a minimal tenant subset onto them.
        for sid in sorted(pending_up):
            if pending_up[sid] > t:
                continue
            del pending_up[sid]
            active.add(sid)
            ewma[sid] = None
            streak[sid] = 0
            live = {tid: h for tid, h in home.items() if h is not None}
            moved = router.rebalance_additions(
                [by_id[tid] for tid in sorted(live)], live,
                live_slots(), {sid})
            rejoin = t + ecfg.handoff_s
            for tid in sorted(moved):
                migrate(tid, moved[tid], t, rejoin, "rebalance")

        # (b) Health checks: deaths whose accrued suspicion crossed the
        # phi threshold by this tick are detected and failed over.
        for sid in sorted(kills):
            if sid in failed_over or sid not in active:
                continue
            if detect_at[sid] <= t:
                failed_over.add(sid)
                active.discard(sid)
                retired[sid] = kills[sid]
                fail_over(sid, t)

        # (c) Load measurement: offered ips per server over the last
        # interval, EWMA-smoothed.
        window_load = _window_loads(rates[k - 1].tolist(), order, home,
                                    active)
        samples = []
        for sid in sorted(active):
            cap = capacity_ips[sid]
            util = window_load[sid] / cap if cap else 0.0
            prev = ewma[sid]
            ewma[sid] = util if prev is None else \
                ecfg.ewma_alpha * util + (1.0 - ecfg.ewma_alpha) * prev
            samples.append(ewma[sid])
            if ewma[sid] >= ecfg.overload_utilization:
                streak[sid] += 1
            else:
                streak[sid] = 0
        fleet_util = sum(samples) / len(samples) if samples else 0.0
        utilization.append((t, len(active), fleet_util))

        # (d) Sustained overload: live-migrate the heaviest tenants off
        # any server over the threshold for ``overload_ticks`` ticks,
        # until its projected utilization reaches the target band.
        for sid in sorted(active):
            if streak[sid] < ecfg.overload_ticks:
                continue
            cap = capacity_ips[sid]
            if not cap:
                continue
            mine = sorted((tid for tid, h in home.items() if h == sid),
                          key=lambda tid: (-by_id[tid].nominal_ips, tid))
            others = [s for s in sorted(active)
                      if s != sid and s not in pending_up]
            proj = ewma[sid]
            for tid in mine:
                if proj <= ecfg.target_utilization or not others:
                    break
                w = by_id[tid].nominal_ips
                dsts = qualified_dst(by_id[tid], others)
                dst = min(dsts, key=lambda s: (proj_load(s, w), s))
                after_dst = proj_load(dst, w)
                gain = w / cap
                if after_dst >= proj - 1e-12:
                    break  # the move would not lower the peak: stop
                if not migrate(tid, dst, t, t + ecfg.handoff_s,
                               "overload"):
                    break
                proj -= gain
                ewma[sid] = proj
                if ewma[dst] is not None:
                    ewma[dst] = after_dst
            streak[sid] = 0

        # (e) Autoscaling on the fleet-mean EWMA, with hysteresis and a
        # shared cooldown.
        if not samples or t - last_scale < ecfg.cooldown_s - 1e-9:
            continue
        provisioned = len(active) + len(pending_up)
        if fleet_util >= ecfg.scale_up_utilization \
                and provisioned < ecfg.max_servers:
            candidates = [sid for sid in range(ecfg.max_servers)
                          if sid not in activated
                          and sid not in pending_up
                          and (kills.get(sid) is None
                               or kills[sid] > t + ecfg.startup_delay_s)]
            if candidates:
                sid = candidates[0]
                ready = t + ecfg.startup_delay_s
                pending_up[sid] = ready
                activated[sid] = ready
                last_scale = t
                scale_events.append(ScaleEvent(
                    at_s=t, action="up", server_id=sid,
                    fleet_utilization=fleet_util))
        elif fleet_util <= ecfg.scale_down_utilization \
                and not pending_up \
                and len(active) > ecfg.min_servers:
            victim = min(sorted(active),
                         key=lambda s: (ewma[s] if ewma[s] is not None
                                        else math.inf, -s))
            end = t + ecfg.handoff_s
            drain(victim, t)
            if any(h == victim for h in home.values()):
                continue  # could not fully drain: keep it serving
            active.discard(victim)
            retired[victim] = min(end, duration)
            last_scale = t
            scale_events.append(ScaleEvent(
                at_s=t, action="down", server_id=victim,
                fleet_utilization=fleet_util))

    # Finalize: commit every remaining stream to its current home; the
    # tail of a dead-but-never-detected server is failover-dropped
    # exactly like the PR 7 no-survivor case.
    for tid in sorted(home):
        sid = home[tid]
        if sid is None or not len(pending[tid]):
            continue
        kill = kills.get(sid)
        if kill is not None and sid not in failed_over:
            head, _, _, dropped = transfer_stream(
                pending[tid], kill, duration, duration, replay=herd)
            if len(head):
                chunks[sid].append(head)
            failover_dropped += dropped
            tenant_dropped[tid] += dropped
        else:
            chunks[sid].append(pending[tid])

    lifetimes = {}
    for sid in sorted(activated):
        start = activated[sid]
        if sid in pending_up or start >= duration:
            continue  # never came on line inside the campaign
        end = retired.get(sid, duration)
        kill = kills.get(sid)
        if kill is not None:
            end = min(end, kill)
        end = min(end, duration)
        if end <= start:
            continue
        lifetimes[sid] = (start, end)

    return ElasticPlan(
        chunks=chunks, lifetimes=lifetimes, nominal=nominal,
        migrations=migrations, scale_events=scale_events,
        serving=serving, tenant_dropped=tenant_dropped,
        failover_dropped=failover_dropped, herd_delayed=herd_delayed,
        migration_delayed=migration_delayed, utilization=utilization)
