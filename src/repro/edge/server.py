"""Edge inference-server simulation.

Discrete-event model of the paper's evaluation scenario: a camera fleet
streams inference requests to an FPGA-backed edge server. The server
holds a bounded request queue (frames arriving at a full queue are
*lost*), serves requests one at a time through the currently loaded
accelerator (request-response, as the FINN host code does), samples the
workload through a :class:`~repro.runtime.WorkloadMonitor`, and invokes
the runtime policy at a fixed decision cadence. When the policy switches
accelerators, the server is dead for the reconfiguration time.

Per-frame service latency is the exit-path latency of the exit that
frame takes (sampled from the entry's exit distribution); per-frame
correctness is sampled at the entry's measured cascade accuracy.

Fault injection: pass a :class:`~repro.runtime.faults.FaultSpec` (plus a
``fault_seed``) to overlay reconfiguration failures, reconfiguration
latency jitter, transient inference errors, ingress request drops, and
workload spikes on the run. Reconfiguration failures are retried with
exponential backoff up to the spec's budget, then the server degrades to
the best entry on the currently loaded accelerator
(``policy.select_without_reconfig``) until the next decision tick.
Without a spec the simulation is bit-identical to the fault-free code
path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..runtime.faults import FaultPlan, FaultSpec
from ..runtime.library import LibraryEntry
from ..runtime.monitor import WorkloadMonitor
from ..runtime.reconfig import (PartialReconfigModel,
                                ReconfigurationController)
from . import fastsim
from .cameras import CameraFleet, WorkloadSpec
from .events import EventLoop
from .fastsim import SIM_MODES
from .metrics import RunMetrics, aggregate_runs

__all__ = ["ServerConfig", "EdgeServerSimulator", "simulate_policy",
           "SIM_MODES"]


@dataclass(frozen=True)
class ServerConfig:
    """Serving parameters.

    ``sim_mode`` picks the simulation engine: ``"auto"`` (default) runs
    the segment-batched fast path (:func:`repro.edge.fastsim.run_fast`,
    bit-identical, ~10-50x faster), unbatched fault campaigns included,
    and falls back to the discrete-event oracle whenever the fast path
    cannot prove equivalence (an exact event-time tie on a segment
    boundary, or faults with micro-batching); ``"event"`` always runs
    the oracle.

    ``batch_window_s``/``dispatch_overhead_s`` enable micro-batched
    admission: when the server picks up the head of the queue, every
    queued frame that arrived within ``batch_window_s`` of it shares the
    same plan invocation — one ``dispatch_overhead_s`` charge amortized
    over the batch (each frame's recorded latency is its own exit-path
    service time plus ``overhead / batch_size``). Both default to 0,
    which keeps the historical one-frame-per-invocation path
    bit-identical: frames with tied arrival times then stay separate
    services.

    ``partial_reconfig`` installs a
    :class:`~repro.runtime.reconfig.PartialReconfigModel`: swap dead
    time is then the per-region partial-reconfiguration cost instead of
    the flat ``reconfig_time_s``, in both simulation engines.

    ``decision_offset_s`` phase-shifts the decision-tick train: ticks
    fire at ``offset + k * decision_interval_s`` instead of
    ``k * decision_interval_s``. The fleet reconfiguration coordinator
    (:mod:`repro.fleet.coordinator`) staggers servers' offsets so their
    reconfiguration windows never overlap beyond the fleet's capacity
    cap. The default 0.0 is bit-identical to the historical schedule in
    both simulation engines.

    ``brownout_levels`` enables the degradation ladder: a tuple of
    increasing accuracy-loss deltas, one per rung below normal
    operation. At each decision tick the server inspects queue occupancy
    (``len(queue) / queue_capacity``): at or above ``brownout_high`` it
    steps one rung down, at or below ``brownout_low`` it steps one rung
    back up (the hysteresis band between the two prevents flapping). At
    rung ``r > 0`` selection runs against the lowered floor
    ``policy.min_accuracy - brownout_levels[r - 1]`` via
    :meth:`RuntimeManager.select_at
    <repro.runtime.manager.RuntimeManager.select_at>` — trading accuracy
    for throughput *before* any frame is turned away. Only at the bottom
    rung does admission control shed: arrivals finding the queue at or
    beyond ``brownout_shed_occupancy`` of capacity are refused
    (``RunMetrics.shed``) instead of overflowing as ``lost``. The empty
    default tuple keeps both engines bit-identical to the historical
    path.
    """

    queue_capacity: int = 32
    decision_interval_s: float = 1.0
    decision_offset_s: float = 0.0
    monitor_window_s: float = 1.0
    reconfig_time_s: float = 0.145
    record_trace: bool = True
    sim_mode: str = "auto"
    batch_window_s: float = 0.0
    dispatch_overhead_s: float = 0.0
    partial_reconfig: PartialReconfigModel | None = None
    brownout_levels: tuple = ()
    brownout_high: float = 0.85
    brownout_low: float = 0.25
    brownout_shed_occupancy: float = 1.0

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        for name in ("decision_interval_s", "decision_offset_s",
                     "monitor_window_s", "reconfig_time_s",
                     "batch_window_s", "dispatch_overhead_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.decision_interval_s <= 0 or self.monitor_window_s <= 0:
            raise ValueError("intervals must be positive")
        if self.decision_offset_s < 0:
            raise ValueError("decision_offset_s must be >= 0")
        if self.reconfig_time_s < 0:
            raise ValueError("reconfig_time_s must be >= 0")
        if self.batch_window_s < 0 or self.dispatch_overhead_s < 0:
            raise ValueError(
                "batch_window_s and dispatch_overhead_s must be >= 0")
        if self.sim_mode not in SIM_MODES:
            raise ValueError(
                f"sim_mode must be one of {SIM_MODES}, "
                f"got {self.sim_mode!r}")
        levels = tuple(self.brownout_levels)
        object.__setattr__(self, "brownout_levels", levels)
        if any(d <= 0 for d in levels):
            raise ValueError("brownout_levels must be positive deltas")
        if any(b >= a for a, b in zip(levels[1:], levels)):
            raise ValueError("brownout_levels must be strictly increasing")
        if not 0.0 < self.brownout_low < self.brownout_high <= 1.0:
            raise ValueError(
                "need 0 < brownout_low < brownout_high <= 1")
        if not 0.0 < self.brownout_shed_occupancy <= 1.0:
            raise ValueError(
                "brownout_shed_occupancy must be in (0, 1]")

    @property
    def batching(self) -> bool:
        """Whether micro-batched admission is active."""
        return self.batch_window_s > 0.0 or self.dispatch_overhead_s > 0.0

    @property
    def brownout(self) -> bool:
        """Whether the degradation ladder is active."""
        return bool(self.brownout_levels)

    @property
    def shed_queue_len(self) -> int:
        """Queue length at/above which bottom-rung admission sheds."""
        if self.brownout_shed_occupancy >= 1.0:
            return self.queue_capacity
        return max(1, math.ceil(self.brownout_shed_occupancy
                                * self.queue_capacity))


class EdgeServerSimulator:
    """One serving run of one policy over one workload realization."""

    def __init__(self, policy, workload: WorkloadSpec | None = None,
                 config: ServerConfig | None = None, seed: int = 0,
                 faults: FaultSpec | None = None, fault_seed: int = 0):
        self.policy = policy
        self.workload = workload or WorkloadSpec()
        self.config = config or ServerConfig()
        self.seed = seed
        self.faults = faults
        self.fault_seed = fault_seed

    def _arrival_times(self) -> np.ndarray:
        """Arrivals for this run: camera-fleet spec or a custom trace
        object exposing ``arrival_times(seed)`` (see repro.edge.traces)."""
        if hasattr(self.workload, "arrival_times"):
            return self.workload.arrival_times(seed=self.seed)
        return CameraFleet(self.workload, seed=self.seed).arrival_times()

    def _fault_plan(self) -> FaultPlan | None:
        """Per-run fault realization: deterministic in ``(fault_seed,
        seed)`` so repeated campaigns are byte-identical while every run
        of a campaign still draws distinct faults."""
        if self.faults is None:
            return None
        return FaultPlan(self.faults, seed=(self.fault_seed, self.seed))

    def run(self) -> RunMetrics:
        """Simulate one run, dispatching on ``config.sim_mode``.

        ``auto`` uses the segment-batched fast path
        (:mod:`repro.edge.fastsim`) when the run is eligible; exact
        event-time ties on a segment boundary and micro-batched fault
        campaigns fall back to the event loop, which remains the
        semantics oracle. Results are bit-identical either way.
        """
        if self.config.sim_mode == "auto":
            metrics = fastsim.run_fast(self)
            if metrics is not None:
                return metrics
        return self._run_event()

    def _run_event(self) -> RunMetrics:
        """The discrete-event reference simulation (semantics oracle)."""
        cfg = self.config
        rng = np.random.default_rng(self.seed + 777)
        plan = self._fault_plan()
        spec = self.faults
        arrivals = self._arrival_times()
        if plan is not None:
            extra = plan.spike_arrivals(self.workload.duration_s,
                                        self.workload.nominal_ips)
            if len(extra):
                arrivals = np.sort(np.concatenate([arrivals, extra]))
        loop = EventLoop()
        monitor = WorkloadMonitor(window_s=cfg.monitor_window_s)
        controller = ReconfigurationController(
            reconfig_time_s=cfg.reconfig_time_s,
            cost_model=cfg.partial_reconfig)

        # Deploy the initial selection before serving starts (the initial
        # board configuration is not charged against the run).
        entry = self.policy.select(self.workload.nominal_ips)
        controller.switch(entry.accelerator, now_s=0.0)
        initial_events = controller.count

        queue: deque = deque()  # of (arrival_time, attempts_so_far)
        state = {
            "entry": entry,
            "busy": False,
            "reconfig_until": 0.0,
            "reconfig_inflight": False,
            "processed": 0,
            "lost": 0,
            "dropped": 0,
            "failed": 0,
            "retries": 0,
            "reconfig_failures": 0,
            "reconfig_retries": 0,
            "fault_dead_time_s": 0.0,
            "batches": 0,
            "shed": 0,
            "rung": 0,
            "brownout_steps": 0,
            "brownout_time_s": 0.0,
            "brownout_since": 0.0,
            "latency_sum": 0.0,
            "accuracy_sum": 0.0,
            "energy_j": 0.0,
            "last_power_t": 0.0,
        }
        trace: dict = {"t": [], "workload_ips": [], "pruning_rate": [],
                       "confidence_threshold": [], "accuracy": [],
                       "serving_ips": []}
        # Arrivals the monitor has not seen yet: flushed in one
        # observe_many call per decision tick instead of a per-frame
        # record_arrival (the monitor is only *read* at ticks).
        monitor_backlog: list = []

        def flush_monitor() -> None:
            if monitor_backlog:
                monitor.observe_many(monitor_backlog)
                monitor_backlog.clear()

        def integrate_power(now: float, arrival_rate: float) -> None:
            dt = now - state["last_power_t"]
            if dt > 0:
                state["energy_j"] += state["entry"].power_at(arrival_rate) * dt
                state["last_power_t"] = now

        batching = cfg.batching
        brownout = cfg.brownout
        brown_levels = cfg.brownout_levels
        bottom_rung = len(brown_levels)
        shed_len = cfg.shed_queue_len
        # The ladder lowers the selection floor only for policies that
        # expose one (RuntimeManager duck type); static baselines still
        # shed at the bottom rung but have no floor to lower.
        select_at = getattr(self.policy, "select_at", None)
        base_floor = getattr(self.policy, "min_accuracy", None)
        ladder = brownout and select_at is not None \
            and base_floor is not None

        def start_batched(loop_: EventLoop) -> None:
            """Micro-batched admission: the head of the queue plus every
            queued frame that arrived within ``batch_window_s`` of it
            share one plan invocation. The invocation costs one
            ``dispatch_overhead_s`` plus the frames' exit-path service
            times back to back; each frame's recorded latency is its own
            service time plus the amortized overhead share."""
            entry_ = state["entry"]
            batch = [queue.popleft()]
            window_end = batch[0][0] + cfg.batch_window_s
            while queue and queue[0][0] <= window_end:
                batch.append(queue.popleft())
            k = len(batch)
            pvec = np.asarray(entry_.exit_rates)
            services = []
            total = cfg.dispatch_overhead_s
            for _ in batch:
                exit_idx = int(rng.choice(len(entry_.exit_rates), p=pvec))
                services.append(entry_.service_latency_s(exit_idx))
            for service in services:
                total += service
            share = cfg.dispatch_overhead_s / k
            state["busy"] = True

            def complete(loop2: EventLoop) -> None:
                state["busy"] = False
                state["batches"] += 1
                retry = []
                for (arrival_t, attempts), service in zip(batch, services):
                    if plan is not None and plan.inference_fails(loop2.now):
                        if attempts < spec.inference_retries:
                            state["retries"] += 1
                            retry.append((arrival_t, attempts + 1))
                        else:
                            state["failed"] += 1
                    else:
                        state["processed"] += 1
                        state["latency_sum"] += service + share
                        state["accuracy_sum"] += float(
                            rng.random() < entry_.accuracy)
                if retry:
                    # Retries go back to the head in arrival order, as
                    # the unbatched path's appendleft does for one frame.
                    queue.extendleft(reversed(retry))
                try_start_service(loop2)

            loop_.schedule(total, complete)

        def try_start_service(loop_: EventLoop) -> None:
            if state["busy"] or not queue:
                return
            if loop_.now < state["reconfig_until"]:
                return
            if batching:
                start_batched(loop_)
                return
            arrival_t, attempts = queue.popleft()
            entry_ = state["entry"]
            exit_idx = int(rng.choice(len(entry_.exit_rates),
                                      p=np.asarray(entry_.exit_rates)))
            service = entry_.service_latency_s(exit_idx)
            state["busy"] = True

            def complete(loop2: EventLoop) -> None:
                state["busy"] = False
                if plan is not None and plan.inference_fails(loop2.now):
                    # Transient accelerator error: the service time is
                    # burned; retry at the head of the queue until the
                    # budget runs out, then count the request as failed.
                    if attempts < spec.inference_retries:
                        state["retries"] += 1
                        queue.appendleft((arrival_t, attempts + 1))
                    else:
                        state["failed"] += 1
                else:
                    state["processed"] += 1
                    state["latency_sum"] += service
                    state["accuracy_sum"] += float(
                        rng.random() < entry_.accuracy)
                try_start_service(loop2)

            loop_.schedule(service, complete)

        def on_arrival(loop_: EventLoop) -> None:
            if plan is not None and plan.drop_request(loop_.now):
                # Network loss upstream of the server: the monitor never
                # sees the request either.
                state["dropped"] += 1
                return
            monitor_backlog.append(loop_.now)
            if brownout and state["rung"] == bottom_rung \
                    and len(queue) >= shed_len:
                # Bottom rung: admission control turns the frame away
                # before it can overflow the queue (a deliberate shed,
                # accounted separately from `lost`).
                state["shed"] += 1
                return
            if len(queue) >= cfg.queue_capacity:
                state["lost"] += 1
                return
            queue.append((loop_.now, 0))
            try_start_service(loop_)

        def degrade_in_place(current: LibraryEntry) -> LibraryEntry:
            """Fallback after exhausted reconfiguration retries: the best
            entry the policy can reach without a bitstream swap."""
            pick = getattr(self.policy, "select_without_reconfig", None)
            if pick is None:
                return current
            return pick(current) or current

        def attempt_reconfig(selected: LibraryEntry, attempt: int,
                             loop_: EventLoop) -> None:
            now = loop_.now
            # Nominal dead time comes from the controller so a partial
            # reconfiguration model (cfg.partial_reconfig) prices the
            # attempt; fault jitter then scales that nominal cost.
            nominal = controller.planned_duration_s(selected.accelerator)
            fails, duration = plan.reconfig_outcome(now, nominal)
            success, dead = controller.attempt_switch(
                selected.accelerator, now_s=now, duration_s=duration,
                fails=fails)
            state["reconfig_until"] = max(state["reconfig_until"],
                                          now + dead)
            if success:
                state["reconfig_inflight"] = False
                state["entry"] = selected
                loop_.schedule(dead, try_start_service)
                return
            state["reconfig_failures"] += 1
            state["fault_dead_time_s"] += dead
            if attempt < spec.reconfig_retries:
                # Retry with exponential backoff; the old accelerator
                # keeps serving between attempts.
                state["reconfig_inflight"] = True
                state["reconfig_retries"] += 1
                backoff = spec.retry_backoff_s * (2 ** attempt)
                loop_.schedule(
                    dead + backoff,
                    lambda l: attempt_reconfig(selected, attempt + 1, l))
            else:
                state["reconfig_inflight"] = False
                state["entry"] = degrade_in_place(state["entry"])
            loop_.schedule(dead, try_start_service)

        def on_decision(loop_: EventLoop) -> None:
            now = loop_.now
            flush_monitor()
            ips = monitor.sampled_ips(now)
            integrate_power(now, ips)
            if brownout:
                occ = len(queue) / cfg.queue_capacity
                rung = state["rung"]
                if occ >= cfg.brownout_high and rung < bottom_rung:
                    rung += 1
                elif occ <= cfg.brownout_low and rung > 0:
                    rung -= 1
                if rung != state["rung"]:
                    state["brownout_steps"] += 1
                    if state["rung"] == 0:
                        state["brownout_since"] = now
                    elif rung == 0:
                        state["brownout_time_s"] += \
                            now - state["brownout_since"]
                    state["rung"] = rung
            if ladder and state["rung"] > 0:
                selected = select_at(
                    base_floor - brown_levels[state["rung"] - 1], ips,
                    current=state["entry"])
            else:
                selected = self.policy.select(ips, current=state["entry"])
            if controller.needs_switch(selected.accelerator):
                if plan is None:
                    dead = controller.switch(selected.accelerator,
                                             now_s=now)
                    state["reconfig_until"] = now + dead
                    state["entry"] = selected
                    loop_.schedule(dead, try_start_service)
                elif not state["reconfig_inflight"]:
                    attempt_reconfig(selected, 0, loop_)
            else:
                state["entry"] = selected
            monitor.acknowledge(now)
            if cfg.record_trace:
                # The *deployed* operating point: under fault injection
                # a failed reconfiguration can leave it behind the
                # policy's selection.
                deployed = state["entry"]
                trace["t"].append(now)
                trace["workload_ips"].append(ips)
                trace["pruning_rate"].append(
                    deployed.accelerator.pruning_rate)
                trace["confidence_threshold"].append(
                    deployed.confidence_threshold)
                trace["accuracy"].append(deployed.accuracy)
                trace["serving_ips"].append(deployed.serving_ips)
            if now + cfg.decision_interval_s < self.workload.duration_s:
                loop_.schedule(cfg.decision_interval_s, on_decision)

        for t in arrivals:
            loop.schedule_at(float(t), on_arrival)
        loop.schedule(cfg.decision_offset_s + cfg.decision_interval_s,
                      on_decision)
        loop.run_until(self.workload.duration_s)

        # Requests still queued at the end of the run were never served.
        state["lost"] += len(queue)
        if state["rung"] > 0:
            state["brownout_time_s"] += \
                self.workload.duration_s - state["brownout_since"]
        flush_monitor()
        integrate_power(self.workload.duration_s,
                        monitor.sampled_ips(self.workload.duration_s))

        processed = state["processed"]
        post = controller.events[initial_events:]
        return RunMetrics(
            policy=getattr(self.policy, "name", type(self.policy).__name__),
            duration_s=self.workload.duration_s,
            total_requests=len(arrivals),
            processed=processed,
            lost=state["lost"],
            accuracy=state["accuracy_sum"] / processed if processed else 0.0,
            avg_latency_s=state["latency_sum"] / processed if processed else 0.0,
            energy_j=state["energy_j"],
            reconfigurations=sum(1 for e in post if e.success),
            reconfig_dead_time_s=sum(
                e.duration_s for e in post if e.success),
            dropped=state["dropped"],
            failed=state["failed"],
            retries=state["retries"],
            reconfig_failures=state["reconfig_failures"],
            reconfig_retries=state["reconfig_retries"],
            fault_dead_time_s=state["fault_dead_time_s"],
            batches=state["batches"],
            shed=state["shed"],
            brownout_steps=state["brownout_steps"],
            brownout_time_s=state["brownout_time_s"],
            trace=trace if cfg.record_trace else {},
        )


# Per-worker simulation context, set by the pool initializer so each of
# the ``runs`` task payloads is just a seed (the policy carries the whole
# Library — pickling it once per worker instead of once per run matters
# at the paper's 100-run scale).
_SIM_CONTEXT: tuple | None = None


def _sim_worker_init(policy, workload, config, faults, fault_seed) -> None:
    global _SIM_CONTEXT
    _SIM_CONTEXT = (policy, workload, config, faults, fault_seed)


def _sim_task(seed: int) -> RunMetrics:
    policy, workload, config, faults, fault_seed = _SIM_CONTEXT
    return EdgeServerSimulator(policy, workload=workload, config=config,
                               seed=seed, faults=faults,
                               fault_seed=fault_seed).run()


def simulate_policy(policy, runs: int = 100,
                    workload: WorkloadSpec | None = None,
                    config: ServerConfig | None = None,
                    base_seed: int = 0,
                    parallel: bool | int = False,
                    faults: FaultSpec | None = None,
                    fault_seed: int = 0,
                    progress=None):
    """Run a policy over ``runs`` workload realizations; returns
    ``(aggregate, run_list)``.

    ``parallel`` fans the runs out over worker processes (``True`` = one
    per CPU, an int = that many workers; see :mod:`repro.core.parallel`).
    Each run keeps its exact serial seed ``base_seed + r`` and results
    are collected in run order, so the aggregate (and every per-run
    metric) is bit-identical to a serial execution. Falls back to serial
    when the platform lacks ``fork`` or the policy isn't picklable.

    ``faults``/``fault_seed`` overlay a deterministic fault campaign
    (:mod:`repro.runtime.faults`) on every run; campaigns with the same
    spec and seeds are byte-identical, serial or parallel.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    seeds = [base_seed + r for r in range(runs)]

    # Imported lazily: repro.core imports repro.edge at package-init
    # time, so a top-level import here would be circular.
    from ..core.parallel import fork_available, parallel_map, resolve_workers

    workers = min(resolve_workers(parallel), runs)
    if workers > 1 and fork_available():
        try:
            results = parallel_map(
                _sim_task, seeds, workers=workers, progress=progress,
                label=lambda seed: f"run seed={seed}",
                initializer=_sim_worker_init,
                initargs=(policy, workload, config, faults, fault_seed))
            return aggregate_runs(results), results
        except (TypeError, AttributeError, ImportError):
            pass  # unpicklable policy (e.g. a local class): run serially

    results = []
    for r, seed in enumerate(seeds):
        sim = EdgeServerSimulator(policy, workload=workload, config=config,
                                  seed=seed, faults=faults,
                                  fault_seed=fault_seed)
        results.append(sim.run())
        if progress is not None:
            progress(f"run seed={seed} done ({r + 1}/{runs})")
    return aggregate_runs(results), results
