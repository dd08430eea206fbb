"""Segment-batched fast path for the edge serving simulator.

:class:`~repro.edge.server.EdgeServerSimulator` models every frame as a
pair of :class:`~repro.edge.events.EventLoop` callbacks, which makes
100-run serving campaigns the dominant wall-clock cost of the paper's
evaluation. Between policy decision ticks the server's evolution is
closed-form per segment, so :func:`run_fast` replays the exact same
dynamics, unbatched or micro-batched, as one kernel:

* all RNG draws for a run are materialized with **one**
  ``Generator.random`` call. The event loop draws one uniform per frame
  when a service starts (the exit choice) and one per frame when it
  completes (the correctness sample), and no other draw falls in
  between, because the single server starts its next service only from
  the completion callback. A service of ``k`` frames that starts at
  stream position ``p`` therefore reads its exit draws at ``p .. p+k-1``
  and its correctness draws at ``p+k .. p+2k-1``; an unbatched frame is
  ``k = 1``. Over-drawing is harmless because the generator is private
  to the run;
* per segment (one deployed entry between two ticks), exit sampling,
  service-latency lookup and correctness sampling are array operations
  over the slice of the stream the segment can consume, indexed by
  stream position (``searchsorted`` over the exit CDF, ``take`` over
  the exit latencies, a vectorized threshold compare); the CDF and the
  latency array are built once per deployed entry;
* the rate the event loop's :class:`WorkloadMonitor` samples at a tick
  is a count over the sorted arrivals, those in ``(tick - window,
  tick]``: two ``searchsorted`` calls give it for every tick and the
  horizon, and the kernel keeps no monitor;
* latency accumulation uses ``np.cumsum`` (sequential left-to-right
  accumulation, bit-identical to the event loop's ``+=`` chain), and
  power integration is per-tick scalar work, as in the event loop.

The only irreducibly sequential part — the bounded-queue admission /
single-server start-time recursion — runs as one scalar loop per
segment over plain Python floats held in locals, with the *same* float
operations (``max`` and one addition per frame) as the event loop, so
completions, queue-full losses, and end-of-run in-flight frames are
decided identically. Only the service start depends on the kind of
run, which is fixed per run and tested most common first. A plain start
(unbatched and fault-free, such as the paper's Table I traffic) is one
addition; the segment's served latencies and hits are sliced from its
tables after the loop. A micro-batched start takes the queue head plus
every queued frame that arrived within ``batch_window_s`` of it (the
kernel keeps a deque of the queued arrival times for it) and charges
one dispatch overhead per batch.

Unbatched fault campaigns (``sim.faults`` set) are the third kind, so
fault-free runs do no fault work per served frame; the admission reads
the pending retry only for an arrival that meets the queue or shedding
limit. The kernel builds the run's
:class:`~repro.runtime.faults.FaultPlan` exactly as the event loop does;
each fault category has a private stream, so drawing one ahead of time
in the event loop's order gives the same decisions:

* spike arrivals are merged into the workload up front, and ingress
  drops are decided for every arrival up to the horizon with one
  vectorized draw (``FaultPlan.drop_mask``); dropped frames never reach
  the monitor or the queue;
* inference errors are decided when a service starts, against its
  completion time and in completion order (one decision per completion
  inside the active window, ``FaultPlan.inference_failures``). A failed
  service burns its time and takes no correctness draw, so the stream
  position advances by 1, not 2. Its frame goes back to the queue head
  through a single pending-retry state: the next start serves it, and
  it counts toward the queue length only from its failed completion on
  (arrivals at that instant fire first; the requeue checks no
  capacity). Out of retries, the frame is ``failed``;
* reconfiguration attempts go through ``FaultPlan.reconfig_outcome``
  and ``ReconfigurationController.attempt_switch`` with the event
  loop's ``reconfig_until = max(...)``. A failed attempt with budget
  left schedules its backoff retry as an extra segment boundary, in
  time order with the ticks; ticks attempt no swap while a retry is
  pending, and an exhausted budget degrades through
  ``select_without_reconfig``.

The event loop remains the semantics oracle (the same relationship as
:mod:`repro.ir.executors` vs :mod:`repro.ir.engine`): ``run_fast``
returns ``None`` whenever it cannot *prove* equivalence and the caller
falls back to event mode. That covers

* exact event-time ties on a segment boundary: a completion, service
  start, or reconfiguration resume landing on a decision tick or a
  reconfiguration retry, or a retry landing on a tick or the horizon,
  where the outcome depends on event-loop scheduling order (a zero
  ``retry_backoff_s`` makes every retry tie with its resume), and
* micro-batched fault campaigns. A failed batch puts several frames
  back at the queue head at once, which the single pending-retry state
  does not model, so those runs stay on the oracle.

``SIM_MODES`` enumerates the ``ServerConfig.sim_mode`` values:
``"auto"`` uses this fast path when sound, ``"event"`` forces the
oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from math import nextafter

import numpy as np

from ..runtime.reconfig import ReconfigurationController
from .metrics import RunMetrics

__all__ = ["SIM_MODES", "run_fast"]

#: Accepted ``ServerConfig.sim_mode`` values.
SIM_MODES = ("auto", "event")

#: numpy's probability-sum tolerance for ``Generator.choice``.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

_INF = float("inf")


def _exit_cdf(exit_rates) -> np.ndarray:
    """The CDF ``Generator.choice(len(p), p=p)`` samples against.

    Mirrors numpy's internal computation (cumsum then normalize by the
    last element) including its sum-to-one validation, so both paths
    accept and reject the same entries and map uniforms to identical
    exit indices.
    """
    p = np.ascontiguousarray(exit_rates, dtype=np.float64)
    if abs(float(p.sum()) - 1.0) > _P_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _window_counts(arrivals, marks, window_s: float) -> list[int]:
    """At each of the sorted ``marks``, the number of sorted ``arrivals``
    a :class:`~repro.runtime.monitor.WorkloadMonitor` fed up to that mark
    holds: those at or before it, less those its trims drop, at or
    before ``mark - window_s``."""
    marks = np.asarray(marks, dtype=np.float64)
    return (np.searchsorted(arrivals, marks, side="right")
            - np.searchsorted(arrivals, marks - window_s,
                              side="right")).tolist()


def run_fast(sim):
    """One serving run, segment-batched; ``None`` = fall back to events.

    Bit-identical to ``EdgeServerSimulator`` event mode: same RNG stream
    consumed in the same order, same float operations for every queue /
    clock update, same trace values. See the module docstring for the
    fallback conditions.
    """
    cfg = sim.config
    batching = cfg.batching
    if sim.faults is not None and batching:
        return None  # a failed batch requeues several frames at once
    workload = sim.workload
    duration = workload.duration_s
    policy = sim.policy

    rng = np.random.default_rng(sim.seed + 777)
    arrivals = sim._arrival_times()
    plan = sim._fault_plan()
    spec = sim.faults
    dropped = 0
    if plan is not None:
        extra = plan.spike_arrivals(duration, workload.nominal_ips)
        if len(extra):
            arrivals = np.sort(np.concatenate([arrivals, extra]))
    n = len(arrivals)
    if plan is not None:
        # Only arrival events at or before the horizon fire, and each
        # asks for a drop decision in time order; a dropped frame never
        # reaches the monitor or the queue.
        arrivals = arrivals[:int(np.searchsorted(arrivals, duration,
                                                 side="right"))]
        drop = plan.drop_mask(arrivals)
        dropped = int(drop.sum())
        if dropped:
            arrivals = arrivals[~drop]
    # A fault-free run serves at most ``n`` frames, two uniforms each;
    # failed services can outrun that, and ``draw_tables`` draws more.
    draws = rng.random(2 * n + 2)
    arr_list = arrivals.tolist()

    controller = ReconfigurationController(
        reconfig_time_s=cfg.reconfig_time_s,
        cost_model=cfg.partial_reconfig)

    entry = policy.select(workload.nominal_ips)
    controller.switch(entry.accelerator, now_s=0.0)
    initial_events = controller.count

    # Decision-tick schedule: the event loop reschedules relative to the
    # current tick, so tick times are a float *accumulation*, not k*dt.
    # The first tick carries the coordinator's stagger offset, with the
    # event loop's exact float ops (now=0.0 plus the combined delay).
    t = 0.0 + (cfg.decision_offset_s + cfg.decision_interval_s)
    ticks = [t] if t <= duration else []
    while ticks and t + cfg.decision_interval_s < duration:
        t = t + cfg.decision_interval_s
        ticks.append(t)

    # The monitor's window count at each tick and at the horizon.
    window = cfg.monitor_window_s
    window_counts = _window_counts(arrivals, ticks + [duration], window)

    capacity = cfg.queue_capacity
    batch_window = cfg.batch_window_s
    overhead = cfg.dispatch_overhead_s
    record_trace = cfg.record_trace
    trace: dict = {"t": [], "workload_ips": [], "pruning_rate": [],
                   "confidence_threshold": [], "accuracy": [],
                   "serving_ips": []}

    # Brownout ladder (mirrors the event loop's on_arrival/on_decision
    # additions with identical float comparisons and floor arithmetic).
    brownout = cfg.brownout
    brown_levels = cfg.brownout_levels
    bottom_rung = len(brown_levels)
    shed_len = cfg.shed_queue_len
    select_at = getattr(policy, "select_at", None)
    base_floor = getattr(policy, "min_accuracy", None)
    ladder = brownout and select_at is not None and base_floor is not None

    # --- run state (plain Python floats/ints: the scalar loop below
    # must use the exact float ops of the event loop) -----------------
    qlen = 0              # frames waiting (excludes in-service)
    pend: deque = deque()  # their arrival times, kept only for batching
    c_last = -_INF        # completion time of the last *started* service
    reconfig_until = 0.0
    p = 0                 # next unconsumed position in the draw stream
    lost = 0
    shed = 0
    rung = 0
    brownout_steps = 0
    brownout_time_s = 0.0
    brownout_since = 0.0
    correct = 0           # integer-exact accuracy_sum
    batches = 0
    served_latencies: list[float] = []  # in completion (== start) order
    energy_j = 0.0
    last_power_t = 0.0
    ai = 0                # next arrival index to admit
    # Fault state. ``retry`` is the attempt count of the frame a failed
    # inference puts back at the queue head (0 = none): the next start
    # serves it, so at most one exists. ``qlen`` counts it from the
    # failing start on, but the event loop's queue holds it only from
    # the failed completion ``c_last`` on (see the admission below).
    # ``next_retry`` is the scheduled reconfiguration retry ``(time,
    # target entry, attempt)``; while it is pending the event loop's
    # ``reconfig_inflight`` is set.
    retry = 0
    retries = 0
    failed = 0
    next_retry = None
    reconfig_failures = 0
    reconfig_retries = 0
    fault_dead_time_s = 0.0

    # Inference errors. Each failed service with budget left serves its
    # frame once more, one draw beyond the segment's two-per-frame
    # bound, so a faulted start regrows the tables when it runs out.
    if plan is not None and spec.inference_error_prob > 0.0:
        inference_fails = plan.inference_failures()
        infer_from = spec.active_from_s
        infer_until = _INF if spec.active_until_s is None \
            else spec.active_until_s
    else:
        inference_fails = None
        infer_from = infer_until = _INF  # never active

    # Only the service start differs between the three kinds of run, and
    # the kind is fixed per run: plain (unbatched and fault-free, such as
    # the paper's Table I traffic), micro-batched, or faulted.
    plain = plan is None and not batching
    # Exit CDF and latencies per deployed entry, built on its first table
    # (where ``_exit_cdf`` rejects bad exit rates, as ``choice`` does at
    # the event loop's first start); holding the entry keeps its ``id``.
    exit_tables: dict = {}

    def draw_tables(pos: int, m: int):
        """The deployed entry's tables over the ``m`` draws from stream
        position ``pos``: the service latency an exit draw there gives
        and whether a correctness draw there hits; for plain runs only
        the latencies at ``pos``, ``pos + 2``, ..., one per frame. A
        segment asks for two draws per frame that could start in it, a
        faulted start for more when retries outrun that. Over-computing
        has no RNG side effects: the next segment rebuilds from the first
        unconsumed position."""
        nonlocal draws
        if m <= 0:
            return [], []
        if pos + m > len(draws):
            # Faulted runs only: extending the private stream gives the
            # draws one longer ``rng.random`` call would have given.
            draws = np.concatenate([draws, rng.random(pos + m - len(draws))])
        u = draws[pos:pos + m]
        known = exit_tables.get(id(entry))
        if known is None:
            cdf = _exit_cdf(entry.exit_rates)  # same validation as choice
            latencies = np.asarray(entry.exit_latencies_s, dtype=np.float64) \
                if entry.exit_latencies_s else None
            known = exit_tables[id(entry)] = (entry, cdf, latencies)
        _, cdf, latencies = known
        exits = u[::2] if plain else u
        if latencies is None:
            services = [entry.latency_s] * len(exits)
        else:
            services = latencies[cdf.searchsorted(exits, side="right")] \
                .tolist()
        return services, None if plain else (u < entry.accuracy).tolist()

    pend_append, pend_popleft = pend.append, pend.popleft

    def serve_segment(t_end: float, is_tick: bool) -> bool:
        """Admit arrivals and run services with start times <= t_end.

        Returns False when an exact event-time tie on a decision tick
        (or a reconfiguration retry) makes the event ordering
        scheduling-dependent (caller falls back to the event loop).
        """
        nonlocal ai, qlen, c_last, p, retry, correct, lost, shed, batches, \
            retries, failed
        hi = bisect_right(arr_list, t_end, ai)
        # The run state lives in locals for the segment; the swap window,
        # the deployed entry and the brownout rung are fixed within it.
        # Table index ``i`` is stream position ``base + i`` (plain runs:
        # frame ``i`` of the segment, position ``base + 2i``).
        q, c, ru, requeued, base, i = qlen, c_last, reconfig_until, retry, p, 0
        services, hits = draw_tables(base, 2 * (q + hi - ai))
        n_correct = n_lost = n_shed = n_batches = n_retries = n_failed = 0
        shedding = brownout and rung == bottom_rung
        admit_below = shed_len if shedding else capacity
        # The segment's arrivals, then its limit: services up to the
        # boundary start too. At a decision tick, a start exactly *on* it
        # comes from a completion/resume event tied with the decision
        # event; at the run horizon every event <= duration fires, so
        # that boundary is inclusive.
        limits = arr_list[ai:hi]
        limits.append(t_end if is_tick else nextafter(t_end, _INF))
        left = hi - ai
        free = False          # an admitted arrival found the server idle
        for t in limits:
            # Queued frames whose service begins strictly before t have
            # left the queue by the time it is admitted (starts *at* t
            # are triggered by completion events that fire after the
            # arrival event — still waiting).
            while q:
                if free:
                    free = False  # ``sigma`` is that arrival's time
                else:
                    sigma = c if c >= ru else ru
                    if sigma >= t:
                        break
                if plain:
                    q -= 1
                    c = sigma + services[i]
                    i += 1    # served frames are counted below
                elif batching:
                    # The head plus every queued frame within
                    # ``batch_window`` of its arrival share one plan
                    # invocation and one dispatch overhead.
                    window_end = pend_popleft() + batch_window
                    k = 1
                    while pend and pend[0] <= window_end:
                        pend_popleft()
                        k += 1
                    q -= k
                    batch = services[i:i + k]
                    total = overhead
                    for service in batch:
                        total += service
                    c = sigma + total
                    if c <= duration:
                        n_batches += 1
                        share = overhead / k
                        served_latencies.extend([s + share for s in batch])
                        n_correct += hits[i + k:i + 2 * k].count(True)
                    i += 2 * k
                else:
                    # Faulted: the requeued frame goes first, and a
                    # service whose completion fails burns its time
                    # without a correctness draw, then requeues its frame
                    # or, out of budget, counts it as failed.
                    q -= 1
                    attempts, requeued = requeued, 0
                    if i >= len(services) - 1:
                        # Retries outran the segment's tables.
                        base, i = base + i, 0
                        services, hits = draw_tables(base, 64)
                    service = services[i]
                    c = sigma + service
                    if c <= duration:
                        if infer_from <= c < infer_until \
                                and next(inference_fails):
                            i += 1
                            if attempts < spec.inference_retries:
                                n_retries += 1
                                requeued = attempts + 1
                                q += 1
                            else:
                                n_failed += 1
                            continue
                        served_latencies.append(service)
                        if hits[i + 1]:
                            n_correct += 1
                    i += 2
            if not left:
                break             # t is the segment's limit
            left -= 1
            # A requeued frame whose failed completion has not fired yet
            # (arrival events go first) is not in the event loop's queue:
            # at a limit of exactly ``q`` the arrival still fits.
            if q >= admit_below:
                if shedding \
                        and not (requeued and c >= t and q == shed_len):
                    n_shed += 1   # bottom-rung admission control
                    continue
                if q >= capacity \
                        and not (requeued and c >= t and q == capacity):
                    n_lost += 1
                    continue
            q += 1
            if batching:
                pend_append(t)
            if c < t and ru <= t:
                # Idle and unblocked: the head starts at t, before any
                # later arrival. It is an older frame only when a resume
                # at this very time has not fired yet (arrivals go first).
                free = True
                sigma = t
        if plain:
            # Each frame's correctness draw follows its exit draw.
            # Completions at or before the horizon always fire. A later
            # one, only ever the last, is in flight at the end of the run
            # — its exit draw consumed but the frame neither processed
            # nor lost, as in the event loop.
            served = i if c <= duration else i - 1
            if served > 0:
                served_latencies.extend(services[:served])
                n_correct += int(np.count_nonzero(
                    draws[base + 1:base + 2 * served:2] < entry.accuracy))
            i *= 2
        ai, qlen, c_last, p, retry = hi, q, c, base + i, requeued
        correct += n_correct
        lost += n_lost
        shed += n_shed
        batches += n_batches
        retries += n_retries
        failed += n_failed
        return not (is_tick and q and sigma == t_end)

    degrade = getattr(policy, "select_without_reconfig", None)

    def reconfigure(selected, attempt: int, now: float) -> None:
        """One reconfiguration attempt under faults, as the event loop's
        ``attempt_reconfig``: a failure with budget left schedules the
        next attempt as an extra segment boundary."""
        nonlocal reconfig_until, entry, next_retry, reconfig_failures, \
            reconfig_retries, fault_dead_time_s
        nominal = controller.planned_duration_s(selected.accelerator)
        fails, swap_s = plan.reconfig_outcome(now, nominal)
        success, dead = controller.attempt_switch(
            selected.accelerator, now_s=now, duration_s=swap_s,
            fails=fails)
        reconfig_until = max(reconfig_until, now + dead)
        if success:
            entry = selected
            return
        reconfig_failures += 1
        fault_dead_time_s += dead
        if attempt < spec.reconfig_retries:
            reconfig_retries += 1
            backoff = spec.retry_backoff_s * (2 ** attempt)
            next_retry = (now + (dead + backoff), selected, attempt + 1)
        elif degrade is not None:
            # Out of retries: the best entry on the loaded accelerator.
            entry = degrade(entry) or entry

    def retry_reconfig(limit: float) -> bool:
        """Run the scheduled reconfiguration retries due by ``limit``
        (a tick or the horizon); False on an exact-time tie."""
        nonlocal next_retry
        while next_retry is not None and next_retry[0] <= limit:
            r, selected, attempt = next_retry
            if r == limit or not serve_segment(r, is_tick=True) \
                    or c_last == r or reconfig_until == r:
                return False
            next_retry = None
            reconfigure(selected, attempt, r)
        return True

    for tick, count in zip(ticks, window_counts):
        if not retry_reconfig(tick):
            return None
        if not serve_segment(tick, is_tick=True):
            return None
        if c_last == tick or reconfig_until == tick:
            # A completion or reconfiguration-resume lands exactly on
            # the tick: whether it precedes the decision depends on
            # event scheduling order. Let the oracle decide.
            return None
        ips = count / window
        dt = tick - last_power_t
        if dt > 0:
            energy_j += entry.power_at(ips) * dt
            last_power_t = tick
        if brownout:
            # A requeued frame whose failing service is still running
            # is not in the queue yet (c_last == tick was declined).
            queued = qlen - 1 if retry and c_last > tick else qlen
            occ = queued / capacity
            new_rung = rung
            if occ >= cfg.brownout_high and new_rung < bottom_rung:
                new_rung += 1
            elif occ <= cfg.brownout_low and new_rung > 0:
                new_rung -= 1
            if new_rung != rung:
                brownout_steps += 1
                if rung == 0:
                    brownout_since = tick
                elif new_rung == 0:
                    brownout_time_s += tick - brownout_since
                rung = new_rung
        if ladder and rung > 0:
            selected = select_at(
                base_floor - brown_levels[rung - 1], ips, current=entry)
        else:
            selected = policy.select(ips, current=entry)
        if not controller.needs_switch(selected.accelerator):
            entry = selected
        elif plan is None:
            dead = controller.switch(selected.accelerator, now_s=tick)
            reconfig_until = tick + dead
            entry = selected
        elif next_retry is None:
            reconfigure(selected, 0, tick)
        # else: a retry is in flight; the deployed entry stays.
        if record_trace:
            trace["t"].append(tick)
            trace["workload_ips"].append(ips)
            trace["pruning_rate"].append(entry.accelerator.pruning_rate)
            trace["confidence_threshold"].append(
                entry.confidence_threshold)
            trace["accuracy"].append(entry.accuracy)
            trace["serving_ips"].append(entry.serving_ips)

    if not retry_reconfig(duration):
        return None
    if not serve_segment(duration, is_tick=False):  # pragma: no cover
        return None
    lost += qlen  # still queued at the horizon: never served
    if rung > 0:
        brownout_time_s += duration - brownout_since

    # Arrival events past the horizon never fire in the event loop, so
    # the monitor never sees them: the count stops at the horizon.
    final_ips = window_counts[-1] / window
    dt = duration - last_power_t
    if dt > 0:
        energy_j += entry.power_at(final_ips) * dt

    # cumsum is a sequential left-to-right accumulation, bit-identical
    # to the event loop's `latency_sum += service` chain.
    processed = len(served_latencies)
    if processed:
        latency_sum = float(np.cumsum(np.fromiter(
            served_latencies, np.float64, processed))[-1])
    else:
        latency_sum = 0.0

    post = controller.events[initial_events:]
    return RunMetrics(
        policy=getattr(policy, "name", type(policy).__name__),
        duration_s=duration,
        total_requests=n,
        processed=processed,
        lost=lost,
        accuracy=float(correct) / processed if processed else 0.0,
        avg_latency_s=latency_sum / processed if processed else 0.0,
        energy_j=energy_j,
        reconfigurations=sum(1 for e in post if e.success),
        reconfig_dead_time_s=sum(e.duration_s for e in post if e.success),
        dropped=dropped,
        failed=failed,
        retries=retries,
        reconfig_failures=reconfig_failures,
        reconfig_retries=reconfig_retries,
        fault_dead_time_s=fault_dead_time_s,
        batches=batches,
        shed=shed,
        brownout_steps=brownout_steps,
        brownout_time_s=brownout_time_s,
        trace=trace if record_trace else {},
    )
