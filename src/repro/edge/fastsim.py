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
* power integration is per-tick scalar work, as in the event loop.

The only irreducibly sequential part — the bounded-queue admission /
single-server start-time recursion — is a scalar loop per segment over
plain Python floats held in locals, with the *same* float operations
as the event loop (``max`` and one addition per start), so completions,
queue-full losses, and end-of-run in-flight frames are decided
identically. The kind of run is fixed by its config, so
:func:`run_fast` picks one of three loops per run, each carrying only
its own state; the tables, the tick and tie checks and the
``RunMetrics`` assembly are shared:

* **plain** (unbatched and fault-free: every run of the paper's Table I
  traffic and every fleet server run). While the last start ends inside
  a swap window (``c < reconfig_until``), a short blocked phase applies
  the event loop's ``max(c, reconfig_until)`` rule. After it every
  start is one addition, ``c + service``; an arrival that finds the
  server idle starts at once, and admission is one length test. The
  segment's served latencies are a slice of its latency array and its
  hits one vectorized compare over its correctness draws;
* **micro-batched**: a start takes the queue head plus every queued
  frame that arrived within ``batch_window_s`` of it (the loop keeps a
  deque of the queued arrival times for it) and charges one dispatch
  overhead per batch. The loop records each counted batch's first table
  index and size; the segment's latencies are then
  ``lat[idx] + np.repeat(overhead / k, k)`` and its hits one compare;
* **faulted** (unbatched with ``sim.faults`` set), described next.

No loop keeps a Python float per served frame past its segment: the
served latencies are per-segment NumPy arrays, and ``latency_sum`` is
one ``np.cumsum`` over their concatenation (a sequential left-to-right
accumulation, bit-identical to the event loop's ``latency_sum +=``
chain).

The faulted loop is the only one that does fault work per served frame;
its admission reads the pending retry only for an arrival that meets
the queue or shedding limit. The kernel builds the run's
:class:`~repro.runtime.faults.FaultPlan` exactly as the event loop does;
each fault category has a private stream, so drawing one ahead of time
in the event loop's order gives the same decisions:

* spike arrivals are merged into the workload up front, and ingress
  drops are decided for every arrival up to the horizon with one
  vectorized draw (``FaultPlan.drop_mask``); dropped frames never reach
  the monitor or the queue;
* inference errors are decided when a service starts, against its
  completion time and in completion order (one decision per completion
  inside the active window, read by index from the 1024-wide blocks of
  ``FaultPlan.inference_failure_block``). A failed service burns its
  time and takes no correctness draw, so the stream position advances
  by 1, not 2. Its frame goes back to the queue head
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
    # failed services can outrun that, and ``stream`` draws more.
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

    # --- run state (plain Python floats/ints: the scalar loops below
    # must use the exact float ops of the event loop) -----------------
    qlen = 0              # frames waiting (excludes in-service)
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
    served: list = []     # per-segment served latencies, completion order
    energy_j = 0.0
    last_power_t = 0.0
    ai = 0                # next arrival index to admit
    # Fault state. ``retry`` is the attempt count of the frame a failed
    # inference puts back at the queue head (0 = none): the next start
    # serves it, so at most one exists. ``qlen`` counts it from the
    # failing start on, but the event loop's queue holds it only from
    # the failed completion ``c_last`` on (see the faulted admission).
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

    # Exit CDF and latencies per deployed entry, built on its first table
    # (where ``_exit_cdf`` rejects bad exit rates, as ``choice`` does at
    # the event loop's first start); holding the entry keeps its ``id``.
    exit_tables: dict = {}

    def stream(pos: int, m: int) -> np.ndarray:
        """The ``m`` draws from stream position ``pos``. Only faulted
        runs outrun the bulk draw; extending the private stream gives
        the draws one longer ``rng.random`` call would have given."""
        nonlocal draws
        if pos + m > len(draws):
            draws = np.concatenate([draws, rng.random(pos + m - len(draws))])
        return draws[pos:pos + m]

    def exit_latencies(u: np.ndarray) -> np.ndarray:
        """The deployed entry's service latency for each exit draw in
        ``u``. Over-computing has no RNG side effects: the next segment
        rebuilds from the first unconsumed position."""
        known = exit_tables.get(id(entry))
        if known is None:
            cdf = _exit_cdf(entry.exit_rates)  # same validation as choice
            latencies = np.asarray(entry.exit_latencies_s, dtype=np.float64) \
                if entry.exit_latencies_s else None
            known = exit_tables[id(entry)] = (entry, cdf, latencies)
        _, cdf, latencies = known
        if latencies is None:
            return np.full(len(u), entry.latency_s, dtype=np.float64)
        return latencies[cdf.searchsorted(u, side="right")]

    def serve_plain(t_end: float, is_tick: bool) -> None:
        """Admit arrivals and run services with start times <= t_end,
        unbatched and fault-free.

        The swap window, the deployed entry and the brownout rung are
        fixed within the segment. Table index ``i`` is frame ``i`` of the
        segment: its exit draw sits at stream position ``base + 2i`` and
        its correctness draw right after it.
        """
        nonlocal ai, qlen, c_last, p, correct, lost, shed
        hi = bisect_right(arr_list, t_end, ai)
        q, c, ru, base = qlen, c_last, reconfig_until, p
        lat = exit_latencies(stream(base, 2 * (q + hi - ai))[::2])
        services = lat.tolist()
        shedding = brownout and rung == bottom_rung
        admit_below = shed_len if shedding else capacity
        # At a decision tick, a start exactly *on* it comes from a
        # completion/resume event tied with the decision event (the
        # caller declines those runs); at the run horizon every event
        # <= duration fires, so that limit is inclusive.
        limit = t_end if is_tick else nextafter(t_end, _INF)
        i = refused = 0
        j = ai
        if c < ru:
            # Blocked phase: nothing starts before the swap ends at
            # ``ru``. Arrivals up to it queue; one exactly at ``ru`` finds
            # the server idle and starts the head at once (the resume
            # event fires after the arrival).
            while j < hi and arr_list[j] <= ru:
                t = arr_list[j]
                j += 1
                if q >= admit_below:
                    refused += 1
                elif t < ru:
                    q += 1
                else:
                    c = t + services[i]
                    i += 1
                    break
            else:
                # The resume starts the head, unless the segment ends
                # first (then nothing else happens in it).
                if q and (j < hi or ru < limit):
                    q -= 1
                    c = ru + services[i]
                    i += 1
        # From here on ``c >= ru`` (or the queue is empty), so a start
        # is ``c + service``. Queued frames whose service begins strictly
        # before an arrival have left the queue when it is admitted
        # (starts *at* its time come from completion events that fire
        # after the arrival event).
        for t in arr_list[j:hi]:
            if c < t:
                while q:
                    q -= 1
                    c += services[i]
                    i += 1
                    if c >= t:
                        break
                else:             # idle: the arrival starts at once
                    c = t + services[i]
                    i += 1
                    continue
            if q < admit_below:
                q += 1
            else:
                refused += 1
        if c >= ru:
            while q and c < limit:
                q -= 1
                c += services[i]
                i += 1
        # Completions at or before the horizon always fire. A later one,
        # only ever the last, is in flight at the end of the run — its
        # exit draw consumed but the frame neither processed nor lost, as
        # in the event loop.
        done = i if c <= duration else i - 1
        if done > 0:
            served.append(lat[:done])
            correct += int(np.count_nonzero(
                draws[base + 1:base + 2 * done:2] < entry.accuracy))
        if shedding:
            shed += refused
        else:
            lost += refused
        ai, qlen, c_last, p = hi, q, c, base + 2 * i

    pend: deque = deque()  # arrival times of the queued frames
    pend_append, pend_popleft = pend.append, pend.popleft

    def serve_batched(t_end: float, is_tick: bool) -> None:
        """:func:`serve_plain` for micro-batched runs. Table index ``i``
        is stream position ``base + i``."""
        nonlocal ai, qlen, c_last, p, correct, lost, shed, batches
        hi = bisect_right(arr_list, t_end, ai)
        q, c, ru, base = qlen, c_last, reconfig_until, p
        u = stream(base, 2 * (q + hi - ai))
        lat = exit_latencies(u)
        services = lat.tolist()
        shedding = brownout and rung == bottom_rung
        admit_below = shed_len if shedding else capacity
        # The segment's arrivals, then its limit (see ``serve_plain``).
        limits = arr_list[ai:hi]
        limits.append(t_end if is_tick else nextafter(t_end, _INF))
        left = hi - ai
        i = refused = 0
        firsts: list[int] = []  # first table index of each counted batch
        sizes: list[int] = []
        free = False          # an admitted arrival found the server idle
        for t in limits:
            while q:
                if free:
                    free = False  # ``sigma`` is that arrival's time
                else:
                    sigma = c if c >= ru else ru
                    if sigma >= t:
                        break
                # The head plus every queued frame within
                # ``batch_window`` of its arrival share one plan
                # invocation and one dispatch overhead.
                window_end = pend_popleft() + batch_window
                k = 1
                while pend and pend[0] <= window_end:
                    pend_popleft()
                    k += 1
                q -= k
                total = overhead
                for service in services[i:i + k]:
                    total += service
                c = sigma + total
                if c <= duration:
                    firsts.append(i)
                    sizes.append(k)
                i += 2 * k
            if not left:
                break             # t is the segment's limit
            left -= 1
            if q >= admit_below:
                refused += 1
                continue
            q += 1
            pend_append(t)
            if c < t and ru <= t:
                # Idle and unblocked: the head starts at t, before any
                # later arrival. It is an older frame only when a resume
                # at this very time has not fired yet (arrivals go first).
                free = True
                sigma = t
        if sizes:
            # Frame ``f`` of a batch of ``k`` from index ``i0``: exit
            # draw at ``i0 + f``, correctness draw at ``i0 + k + f``, and
            # latency its service plus the batch's overhead share.
            ks = np.array(sizes)
            k_each = np.repeat(ks, ks)
            idx = np.repeat(np.array(firsts) - (np.cumsum(ks) - ks), ks) \
                + np.arange(len(k_each))
            served.append(lat[idx] + np.repeat(overhead / ks, ks))
            correct += int(np.count_nonzero(
                u[idx + k_each] < entry.accuracy))
            batches += len(sizes)
        if shedding:
            shed += refused
        else:
            lost += refused
        ai, qlen, c_last, p = hi, q, c, base + i

    # Inference errors. Each failed service with budget left serves its
    # frame once more, one draw beyond the segment's two-per-frame
    # bound, so a faulted start regrows the tables when it runs out.
    if plan is not None and spec.inference_error_prob > 0.0:
        infer_from = spec.active_from_s
        infer_until = _INF if spec.active_until_s is None \
            else spec.active_until_s
    else:
        infer_from = infer_until = _INF  # never active
    fail_block: list = []  # the current block of inference decisions
    fail_at = 0            # the next decision's index in it

    def fault_tables(pos: int, m: int):
        """Per stream position from ``pos`` on: the service latency an
        exit draw there gives and whether a correctness draw there hits."""
        u = stream(pos, m)
        return exit_latencies(u).tolist(), (u < entry.accuracy).tolist()

    def serve_faulted(t_end: float, is_tick: bool) -> None:
        """:func:`serve_batched`'s loop for unbatched fault campaigns:
        a start serves the requeued frame first, and a service whose
        completion fails burns its time without a correctness draw."""
        nonlocal ai, qlen, c_last, p, retry, correct, lost, shed, \
            retries, failed, fail_block, fail_at
        hi = bisect_right(arr_list, t_end, ai)
        q, c, ru, requeued, base = qlen, c_last, reconfig_until, retry, p
        fails, fk = fail_block, fail_at
        n_fails = len(fails)
        services, hits = fault_tables(base, 2 * (q + hi - ai))
        last = len(services) - 1
        seg: list[float] = []  # this segment's served latencies
        seg_append = seg.append
        i = n_correct = n_lost = n_shed = n_retries = n_failed = 0
        shedding = brownout and rung == bottom_rung
        admit_below = shed_len if shedding else capacity
        limits = arr_list[ai:hi]
        limits.append(t_end if is_tick else nextafter(t_end, _INF))
        left = hi - ai
        free = False
        for t in limits:
            while q:
                if free:
                    free = False
                else:
                    sigma = c if c >= ru else ru
                    if sigma >= t:
                        break
                q -= 1
                attempts, requeued = requeued, 0
                if i >= last:
                    # Retries outran the segment's tables.
                    base, i = base + i, 0
                    services, hits = fault_tables(base, 64)
                    last = len(services) - 1
                service = services[i]
                c = sigma + service
                if c <= duration:
                    if infer_from <= c < infer_until:
                        if fk == n_fails:
                            fails, fk = plan.inference_failure_block(), 0
                            n_fails = len(fails)
                        failing = fails[fk]
                        fk += 1
                        if failing:
                            # The frame goes back to the queue head or,
                            # out of budget, counts as failed.
                            i += 1
                            if attempts < spec.inference_retries:
                                n_retries += 1
                                requeued = attempts + 1
                                q += 1
                            else:
                                n_failed += 1
                            continue
                    seg_append(service)
                    if hits[i + 1]:
                        n_correct += 1
                i += 2
            if not left:
                break
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
            if c < t and ru <= t:
                free = True
                sigma = t
        if seg:
            served.append(np.array(seg))
        ai, qlen, c_last, p, retry = hi, q, c, base + i, requeued
        fail_block, fail_at = fails, fk
        correct += n_correct
        lost += n_lost
        shed += n_shed
        retries += n_retries
        failed += n_failed

    if batching:
        serve_segment = serve_batched
    elif plan is None:
        serve_segment = serve_plain
    else:
        serve_segment = serve_faulted
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

    def tied(limit: float) -> bool:
        """Serve up to a decision tick or reconfiguration retry and tell
        whether a completion or reconfiguration resume lands exactly on
        it: whether that precedes the boundary's event depends on event
        scheduling order, so the oracle decides."""
        serve_segment(limit, True)
        return c_last == limit or reconfig_until == limit

    def retry_reconfig(limit: float) -> bool:
        """Run the scheduled reconfiguration retries due by ``limit``
        (a tick or the horizon); False on an exact-time tie."""
        nonlocal next_retry
        while next_retry is not None and next_retry[0] <= limit:
            r, selected, attempt = next_retry
            if r == limit or tied(r):
                return False
            next_retry = None
            reconfigure(selected, attempt, r)
        return True

    for tick, count in zip(ticks, window_counts):
        if not retry_reconfig(tick) or tied(tick):
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
    serve_segment(duration, False)
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
    latencies = np.concatenate(served) if served else np.empty(0)
    processed = len(latencies)
    latency_sum = float(np.cumsum(latencies)[-1]) if processed else 0.0

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
