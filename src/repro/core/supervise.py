"""The one process pool: supervised, ordered execution of work units.

The design-time sweep and the edge-server evaluation are both
embarrassingly parallel, but almost every cycle is spent in NumPy and
Python loops that hold the GIL, so a thread pool buys nothing.
:class:`SupervisedPool` runs work units on forked worker processes, or
serially in-process with one worker or without the ``fork`` start
method. Workers inherit their state by fork: the ``initializer`` and
its ``initargs`` travel as ``Process`` arguments, which a forked child
inherits without pickling, so whatever the parent has already built
(trained models, datasets, compiled policy tables) is shared, never
shipped or rebuilt (``simulate_policy`` compiles a Runtime Manager's
policy table in the parent before the pool forks, so it is compiled
once per campaign). Only items and results are pickled. The pool adds
the failure handling a production sweep needs:

* **wall-clock timeouts** — a hung worker cannot be cancelled through
  ``concurrent.futures``, so on deadline the whole pool is terminated
  and the surviving work units are resubmitted on a fresh one; only the
  timed-out unit is charged an attempt, and a unit's clock starts when
  it is handed to an idle worker, never while it waits for a slot;
* **crash detection** — a worker that dies (segfault, OOM kill,
  ``os._exit``) breaks the pool; units that completed before the break
  keep their results, units that were running are charged a crash
  attempt, queued units are resubmitted for free;
* **retries with capped backoff** — transient/unknown failures are
  retried up to ``retries`` times with exponentially growing, capped
  sleeps between attempts;
* **quarantine** — a unit that fails permanently (typed
  :class:`~repro.core.errors.PermanentError`) or exhausts its retry
  budget is recorded as a structured :class:`FailedPoint` instead of
  aborting the sweep. The caller decides what a partial result means.

Results are reported in item order regardless of completion order, so
parallel runs are bit-identical to serial ones. :meth:`SupervisedPool.map`
is the strict form that serving and fleet campaigns use: the first
failure raises, and no partial result is returned.
``KeyboardInterrupt`` / ``SystemExit`` are never swallowed — a killed
sweep must stay killable (and resumable from its checkpoint manifest).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .errors import WorkTimeoutError, WorkerCrashError, classify_error

__all__ = ["SuperviseConfig", "FailedPoint", "SweepOutcome",
           "SupervisedPool", "fork_available", "resolve_workers"]


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in mp.get_all_start_methods()


def resolve_workers(workers) -> int:
    """Normalize a worker-count knob.

    ``True`` means "one per CPU"; ``None``/``False``/``0`` mean serial;
    an int is taken as-is (minimum 1).
    """
    if workers is True:
        return os.cpu_count() or 1
    if not workers:
        return 1
    return max(1, int(workers))


@dataclass(frozen=True)
class SuperviseConfig:
    """Failure-handling knobs of a supervised run."""

    timeout_s: float | None = None  # per-item wall clock (parallel path)
    retries: int = 2                # retry budget per item
    backoff_s: float = 0.05         # first retry sleep
    backoff_cap_s: float = 2.0      # exponential backoff ceiling
    poll_interval_s: float = 0.05   # supervision loop tick

    def __post_init__(self):
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff must be >= 0")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based), capped."""
        return min(self.backoff_s * (2 ** max(attempt - 1, 0)),
                   self.backoff_cap_s)


@dataclass(frozen=True)
class FailedPoint:
    """Structured record of one quarantined work unit."""

    label: str
    kind: str        # transient | permanent | unknown | timeout | crash
    error_type: str  # exception class name
    message: str
    attempts: int    # failed attempts before quarantine

    def reason(self) -> str:
        return (f"{self.kind} failure after {self.attempts} attempt(s): "
                f"{self.error_type}: {self.message}")

    def to_dict(self) -> dict:
        return {"label": self.label, "kind": self.kind,
                "error_type": self.error_type, "message": self.message,
                "attempts": self.attempts}

    @classmethod
    def from_dict(cls, d: dict) -> "FailedPoint":
        return cls(label=str(d["label"]), kind=str(d["kind"]),
                   error_type=str(d["error_type"]),
                   message=str(d["message"]),
                   attempts=int(d["attempts"]))


@dataclass
class SweepOutcome:
    """What a supervised run produced."""

    results: list                      # item-ordered; None where failed
    failures: dict = field(default_factory=dict)  # index -> FailedPoint
    retries: int = 0                   # retry attempts performed

    @property
    def ok(self) -> bool:
        return not self.failures

    def completed(self) -> int:
        return sum(r is not None for r in self.results)


class _ItemState:
    """Per-item supervision bookkeeping."""

    __slots__ = ("attempts",)

    def __init__(self):
        self.attempts = 0


class SupervisedPool:
    """Retry/timeout/quarantine supervision over a process pool.

    Parameters
    ----------
    workers:
        Worker-count knob (see :func:`resolve_workers`); the pool is
        never larger than the number of items. With one worker —
        or without ``fork`` — items run serially in-process; retries and
        quarantine still apply, but wall-clock timeouts do not (a hung
        in-process call cannot be safely preempted).
    config:
        A :class:`SuperviseConfig`; defaults to retries with backoff and
        no timeout.
    progress / label:
        ``progress`` is an optional ``callable(str)`` told of every
        completed item (``label(item)`` names it, ``repr`` by default),
        and of every retry and quarantine.
    initializer / initargs:
        Per-worker one-time setup, inherited by fork (never pickled);
        rerun whenever a pool is rebuilt after a crash or timeout. In
        the serial path it runs once, in-process, so ``fn`` can rely on
        its side effects either way.
    """

    def __init__(self, workers=1, config: SuperviseConfig | None = None,
                 progress=None, label=None, initializer=None, initargs=()):
        self.workers = resolve_workers(workers)
        self.config = config or SuperviseConfig()
        self._progress = progress or (lambda msg: None)
        self._label = label or repr
        self._initializer = initializer
        self._initargs = initargs

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, fn, items, on_result=None, on_failure=None) -> SweepOutcome:
        """Apply ``fn`` to every item under supervision.

        ``on_result(index, item, result)`` fires in the parent as each
        item completes (any completion order); use it to checkpoint.
        ``on_failure(index, item, failed_point)`` fires on quarantine.
        Returns a :class:`SweepOutcome` with item-ordered results.
        """
        items = list(items)
        outcome = SweepOutcome(results=[None] * len(items))
        state = [_ItemState() for _ in items]
        ctx = _RunContext(self, items, outcome, state, on_result,
                          on_failure)
        if not items:
            return outcome
        workers = min(self.workers, len(items))
        if workers <= 1 or not fork_available():
            self._run_serial(fn, ctx)
        else:
            self._run_parallel(fn, ctx, workers)
        return outcome

    def map(self, fn, items) -> list:
        """``fn`` over ``items``; returns the results in item order.

        The first quarantined item raises a ``RuntimeError`` that names
        it, raised while the item's own exception (or the worker's remote
        traceback) is being handled, so that exception stays chained.
        Build the pool with ``SuperviseConfig(retries=0)`` to fail on the
        first error rather than after retries.
        """
        def fail(index, item, failed):
            raise RuntimeError(f"{failed.label} failed: {failed.reason()}")

        return self.run(fn, items, on_failure=fail).results

    # ------------------------------------------------------------------
    # serial path
    # ------------------------------------------------------------------
    def _run_serial(self, fn, ctx: "_RunContext") -> None:
        if self._initializer is not None:
            self._initializer(*self._initargs)
        for i, item in enumerate(ctx.items):
            while True:
                try:
                    result = fn(item)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    if ctx.note_failure(i, exc, classify_error(exc)):
                        time.sleep(self.config.backoff_for(
                            ctx.state[i].attempts))
                        continue
                    break
                ctx.note_result(i, result)
                break

    # ------------------------------------------------------------------
    # parallel path
    # ------------------------------------------------------------------
    def _run_parallel(self, fn, ctx: "_RunContext", workers: int) -> None:
        pending = list(range(len(ctx.items)))
        wave = 0
        while pending:
            if wave:
                # One capped inter-wave backoff covers every requeued
                # item (their individual budgets differ by at most one
                # attempt).
                time.sleep(self.config.backoff_for(wave))
            wave += 1
            pending = self._run_wave(fn, ctx, pending, workers)

    def _run_wave(self, fn, ctx: "_RunContext", wave: list,
                  workers: int) -> list:
        """Run one pool's worth of items; returns indices to rerun."""
        cfg = self.config
        mp_ctx = mp.get_context("fork")
        cap = min(workers, len(wave))
        pool = ProcessPoolExecutor(max_workers=cap, mp_context=mp_ctx,
                                   initializer=self._initializer,
                                   initargs=self._initargs)
        # Items are handed to the pool at most ``cap`` at a time, so
        # every submitted unit lands on an idle worker and submission
        # time is an honest start time for the wall-clock deadline.
        # Items still waiting in ``queue`` have no deadline — they must
        # not burn budget (or retry attempts) while waiting for a slot.
        queue = deque(wave)
        futures: dict = {}     # future -> item index
        deadline: dict = {}    # future -> monotonic deadline
        handled: set = set()   # futures folded into the outcome/requeue
        requeue: list[int] = []
        not_done: set = set()
        running: set = set()

        def submit_more():
            now = time.monotonic()
            while queue and len(not_done) < cap:
                i = queue.popleft()
                f = pool.submit(fn, ctx.items[i])
                futures[f] = i
                not_done.add(f)
                if cfg.timeout_s is not None:
                    deadline[f] = now + cfg.timeout_s

        try:
            submit_more()  # a fresh pool cannot be broken yet
            while not_done:
                running = {f for f in not_done if f.running()}
                done, not_done = wait(not_done,
                                      timeout=cfg.poll_interval_s,
                                      return_when=FIRST_COMPLETED)
                try:
                    for f in done:
                        self._collect(ctx, futures[f], f, requeue)
                        handled.add(f)
                    submit_more()
                except BrokenProcessPool:
                    self._handle_broken_pool(
                        ctx, futures,
                        [f for f in futures if f not in handled],
                        running, requeue)
                    requeue.extend(queue)  # unsubmitted items rerun free
                    return requeue
                if deadline:
                    now = time.monotonic()
                    expired = [f for f in not_done
                               if now >= deadline[f]]
                    if expired:
                        self._handle_timeout(ctx, futures, expired,
                                             not_done, requeue)
                        requeue.extend(queue)
                        return requeue
            return requeue
        finally:
            self._shutdown(pool)

    def _collect(self, ctx: "_RunContext", i: int, future, requeue) -> None:
        """Fold one finished future into the outcome."""
        try:
            result = future.result()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BrokenProcessPool:
            raise
        except Exception as exc:
            if ctx.note_failure(i, exc, classify_error(exc)):
                requeue.append(i)
        else:
            ctx.note_result(i, result)

    def _handle_broken_pool(self, ctx: "_RunContext", futures, candidates,
                            running, requeue) -> None:
        """A worker died. First salvage completed futures that still
        hold a retrievable outcome (they finished before the pool broke
        but had not been collected yet), then charge the units that were
        running; requeue the rest for free."""
        unresolved = []
        for f in candidates:
            i = futures[f]
            if i in ctx.finished:
                continue
            if f.done():
                try:
                    self._collect(ctx, i, f, requeue)
                    continue
                except BrokenProcessPool:
                    pass  # this future's "result" is the pool break
            unresolved.append(f)
        # If nothing was observably running (e.g. the pool initializer
        # itself crashes), charge everyone — otherwise the wave loop
        # could respin forever without making progress.
        charged = running & set(unresolved) or set(unresolved)
        for f in unresolved:
            i = futures[f]
            if f in charged:
                exc = WorkerCrashError(
                    "worker process died while the unit was in flight")
                if ctx.note_failure(i, exc, "crash"):
                    requeue.append(i)
            else:
                requeue.append(i)

    def _handle_timeout(self, ctx: "_RunContext", futures, expired,
                        not_done, requeue) -> None:
        """Deadline passed for some started units: charge them, requeue
        the innocent bystanders sharing the pool — items never handed to
        the pool carry no deadline at all and ride along for free."""
        cfg = self.config
        for f in expired:
            i = futures[f]
            exc = WorkTimeoutError(
                f"exceeded the {cfg.timeout_s:g}s wall-clock budget")
            if ctx.note_failure(i, exc, "timeout"):
                requeue.append(i)
        for f in not_done:
            if f in expired:
                continue
            if f.done():
                try:
                    self._collect(ctx, futures[f], f, requeue)
                except BrokenProcessPool:
                    requeue.append(futures[f])
            else:
                requeue.append(futures[f])

    @staticmethod
    def _shutdown(pool) -> None:
        """Tear a pool down without waiting on hung workers: terminate
        them, then reap them and the pool's manager thread, so no part
        of the pool outlives the call."""
        processes = list(getattr(pool, "_processes", {}).values())
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
        for proc in processes:
            proc.join()
        pool.shutdown(wait=True, cancel_futures=True)


class _RunContext:
    """Shared mutable state of one :meth:`SupervisedPool.run` call."""

    def __init__(self, pool: SupervisedPool, items, outcome: SweepOutcome,
                 state, on_result, on_failure):
        self.pool = pool
        self.items = items
        self.outcome = outcome
        self.state = state
        self.on_result = on_result
        self.on_failure = on_failure
        self.finished: set[int] = set()  # indices done or quarantined
        self._completed = 0

    def note_result(self, i: int, result) -> None:
        self.outcome.results[i] = result
        self.finished.add(i)
        self._completed += 1
        self.pool._progress(
            f"{self.pool._label(self.items[i])} done "
            f"({self._completed}/{len(self.items)})")
        if self.on_result is not None:
            self.on_result(i, self.items[i], result)

    def note_failure(self, i: int, exc: BaseException, kind: str) -> bool:
        """Record a failed attempt. Returns True when the item should be
        retried, False when it was quarantined."""
        cfg = self.pool.config
        state = self.state[i]
        state.attempts += 1
        label = self.pool._label(self.items[i])
        detail = f"{type(exc).__name__}: {exc}"
        retryable = kind != "permanent"
        if retryable and state.attempts <= cfg.retries:
            self.outcome.retries += 1
            self.pool._progress(
                f"{label} failed ({detail}); retry "
                f"{state.attempts}/{cfg.retries} in "
                f"{cfg.backoff_for(state.attempts):.2f}s")
            return True
        failed = FailedPoint(label=label, kind=kind,
                             error_type=type(exc).__name__,
                             message=str(exc), attempts=state.attempts)
        self.outcome.failures[i] = failed
        self.finished.add(i)
        self.pool._progress(f"{label} quarantined after "
                            f"{state.attempts} attempt(s) ({detail})")
        if self.on_failure is not None:
            self.on_failure(i, self.items[i], failed)
        return False
