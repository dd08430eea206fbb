"""Multi-fidelity successive-halving search over the design space.

The exhaustive Library Generator trains every ``(variant, rate,
precision, criterion, schedule)`` point for the full retraining budget.
On the widened criterion/schedule axes that is unaffordable, and most of
the budget is spent on points that never reach the accuracy/latency
Pareto front. This module implements the classic successive-halving
schedule instead:

1. Train **every** point for a few epochs (the first fidelity *rung*).
2. Score the cohort on a Pareto objective — best cascade accuracy over
   the confidence-threshold sweep (maximized) against modeled final-exit
   cycles from the compiled FINN accelerator (minimized).
3. Promote roughly the best ``1/eta`` (the whole nondominated front is
   always kept, plus a small safety margin) to the next rung, which
   multiplies the cumulative budget by ``eta``; repeat until the top
   rung reaches the full budget.
4. Fully characterize the top-rung survivors into ordinary
   :class:`~repro.runtime.library.LibraryEntry` rows through the exact
   same ``LibraryGenerator._characterize`` flow as the exhaustive sweep.

No epoch is ever recomputed: each rung trains only the *delta* epochs on
top of the previous rung's weight checkpoint, every rung artifact
(score JSON + ``.npz`` weight state) is stored in the
:class:`~repro.core.pointcache.PointCache` under a **fidelity-salted**
point key, and progress is tracked in the same crash-safe
:class:`~repro.core.checkpoint.SweepManifest` the exhaustive sweep uses.
Killing a halving run at any instant and rerunning it resumes from the
last persisted rung artifact and produces a byte-identical Library,
because training is expressed as deterministic single-epoch units
(seeded ``retraining.seed + absolute_epoch``) whose boundaries coincide
with the rung boundaries — any partition of the epoch sequence into
rungs yields bit-identical weights.

Two fidelity-scoring shortcuts keep rungs cheap without biasing the
final results:

* Rung accuracy is measured on the accuracy twin's own forward pass
  (one batched sweep over the test set), not the compiled inference
  plan. The plan is function-preserving, so the cheap path ranks
  identically; survivors are still characterized through the compiled
  flow.
* Cycles depend only on the architecture, never on training, so they
  are compiled once per point on the first rung — which also quarantines
  infeasible points (e.g. INT8 at low pruning rates overflowing the
  device) *before* any training budget is spent — and carried forward.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..nn.quant import post_training_quantize
from ..nn.serialize import load_state_arrays, state_arrays
from ..nn.shmstate import publish_state_arrays
from ..nn.trainer import Trainer, cascade_sweep, evaluate_exits
from ..pruning.pruner import prune_model
from ..pruning.schedule import psfp_retrain_epochs
from ..runtime.library import Library
from .checkpoint import SweepManifest
from .config import AdaPExConfig
from .design_time import (LibraryGenerator, _parallel_worker_init,
                          describe_point, sweep_points)
from .instrument import PhaseTimer
from .parallel import fork_available
from .pointcache import PointCache
from .supervise import SuperviseConfig, SupervisedPool

__all__ = ["HalvingConfig", "HalvingReport", "HalvingSearch",
           "pareto_ranks", "pareto_front"]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HalvingConfig:
    """Knobs of the successive-halving schedule."""

    #: Epochs of the first (cheapest) fidelity rung.
    min_epochs: int = 1
    #: Budget multiplier between rungs; also the inverse keep fraction.
    eta: int = 2
    #: Safety margin on top of the nondominated front at each promotion:
    #: the kept cohort is at least ``front_size + extra_keep`` (and at
    #: least ``ceil(n / eta)``), so near-front points survive
    #: low-fidelity ranking noise.
    extra_keep: int = 2
    #: Promote schedule twins together. Points that differ only in the
    #: retraining schedule compile to *identical* hardware, so the
    #: cycles axis cannot separate them and the Pareto cut between twins
    #: is decided purely by low-fidelity accuracy — the noisiest signal
    #: (early PSFP barely diverges from its hard projection). Keeping a
    #: kept point's twins defers the schedule verdict until the rungs
    #: reach the top half of the budget, where protection lapses:
    #: half-budget accuracy is trusted to pick between twins rather than
    #: paying the expensive rungs for both.
    keep_schedule_twins: bool = True

    def __post_init__(self):
        if self.min_epochs < 1:
            raise ValueError("min_epochs must be >= 1")
        if self.eta < 2:
            raise ValueError("eta must be >= 2")
        if self.extra_keep < 0:
            raise ValueError("extra_keep must be >= 0")

    def rungs(self, full_epochs: int) -> list:
        """Cumulative rung fidelities, e.g. ``[1, 2, 4, 8]`` for R=8.

        A budget at or below ``min_epochs`` degenerates to a single rung
        at the full budget (zero included: score without training).
        """
        if full_epochs <= self.min_epochs:
            return [max(full_epochs, 0)]
        out = [self.min_epochs]
        while out[-1] < full_epochs:
            out.append(min(out[-1] * self.eta, full_epochs))
        return out

    @classmethod
    def parse(cls, text: str) -> "HalvingConfig":
        """Parse a CLI spec like ``"min_epochs=1,eta=2,extra_keep=3"``."""
        kwargs = {}
        names = ("min_epochs", "eta", "extra_keep", "keep_schedule_twins")
        for part in filter(None, (p.strip() for p in text.split(","))):
            name, _, value = part.partition("=")
            if name not in names or not value:
                raise ValueError(
                    f"bad halving spec element {part!r}; expected "
                    "comma-separated min_epochs=N, eta=N, extra_keep=N, "
                    "keep_schedule_twins=0|1")
            try:
                kwargs[name] = (bool(int(value))
                                if name == "keep_schedule_twins"
                                else int(value))
            except ValueError:
                raise ValueError(
                    f"bad halving spec value {part!r}: not an integer"
                ) from None
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Pareto utilities
# ----------------------------------------------------------------------
def _dominates(a, b) -> bool:
    """Pareto domination for (accuracy up, cycles down) objectives."""
    return (a[0] >= b[0] and a[1] <= b[1]
            and (a[0] > b[0] or a[1] < b[1]))


def pareto_ranks(scores) -> list:
    """Nondominated-sorting rank of every ``(accuracy, cycles)`` pair.

    Rank 0 is the Pareto front; rank k is the front after removing all
    ranks below k. Pure comparisons — fully deterministic.
    """
    scores = [(float(a), float(c)) for a, c in scores]
    n = len(scores)
    ranks = [-1] * n
    remaining = set(range(n))
    rank = 0
    while remaining:
        front = [i for i in remaining
                 if not any(_dominates(scores[j], scores[i])
                            for j in remaining if j != i)]
        for i in front:
            ranks[i] = rank
        remaining -= set(front)
        rank += 1
    return ranks


def pareto_front(scores) -> list:
    """Indices of the nondominated ``(accuracy, cycles)`` pairs."""
    return [i for i, r in enumerate(pareto_ranks(scores)) if r == 0]


# ----------------------------------------------------------------------
# run report
# ----------------------------------------------------------------------
@dataclass
class HalvingReport:
    """What one halving run did (including what it reused from cache)."""

    #: One record per rung: {"fidelity", "cohort", "kept"}.
    rungs: list = field(default_factory=list)
    #: Human-readable labels of the fully characterized survivors.
    survivors: list = field(default_factory=list)
    quarantined: int = 0
    #: Epochs actually trained by *this* process (0 on a warm rerun).
    epochs_this_run: int = 0
    #: Epochs the search consumed in total, cached rungs included.
    epochs_total: int = 0
    #: What the exhaustive full-fidelity sweep would have trained.
    exhaustive_epochs: int = 0

    @property
    def epoch_reduction(self) -> float:
        """Exhaustive-over-halving epoch ratio (>1 means savings)."""
        if self.epochs_total <= 0:
            return float("inf") if self.exhaustive_epochs > 0 else 1.0
        return self.exhaustive_epochs / self.epochs_total

    def to_dict(self) -> dict:
        return {"rungs": list(self.rungs),
                "survivors": list(self.survivors),
                "quarantined": self.quarantined,
                "epochs_this_run": self.epochs_this_run,
                "epochs_total": self.epochs_total,
                "exhaustive_epochs": self.exhaustive_epochs,
                "epoch_reduction": self.epoch_reduction}


# ----------------------------------------------------------------------
# per-point work units (module-level: must be picklable for the pool)
# ----------------------------------------------------------------------
def _atomic_save_state(path, model) -> None:
    """Write the model's weight snapshot atomically (tmp + rename)."""
    tmp = str(path) + f".{os.getpid()}.tmp.npz"
    np.savez(tmp, **state_arrays(model))
    os.replace(tmp, path)


def _load_state(path, model) -> None:
    with np.load(path) as data:
        load_state_arrays(model, {k: data[k] for k in data.files})


def _rung_model(gen, ctx, point, crit):
    """The model a rung trains for ``point``.

    Hard schedule (and rate 0): the pruned skeleton — deterministic from
    the base weights and criterion, so rung checkpoints always restore
    into the identical architecture. PSFP: a full-width clone — soft
    masks keep the architecture intact until the final hard prune.
    """
    _key, rate, _prec, _crit_name, sched = point
    if sched == "psfp" and rate > 0:
        return ctx.scaled_base.clone()
    pruned, _report = prune_model(ctx.scaled_base, rate,
                                  constraints=ctx.scaled_constraints,
                                  prune_exits=ctx.pruned_exits,
                                  criterion=crit)
    return pruned


def _point_cycles(gen, ctx, point) -> int:
    """Modeled final-exit cycles of the point's hardware twin.

    The hardware twin is compiled, as in the library, from the accuracy
    twin's graph: here the pruned, untrained-at-this-rung skeleton.
    Raises the usual permanent errors (folding/compile/device check) for
    infeasible points, quarantining them at the first rung before any
    training budget is spent.
    """
    from ..ir.export import export_model
    from ..ir.passes import streamline

    cfg = gen.config
    _key, rate, prec, crit_name, _sched = point
    crit = gen._resolve_criterion(ctx, crit_name)
    scaled, _ = prune_model(ctx.scaled_base, rate,
                            constraints=ctx.scaled_constraints,
                            prune_exits=ctx.pruned_exits, criterion=crit)
    spec = cfg.precision_spec(prec)
    if spec is not None:
        scaled = post_training_quantize(scaled, spec.weight_bits,
                                        spec.act_bits)
    graph = export_model(scaled)
    streamline(graph)
    accel, _ = gen._compile_hardware_twin(ctx, rate, crit, graph)
    return int(accel.exit_cycles(accel.num_exits - 1))


def _train_point(point):
    """A point's rung *training* identity: the point with precision
    stripped.

    Non-base precisions are post-training quantizations — evaluation-only
    transforms of the trained weights — so precision twins of the same
    (variant, rate, criterion, schedule) train bit-identical states. Rung
    checkpoints are keyed by this identity and trained once per group.
    """
    key, rate, _prec, crit, sched = point
    return (key, rate, "base", crit, sched)


def _run_rung_point(gen, contexts, cache, spec):
    """Train one point's rung delta and score it; returns (score, timing).

    ``spec`` is ``(point, f_prev, f_cur, key, prev_key, prev_cycles,
    total_epochs, lead)``. ``key``/``prev_key`` are the precision-
    stripped *state* keys (see :func:`_train_point`); the precision-
    salted score key stays with the caller. The weight checkpoint is
    written *before* the caller persists the score, so a crash can never
    leave a score without its matching state.

    The lead of each train group rebuilds and trains the rung delta from
    the previous checkpoint (ignoring any current-state file, so resumed
    runs recompute deterministically); a follower reuses the shared
    state its lead already wrote, and only falls back to training when
    the lead was lost to quarantine.
    """
    (point, f_prev, f_cur, key, prev_key, prev_cycles, total_epochs,
     lead) = spec
    variant_key, rate, prec, crit_name, sched = point
    cfg = gen.config
    ctx = contexts[variant_key]
    timer = PhaseTimer()
    train, test = gen.datasets()
    crit = gen._resolve_criterion(ctx, crit_name)

    # Cycles first: infeasible points quarantine before any training.
    if prev_cycles is None:
        with timer.phase("compile"):
            cycles = _point_cycles(gen, ctx, point)
    else:
        cycles = int(prev_cycles)

    with timer.phase("prune"):
        model = _rung_model(gen, ctx, point, crit)
    state_path = cache.state_path_for(key)
    reuse = (not lead) and state_path.exists()
    if reuse:
        # A precision twin already trained this rung's shared weights.
        _load_state(state_path, model)
    elif f_prev > 0:
        _load_state(cache.state_path_for(prev_key), model)

    trained = 0
    if not reuse and rate > 0 and f_cur > f_prev:
        with timer.phase("retrain"):
            if sched == "psfp":
                trained = psfp_retrain_epochs(
                    model, rate, train.images, train.labels,
                    cfg.retraining, start_epoch=f_prev,
                    epochs=f_cur - f_prev, total_epochs=total_epochs,
                    prune_exits=ctx.pruned_exits, criterion=crit)
            else:
                # One Trainer per epoch, seeded by the absolute epoch
                # index: any partition of the epoch sequence into rungs
                # produces bit-identical weights.
                for e in range(f_prev, f_cur):
                    epoch_cfg = replace(cfg.retraining, epochs=1,
                                        seed=cfg.retraining.seed + e)
                    Trainer(model, epoch_cfg).fit(train.images,
                                                  train.labels)
                    trained += 1
        timer.add("epochs", 0.0, trained)

    if not reuse:
        _atomic_save_state(state_path, model)

    with timer.phase("characterize"):
        eval_model = model
        if sched == "psfp" and rate > 0:
            # Score the *hard-pruned projection* of the soft weights —
            # what this point will become if promoted to the library.
            # Scoring the soft model itself would compare a barely-
            # masked network (early PSFP fractions are small) against
            # fully-pruned hard-schedule rivals and let PSFP points
            # crowd every rung front.
            eval_model = prune_model(eval_model, rate,
                                     constraints=ctx.scaled_constraints,
                                     prune_exits=ctx.pruned_exits,
                                     criterion=crit)[0]
        spec_q = cfg.precision_spec(prec)
        if spec_q is not None:
            # post_training_quantize clones; the saved state is untouched.
            eval_model = post_training_quantize(model, spec_q.weight_bits,
                                                spec_q.act_bits)
        eval_model.eval()
        if eval_model.num_exits == 1:
            accuracy = float(evaluate_exits(eval_model, test.images,
                                            test.labels)[0])
        else:
            sweep = cascade_sweep(eval_model, test.images, test.labels,
                                  cfg.confidence_thresholds)
            accuracy = max(float(p["accuracy"]) for p in sweep)

    score = {"accuracy": accuracy, "cycles": cycles, "fidelity": f_cur,
             "epochs": trained}
    return score, timer.as_dict()


def _finalize_point(gen, contexts, cache, spec, memo):
    """Turn a top-rung survivor into LibraryEntry rows (no training).

    ``spec`` is ``(point, state_key)``; the checkpointed weights are
    restored and handed to ``LibraryGenerator._characterize`` via
    ``scaled_override``, so the survivor flows through the exact
    characterization pipeline of the exhaustive sweep, step memo
    (``memo``) included.
    """
    point, state_key = spec
    variant_key, rate, prec, crit_name, sched = point
    ctx = contexts[variant_key]
    timer = PhaseTimer()
    crit = gen._resolve_criterion(ctx, crit_name)

    if sched == "psfp" and rate > 0:
        # Restore the soft-masked full-width model, then apply the final
        # hard prune — exactly how the exhaustive PSFP pipeline ends.
        soft = ctx.scaled_base.clone()
        _load_state(cache.state_path_for(state_key), soft)
        scaled, report = prune_model(soft, rate,
                                     constraints=ctx.scaled_constraints,
                                     prune_exits=ctx.pruned_exits,
                                     criterion=crit)
    else:
        scaled, report = prune_model(ctx.scaled_base, rate,
                                     constraints=ctx.scaled_constraints,
                                     prune_exits=ctx.pruned_exits,
                                     criterion=crit)
        _load_state(cache.state_path_for(state_key), scaled)

    entries = gen._characterize(ctx, rate, precision=prec, timer=timer,
                                criterion=crit_name, schedule=sched,
                                scaled_override=(scaled, report), memo=memo)
    return entries, timer.as_dict()


def _rung_task(item):
    """Pool worker wrapper: rebuild the cache handle, run the rung."""
    from .design_time import _WORKER_STATE

    spec, cache_root = item
    gen, contexts, _ = _WORKER_STATE
    return _run_rung_point(gen, contexts, PointCache(cache_root), spec)


def _final_task(item):
    from .design_time import _WORKER_STATE

    spec, cache_root = item
    gen, contexts, memo = _WORKER_STATE
    return _finalize_point(gen, contexts, PointCache(cache_root), spec,
                           memo)


# ----------------------------------------------------------------------
# the search engine
# ----------------------------------------------------------------------
class HalvingSearch:
    """Successive-halving front-end over :class:`LibraryGenerator`."""

    def __init__(self, config: AdaPExConfig | None = None,
                 halving: HalvingConfig | None = None,
                 generator: LibraryGenerator | None = None):
        self.generator = generator or LibraryGenerator(config)
        self.config = self.generator.config
        self.halving = halving or HalvingConfig()
        #: :class:`HalvingReport` of the most recent :meth:`run`.
        self.last_report: HalvingReport | None = None

    # ------------------------------------------------------------------
    def run(self, point_cache, progress=None,
            timer: PhaseTimer | None = None,
            supervise: SuperviseConfig | None = None) -> Library:
        """Run the halving search; returns the survivors' Library.

        ``point_cache`` (a :class:`PointCache` or directory path) is
        mandatory: rung checkpoints and scores live there, and they are
        what makes the search resumable and free of epoch recomputation
        on promotion.
        """
        cfg = self.config
        gen = self.generator
        log = progress or (lambda msg: None)
        timer = timer or PhaseTimer()
        supervise = supervise or SuperviseConfig()
        if point_cache is None:
            raise ValueError("halving requires a point cache directory")
        if isinstance(point_cache, (str, os.PathLike)):
            point_cache = PointCache(point_cache)

        full_epochs = cfg.retraining.epochs
        rung_fidelities = self.halving.rungs(full_epochs)
        variants = {(variant, pruned_exits): exits_cfg
                    for variant, exits_cfg, pruned_exits
                    in gen._variants()}
        points = sweep_points(cfg, variants)
        config_key = cfg.point_cache_key()
        manifest = SweepManifest.open(point_cache.root / "manifest.json",
                                      config_key)
        report = HalvingReport(
            exhaustive_epochs=full_epochs * sum(1 for p in points
                                                if p[1] > 0))

        def rung_key(point, fidelity):
            return PointCache.point_key(
                config_key, point[0][0], point[0][1], point[1], point[2],
                point[3], point[4], fidelity=fidelity)

        def state_key(point, fidelity):
            # Checkpoints are shared across precision twins (PTQ is an
            # evaluation-only transform); scores stay precision-salted.
            return rung_key(_train_point(point), fidelity)

        contexts: dict = {}

        def ensure_contexts(pending_points):
            """Train the base models the pending points need (cached)."""
            for vkey in {p[0] for p in pending_points}:
                if vkey in contexts:
                    continue
                scaled_base = gen.base_model(vkey, variants[vkey], log,
                                             timer)
                contexts[vkey] = gen._variant_context(
                    vkey[0], variants[vkey], vkey[1], scaled_base)

        def run_pool(task_fn, serial_fn, items, label_fn, on_result,
                     on_failure):
            """Run work items on the supervised pool (serial or forked)."""
            workers = min(cfg.parallel_workers, len(items))
            if workers > 1 and fork_available():
                base_states = {topo: state_arrays(model)
                               for topo, model in gen._base_cache.items()}
                shipment = publish_state_arrays(base_states)
                try:
                    pool = SupervisedPool(
                        workers=workers, config=supervise, progress=log,
                        label=label_fn, initializer=_parallel_worker_init,
                        initargs=(cfg, shipment.payload))
                    pool.run(task_fn, items, on_result=on_result,
                             on_failure=on_failure)
                finally:
                    shipment.close()
            else:
                pool = SupervisedPool(workers=1, config=supervise,
                                      progress=log, label=label_fn)
                pool.run(serial_fn, items, on_result=on_result,
                         on_failure=on_failure)

        scores: dict = {}    # point -> latest rung score dict
        failures: dict = {}  # point -> FailedPoint
        cohort = list(points)

        # --------------------------------------------------------------
        # rung loop
        # --------------------------------------------------------------
        prev_fid = 0
        for rung_idx, fid in enumerate(rung_fidelities):
            tag = f"e{fid}"
            pending = []
            for point in cohort:
                key = rung_key(point, tag)
                manifest.ensure(key, point[0][0], point[0][1], point[1],
                                point[2], point[3], point[4], fidelity=tag)
                cached = point_cache.get_aux(key)
                if cached is not None \
                        and point_cache.state_path_for(
                            state_key(point, tag)).exists():
                    scores[point] = cached
                    if manifest.status(key) != "done":
                        manifest.mark(key, "done")
                elif manifest.status(key) == "quarantined":
                    failures[point] = manifest.failure(key)
                    log(f"{describe_point(cfg, point)} skipped "
                        f"(quarantined: {failures[point].reason()})")
                else:
                    # "failed" (exhausted transient budget) and plain
                    # pending both rerun; score-without-state cannot
                    # happen (state is written first); state-without-
                    # score reruns the rung over a fresh checkpoint.
                    pending.append(point)
            manifest.save()

            if pending:
                ensure_contexts(pending)
                # The first pending member of each precision train group
                # leads (trains the shared checkpoint); the rest follow
                # and reuse it. Followers run in a second batch so the
                # lead's state exists by the time they look for it.
                leads, followers = [], []
                seen_groups: set = set()
                for point in pending:
                    group = _train_point(point)
                    if group in seen_groups:
                        followers.append(point)
                    else:
                        seen_groups.add(group)
                        leads.append(point)

                def rung_spec(point, lead):
                    prev = scores.get(point) if rung_idx > 0 else None
                    return (
                        point, prev_fid if rung_idx > 0 else 0, fid,
                        state_key(point, tag),
                        state_key(point, f"e{prev_fid}")
                        if rung_idx > 0 else None,
                        prev.get("cycles") if prev else None,
                        full_epochs, lead)

                def serial_rung(item):
                    spec, _root = item
                    return _run_rung_point(gen, contexts, point_cache,
                                           spec)

                for batch, is_lead in ((leads, True), (followers, False)):
                    if not batch:
                        continue
                    items = [(rung_spec(point, is_lead),
                              str(point_cache.root)) for point in batch]

                    def on_done(index, item, out, _batch=batch,
                                _tag=tag):
                        score, timing = out
                        point = _batch[index]
                        scores[point] = score
                        timer.merge(timing)
                        report.epochs_this_run += int(
                            score.get("epochs", 0))
                        key = rung_key(point, _tag)
                        point_cache.put_aux(key, score)
                        manifest.mark(key, "done")
                        manifest.save()

                    def on_failed(index, item, failed, _batch=batch,
                                  _tag=tag):
                        point = _batch[index]
                        failures[point] = failed
                        key = rung_key(point, _tag)
                        manifest.mark(key, "quarantined"
                                      if failed.kind == "permanent"
                                      else "failed", failed)
                        manifest.save()

                    run_pool(
                        _rung_task, serial_rung, items,
                        lambda item: (f"{describe_point(cfg, item[0][0])}"
                                      f" (rung e{item[0][2]})"),
                        on_done, on_failed)

            # Unscored points (failed or quarantined) cannot be ranked.
            cohort = [p for p in cohort
                      if p in scores and p not in failures]
            report.epochs_total += sum(
                int(scores[p].get("epochs", 0)) for p in cohort
                if scores[p].get("fidelity") == fid)

            rung_record = {"fidelity": fid, "cohort": len(cohort)}
            if rung_idx < len(rung_fidelities) - 1 and len(cohort) > 1:
                # Twin protection lapses once the next rung enters the
                # top half of the budget: by then accuracy has real
                # signal, and carrying both schedules through the
                # expensive rungs wastes budget.
                protect = (self.halving.keep_schedule_twins
                           and 2 * rung_fidelities[rung_idx + 1]
                           <= rung_fidelities[-1])
                cohort = self._promote(cohort, scores, protect)
            rung_record["kept"] = len(cohort)
            report.rungs.append(rung_record)
            log(f"[{cfg.dataset}] halving rung {tag}: "
                f"{rung_record['cohort']} scored, "
                f"{rung_record['kept']} promoted")
            prev_fid = fid

        # --------------------------------------------------------------
        # full characterization of the top-rung survivors
        # --------------------------------------------------------------
        final_tag = f"e{rung_fidelities[-1]}"
        lib_tag = f"lib-{final_tag}"
        results: dict = {}
        pending_final = []
        for point in cohort:
            key = rung_key(point, lib_tag)
            manifest.ensure(key, point[0][0], point[0][1], point[1],
                            point[2], point[3], point[4], fidelity=lib_tag)
            cached = point_cache.get(key)
            if cached is not None:
                results[point] = cached
                if manifest.status(key) != "done":
                    manifest.mark(key, "done")
            elif manifest.status(key) == "quarantined":
                failures[point] = manifest.failure(key)
            else:
                pending_final.append(point)
        manifest.save()

        if pending_final:
            ensure_contexts(pending_final)
            items = [((point, state_key(point, final_tag)),
                      str(point_cache.root)) for point in pending_final]

            def on_final_done(index, item, out):
                entries, timing = out
                point = pending_final[index]
                results[point] = entries
                timer.merge(timing)
                key = rung_key(point, lib_tag)
                point_cache.put(key, entries)
                manifest.mark(key, "done")
                manifest.save()

            def on_final_failed(index, item, failed):
                point = pending_final[index]
                failures[point] = failed
                key = rung_key(point, lib_tag)
                manifest.mark(key, "quarantined"
                              if failed.kind == "permanent" else "failed",
                              failed)
                manifest.save()

            memo = gen._sweep_memo()  # shared by the survivors' plans

            def serial_final(item):
                spec, _root = item
                return _finalize_point(gen, contexts, point_cache, spec,
                                       memo)

            run_pool(
                _final_task, serial_final, items,
                lambda item: f"{describe_point(cfg, item[0][0])} (final)",
                on_final_done, on_final_failed)

        survivors = [p for p in cohort if p in results]
        report.quarantined = len(failures)
        report.survivors = [describe_point(cfg, p) for p in survivors]
        self.last_report = report

        library = Library(metadata={
            "dataset": cfg.dataset,
            "num_classes": gen.num_classes,
            "width_scale": cfg.width_scale,
            "resource_width_scale": cfg.resource_width_scale,
            "quant": cfg.quant.name,
            "cache_key": cfg.cache_key(),
            **({"precisions": list(cfg.precisions)}
               if list(cfg.precisions) != ["base"] else {}),
            **({"criteria": list(cfg.criteria)}
               if list(cfg.criteria) != ["l1"] else {}),
            **({"schedules": list(cfg.schedules)}
               if list(cfg.schedules) != ["hard"] else {}),
            **({"zero_skip": True} if cfg.zero_skip else {}),
            # Deterministic search summary only — per-run counters (how
            # much was cached vs. trained here) live in the report, so
            # resumed runs stay byte-identical to uninterrupted ones.
            "halving": {
                "min_epochs": self.halving.min_epochs,
                "eta": self.halving.eta,
                "extra_keep": self.halving.extra_keep,
                "keep_schedule_twins": self.halving.keep_schedule_twins,
                "rungs": [dict(r) for r in report.rungs],
            },
        })
        for point in points:
            for entry in results.get(point, ()):
                library.add(entry)
        if failures:
            library.metadata["quarantined"] = [
                {"variant": point[0][0], "pruned_exits": point[0][1],
                 "rate": point[1],
                 **({"precision": point[2]} if point[2] != "base" else {}),
                 **({"criterion": point[3]} if point[3] != "l1" else {}),
                 **({"schedule": point[4]} if point[4] != "hard" else {}),
                 **failures[point].to_dict()}
                for point in points if point in failures]
        log(f"[{cfg.dataset}] halving search complete: "
            f"{len(survivors)}/{len(points)} points characterized, "
            f"{report.epochs_total} training epochs total "
            f"(exhaustive: {report.exhaustive_epochs})")
        return library

    # ------------------------------------------------------------------
    def _promote(self, cohort: list, scores: dict,
                 protect_twins: bool | None = None) -> list:
        """Keep the Pareto front (plus margin) or 1/eta, whichever is more.

        Preference order: Pareto rank, then accuracy (descending), then
        cycles (ascending), then original sweep position — all
        deterministic. Kept points retain their sweep order.

        ``protect_twins`` overrides the config's ``keep_schedule_twins``
        for this promotion; the run loop disables protection once the
        next rung enters the top half of the budget, where accuracy is
        trustworthy enough to pick between schedule twins.
        """
        if protect_twins is None:
            protect_twins = self.halving.keep_schedule_twins
        pairs = [(float(scores[p]["accuracy"]), float(scores[p]["cycles"]))
                 for p in cohort]
        ranks = pareto_ranks(pairs)
        front = sum(1 for r in ranks if r == 0)
        keep = min(len(cohort),
                   max(math.ceil(len(cohort) / self.halving.eta),
                       front + self.halving.extra_keep))
        order = sorted(range(len(cohort)),
                       key=lambda i: (ranks[i], -pairs[i][0],
                                      pairs[i][1], i))
        kept = set(order[:keep])
        if protect_twins:
            # Same variant/rate/precision/criterion, different schedule:
            # identical bitstream, so low-fidelity accuracy alone would
            # decide between them — carry the twins instead.
            kept_ids = {cohort[i][:4] for i in kept}
            kept |= {i for i, p in enumerate(cohort) if p[:4] in kept_ids}
        return [p for i, p in enumerate(cohort) if i in kept]
