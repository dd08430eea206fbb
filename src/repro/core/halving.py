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

Each rung (leads, then followers) and the final characterization is
one call of the exhaustive sweep's stage runner
(``repro.core.design_time._Stages``): the same cache and quarantine
classification, manifest, base-model training and supervised pool,
serial or forked, with a rung or final task in place of the sweep's.

Two fidelity-scoring shortcuts keep rungs cheap without biasing the
final results:

* Rung accuracy is measured on the accuracy twin's own forward pass
  (one batched sweep over the test set), not the compiled inference
  plan. The plan is function-preserving, so the cheap path ranks
  identically; survivors are still characterized through the compiled
  flow. The top rung is not scored at all: no promotion follows it,
  and the final characterization measures its survivors anyway.
* Cycles depend only on the architecture, never on training, so they
  are compiled once per point on the first rung — which also quarantines
  infeasible points (e.g. INT8 at low pruning rates overflowing the
  device) *before* any training budget is spent — and carried forward.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..nn.quant import post_training_quantize
from ..nn.serialize import load_state_arrays, state_arrays
from ..nn.trainer import Trainer, cascade_sweep, evaluate_exits
from ..pruning.pruner import prune_model
from ..pruning.schedule import psfp_retrain_epochs
from ..runtime.library import Library
from .config import AdaPExConfig
from .design_time import LibraryGenerator, _Stages, describe_point
from .instrument import PhaseTimer
from .pointcache import PointCache
from .supervise import SuperviseConfig

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


def _run_rung_point(cache, rung, lead, state, item):
    """A rung's task: train one point's rung delta and score it; returns
    (score, timing). The score always records ``cycles``, ``fidelity``
    and ``epochs``; below the top rung it also records ``accuracy``.

    ``rung`` is ``(f_prev, f_cur, total_epochs)`` and ``item`` is
    ``(point, (key, prev_key, prev_cycles))``. ``key``/``prev_key`` are
    the precision-stripped *state* keys (see :func:`_train_point`); the
    precision-salted score key stays with the stage runner. The weight
    checkpoint is written *before* the runner persists the score, so a
    crash can never leave a score without its matching state.

    The ``lead`` of each train group rebuilds and trains the rung delta
    from the previous checkpoint (ignoring any current-state file, so
    resumed runs recompute deterministically); a follower reuses the
    shared state its lead already wrote, and only falls back to training
    when the lead was lost to quarantine.
    """
    gen, contexts, _memo = state
    f_prev, f_cur, total_epochs = rung
    point, (key, prev_key, prev_cycles) = item
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

    score = {"cycles": cycles, "fidelity": f_cur, "epochs": trained}
    if f_cur == total_epochs:
        # Only a promotion reads the accuracy, and none follows the top
        # rung: the final stage characterizes its survivors on the
        # compiled plan.
        return score, timer.as_dict()

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
    score["accuracy"] = accuracy
    return score, timer.as_dict()


def _finalize_point(cache, state, item):
    """The final stage's task: turn a top-rung survivor into
    LibraryEntry rows (no training).

    ``item`` is ``(point, state_key)``; the checkpointed weights are
    restored and handed to ``LibraryGenerator._characterize`` via
    ``scaled_override``, so the survivor flows through the exact
    characterization pipeline of the exhaustive sweep, step memo
    included.
    """
    gen, contexts, memo = state
    point, state_key = item
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
        if point_cache is None:
            raise ValueError("halving requires a point cache directory")
        if isinstance(point_cache, (str, os.PathLike)):
            point_cache = PointCache(point_cache)
        stages = _Stages(self.generator, progress, timer, supervise,
                         point_cache)
        points = stages.points

        full_epochs = cfg.retraining.epochs
        rung_fidelities = self.halving.rungs(full_epochs)
        report = HalvingReport(
            exhaustive_epochs=full_epochs * sum(1 for p in points
                                                if p[1] > 0))

        def state_key(point, fidelity):
            # Checkpoints are shared across precision twins (PTQ is an
            # evaluation-only transform); scores stay precision-salted.
            return stages.key(_train_point(point), fidelity)

        scores: dict = {}    # point -> latest rung score dict
        cohort = list(points)

        # --------------------------------------------------------------
        # rung loop
        # --------------------------------------------------------------
        prev_fid = 0
        for rung_idx, fid in enumerate(rung_fidelities):
            tag = f"e{fid}"

            def read_score(point, key, _tag=tag):
                # A score without its state reruns the rung over a fresh
                # checkpoint (the state is written first, so only a
                # deleted state file leaves one).
                score = point_cache.get_aux(key)
                if score is not None and point_cache.state_path_for(
                        state_key(point, _tag)).exists():
                    return score
                return None

            def rung_args(point, _tag=tag, _prev=f"e{prev_fid}"):
                prev = scores.get(point)
                return (state_key(point, _tag), state_key(point, _prev),
                        prev["cycles"] if prev else None)

            # The first member of each precision train group leads
            # (trains the shared checkpoint); the rest follow and reuse
            # it. Followers run in a second call so the lead's state
            # exists by the time they look for it.
            leads, followers, groups = [], [], set()
            for point in cohort:
                group = _train_point(point)
                (followers if group in groups else leads).append(point)
                groups.add(group)
            for batch, lead in ((leads, True), (followers, False)):
                out, ran = stages.run(
                    batch, partial(_run_rung_point, point_cache,
                                   (prev_fid, fid, full_epochs), lead),
                    f" (rung {tag})", tag,
                    (read_score, point_cache.put_aux), rung_args)
                scores.update(out)
                report.epochs_this_run += sum(
                    int(out[p].get("epochs", 0)) for p in ran if p in out)

            # Unscored points (failed or quarantined) cannot be ranked.
            cohort = [p for p in cohort
                      if p in scores and p not in stages.failures]
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
            stages.log(f"[{cfg.dataset}] halving rung {tag}: "
                       f"{rung_record['cohort']} scored, "
                       f"{rung_record['kept']} promoted")
            prev_fid = fid

        # --------------------------------------------------------------
        # full characterization of the top-rung survivors
        # --------------------------------------------------------------
        final_tag = f"e{rung_fidelities[-1]}"
        results, _ = stages.run(
            cohort, partial(_finalize_point, point_cache), " (final)",
            f"lib-{final_tag}",
            (lambda point, key: point_cache.get(key), point_cache.put),
            lambda point: state_key(point, final_tag))

        survivors = [p for p in cohort if p in results]
        report.quarantined = len(stages.failures)
        report.survivors = [describe_point(cfg, p) for p in survivors]
        self.last_report = report

        # Deterministic search summary only — per-run counters (how
        # much was cached vs. trained here) live in the report, so
        # resumed runs stay byte-identical to uninterrupted ones.
        library = stages.library(results, halving={
            "min_epochs": self.halving.min_epochs,
            "eta": self.halving.eta,
            "extra_keep": self.halving.extra_keep,
            "keep_schedule_twins": self.halving.keep_schedule_twins,
            "rungs": [dict(r) for r in report.rungs],
        })
        stages.log(f"[{cfg.dataset}] halving search complete: "
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
