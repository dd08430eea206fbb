"""The AdaPEx design-time Library Generator (paper Fig. 3, left).

Pipeline per generated model:

1. **Early-Exit Training** — attach the configured exits to CNV and train
   all exits jointly (BranchyNet loss, first exit weighted 1.0, others 0.3).
2. **Dataflow-Aware Pruning** — sweep the pruning rate, each point pruned
   under the FINN folding constraints and retrained.
3. **CNN Compilation & HLS Synthesis** — export to the IR, streamline,
   and compile to a dataflow accelerator; extract resources, per-exit
   latency, serving throughput, power, and energy.
4. **Library assembly** — one entry per (accelerator, confidence
   threshold) with the accuracy and exit statistics measured on the test
   set.

Each design point is one architecture at two widths (see DESIGN.md):
the scaled *accuracy twin* is pruned, trained and measured, and the
*hardware twin* is the same network at ``resource_width_scale``, which
only the FINN-like flow sees. The hardware twin is never trained and
never holds weights of its own. Its per-layer filter counts come from a
:class:`~repro.pruning.CountPlan` at the hardware widths and folding
constraints, and its accelerator is compiled from the accuracy twin's
streamlined graph with every Conv/MatMul set to its hardware width
(:func:`repro.ir.passes.with_widths`). With zero-skipping MVTUs the
densities are the accuracy twin's quantized weights'.

Execution model
---------------
The sweep is a flat list of independent design points ``((variant,
pruned_exits), rate, precision, criterion, schedule)``; the precision
axis applies post-training quantization (e.g. INT8) on top of each
pruned model. One stage runner (``_Stages.run``) takes points to
results, for this sweep and for every stage of the successive-halving
search (:mod:`repro.core.halving`). It sorts the points into cached,
quarantined (by an earlier run) and pending ones, keeps the
:class:`~repro.core.checkpoint.SweepManifest` beside a
:class:`~repro.core.pointcache.PointCache` (so a killed sweep resumes
with nothing recomputed), and runs the pending points in three steps:
a train stage fits every base model they need, then the variant contexts
(and their hardware twins) are built once, in the parent, and then the
points run on a :class:`~repro.core.supervise.SupervisedPool`, which
retries transient failures and quarantines the rest. No hardware twin
exists while a base trains, so the stage's memory peak is one fit's.
With ``config.parallel_workers > 1`` both pools fork worker processes
(the work is NumPy and Python loops that hold the GIL, so threads cannot
help): the independent base fits run as tasks that return their trained
state, and each characterize worker inherits the parent's generator,
datasets, trained bases and contexts by fork: nothing is shipped, and no
worker rebuilds or retrains anything. Each stage has one task function,
called on that ``(generator, contexts, step memo)`` state, serial or
forked. Results are merged in sweep order, so parallel libraries are
bit-identical to serial ones.

The compiled plans of one sweep share a
:class:`~repro.ir.engine.StepMemo` (one per serial stage, one per pool
worker): a layer that an earlier design point already computed on the
test batch is not computed again. That needs points that share weights
(no retraining) and a test set that runs as one batch; other sweeps get
no memo (``LibraryGenerator._sweep_memo``). Hits are exact, so the
library does not depend on which points a process saw before. A stage
runs its pending points in the order that keeps shared layers held
(``LibraryGenerator._memo_order``); the library is still assembled in
sweep order.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

from ..data.augment import standard_augmentation
from ..data.synthetic import make_dataset
from ..finn.compile import compile_accelerator
from ..finn.folding import cnv_reference_fold, fold_constraints
from ..finn.power import OperatingPoints
from ..ir.engine import StepMemo
from ..ir.export import export_model
from ..ir.passes import streamline, with_widths
from ..models.cnv import CNVConfig, build_cnv
from ..models.exits import ExitsConfiguration
from ..nn.layers import Conv2D, Linear
from ..nn.quant import post_training_quantize
from ..nn.serialize import load_state_arrays, state_arrays
from ..nn.trainer import EVAL_BATCH, Trainer, cascade_sweep, evaluate_exits
from ..pruning.pruner import plan_counts, prune_model
from ..pruning.ranking import HAPMCriterion, get_criterion
from ..pruning.schedule import psfp_prune_retrain
from ..runtime.library import AcceleratorId, Library, LibraryEntry
from .checkpoint import SweepManifest
from .config import AdaPExConfig
from .instrument import PhaseTimer
from .pointcache import PointCache
from .supervise import SuperviseConfig, SupervisedPool, resolve_workers

__all__ = ["LibraryGenerator", "accel_label"]


@dataclass
class _VariantContext:
    """Everything one variant's per-rate characterizations share."""

    variant: str
    pruned_exits: bool
    scaled_base: object
    # The hardware twin's unpruned architecture: its widths, constraints
    # and (for HAPM's allocation) initial weights. Never pruned, run or
    # otherwise mutated, so variants of one exit topology share it.
    hw_base: object
    scaled_constraints: dict
    hw_constraints: dict
    folding: object
    # Bare Conv/Linear layer name -> unpruned output width at hardware
    # scale; a point's count plan overrides the pruned CONVs.
    hw_widths: dict
    # CONV layer name -> per-frame cycle cost of its MVTU in the compiled
    # *unpruned* accelerator. Only populated when the sweep uses the
    # hardware-aware criterion; empty otherwise.
    layer_costs: dict = None

    @property
    def key(self) -> tuple:
        return (self.variant, self.pruned_exits)

    @property
    def label(self) -> str:
        return accel_label(self.variant, self.pruned_exits)


def sweep_points(cfg: AdaPExConfig, variants) -> list:
    """The sweep as a flat, deterministically ordered point list.

    Each point is ``(variant_key, rate, precision, criterion, schedule)``.
    At rate 0 neither the criterion nor the schedule can matter (nothing
    is pruned or retrained), so those points are canonicalized to
    ``("l1", "hard")`` — one point instead of ``criteria x schedules``
    duplicates, and old single-axis caches keep hitting.
    """
    points = []
    for key in variants:
        for rate in cfg.pruning_rates:
            for prec in cfg.precisions:
                if rate == 0:
                    points.append((key, rate, prec, "l1", "hard"))
                    continue
                for crit in cfg.criteria:
                    for sched in cfg.schedules:
                        points.append((key, rate, prec, crit, sched))
    return points


def describe_point(cfg: AdaPExConfig, point) -> str:
    """Human-readable log label of one sweep point."""
    key, rate, prec, crit, sched = point
    tags = [t for t in (prec if prec != "base" else "",
                        crit if crit != "l1" else "",
                        sched if sched != "hard" else "") if t]
    tag = f" [{', '.join(tags)}]" if tags else ""
    return (f"[{cfg.dataset}] {accel_label(*key)}: pruning "
            f"rate {rate:.0%}{tag}")


class LibraryGenerator:
    """Generates the Library the Runtime Manager searches."""

    def __init__(self, config: AdaPExConfig | None = None):
        self.config = config or AdaPExConfig()
        self._train = None
        self._test = None
        self._base_cache: dict = {}
        self._hw_cache: dict = {}
        # Guards datasets() and the base fits so concurrent
        # generation (two variants racing from different threads) never
        # double-builds the shared dataset or double-trains a base model.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------
    def datasets(self):
        with self._lock:
            if self._train is None:
                cfg = self.config
                self._train, self._test = make_dataset(
                    cfg.dataset, cfg.train_samples, cfg.test_samples,
                    seed=cfg.seed)
            return self._train, self._test

    @property
    def num_classes(self) -> int:
        train, _ = self.datasets()
        return train.spec.num_classes

    # ------------------------------------------------------------------
    # model construction / training
    # ------------------------------------------------------------------
    def _build(self, exits_cfg: ExitsConfiguration, width: float):
        cfg = self.config
        return build_cnv(
            CNVConfig(num_classes=self.num_classes, width_scale=width,
                      quant=cfg.quant, seed=cfg.seed),
            exits_cfg,
        )

    @staticmethod
    def _topology_key(exits_cfg: ExitsConfiguration) -> tuple:
        """Cache key for trained bases: the exit *topology* only."""
        return tuple((e.after_block, e.conv_channels, e.fc_width)
                     for e in exits_cfg.exits)

    def _untrained_base(self, exits_cfg: ExitsConfiguration):
        """The scaled accuracy twin as built, in the compute dtype."""
        cfg = self.config
        model = self._build(exits_cfg, cfg.width_scale)
        if cfg.compute_dtype != "float64":
            model.astype(cfg.np_dtype)
        return model

    def _fit_base(self, model, train) -> None:
        """Jointly train ``model`` over all its exits on ``train``, in
        place."""
        cfg = self.config
        augment = standard_augmentation() if cfg.use_augmentation else None
        Trainer(model, cfg.initial_training).fit(train.images, train.labels,
                                                 augment=augment)

    def train_base_model(self, exits_cfg: ExitsConfiguration):
        """Build and jointly train the scaled accuracy twin.

        Training depends only on the exit *topology*, not on the pruned
        flags, so the trained base is cached and shared between the
        "pruned exits" and "not pruned exits" sweeps.
        """
        key = self._topology_key(exits_cfg)
        with self._lock:
            if key not in self._base_cache:
                model = self._untrained_base(exits_cfg)
                self._fit_base(model, self.datasets()[0])
                self._base_cache[key] = model
            return self._base_cache[key]

    def train_bases(self, variants: dict, log, timer: PhaseTimer) -> dict:
        """The trained base of every variant in ``variants`` (variant key
        -> exits configuration), keyed like it: a sweep's train stage.

        Each exit topology not trained yet is fitted once, logged and
        timed as one ``train`` phase; a topology already trained is
        reused silently. With ``parallel_workers`` >= 2 and two or more
        fits, the fits run as pool tasks on forked workers: each trains
        a model the parent built and returns its state, which the parent
        loads into that model. They get no timeout and no retry, so a
        diverged fit fails the run, naming ``TrainingDivergedError``.
        """
        cfg = self.config
        with self._lock:
            todo: dict = {}  # topology key -> (variant key, exits config)
            for vkey, exits_cfg in variants.items():
                key = self._topology_key(exits_cfg)
                if key not in self._base_cache:
                    todo.setdefault(key, (vkey, exits_cfg))
            jobs = list(todo.values())

            def describe(index):
                return (f"[{cfg.dataset}] training base model "
                        f"({accel_label(*jobs[index][0])})")

            if resolve_workers(cfg.parallel_workers) < 2 or len(jobs) < 2:
                for index, (_, exits_cfg) in enumerate(jobs):
                    log(describe(index))
                    with timer.phase("train"):
                        self.train_base_model(exits_cfg)
            else:
                # Built here, inherited by the fit workers.
                train, _ = self.datasets()
                models = [self._untrained_base(exits_cfg)
                          for _, exits_cfg in jobs]
                for index in range(len(jobs)):
                    log(describe(index))
                try:
                    fits = SupervisedPool(
                        workers=cfg.parallel_workers,
                        config=SuperviseConfig(retries=0), label=describe,
                        initializer=_install_worker_state,
                        initargs=((self, train, models),),
                    ).map(functools.partial(_in_worker, _fit_base_task),
                          range(len(jobs)))
                finally:
                    _install_worker_state(None)
                for key, model, (arrays, timing) in zip(todo, models, fits):
                    self._base_cache[key] = load_state_arrays(model, arrays)
                    timer.merge(timing)
            return {vkey: self._base_cache[self._topology_key(exits_cfg)]
                    for vkey, exits_cfg in variants.items()}

    def _hardware_base(self, exits_cfg: ExitsConfiguration):
        """The untrained hardware twin, built once per exit topology: the
        pruned- and not-pruned-exit variants get the same weights from
        the same config and seed, and nothing writes to it. Nothing
        trains it either, so it holds no gradient buffers."""
        key = self._topology_key(exits_cfg)
        with self._lock:
            if key not in self._hw_cache:
                twin = self._build(exits_cfg, self.config.resource_width_scale)
                for layer in twin.all_layers():
                    layer.grads.clear()
                self._hw_cache[key] = twin
            return self._hw_cache[key]

    def _variant_context(self, variant: str, exits_cfg: ExitsConfiguration,
                         pruned_exits: bool, scaled_base) -> _VariantContext:
        """Prepare the per-variant state the per-rate points share."""
        cfg = self.config
        hw_base = self._hardware_base(exits_cfg)
        folding = cnv_reference_fold(hw_base)
        ctx = _VariantContext(
            variant=variant,
            pruned_exits=pruned_exits,
            scaled_base=scaled_base,
            hw_base=hw_base,
            scaled_constraints=fold_constraints(
                scaled_base, cnv_reference_fold(scaled_base)),
            hw_constraints=fold_constraints(hw_base, folding),
            folding=folding,
            hw_widths={layer.name: layer.params["weight"].shape[0]
                       for layer in hw_base.all_layers()
                       if isinstance(layer, (Conv2D, Linear))},
            layer_costs={},
        )
        if "hapm" in cfg.criteria:
            # The hardware-aware criterion weights each filter by its
            # layer's per-frame cycle cost in the FINN model. Compile the
            # unpruned hardware twin once per variant and read the MVTU
            # cycle counts off the compiled modules.
            graph = export_model(scaled_base)
            streamline(graph)
            accel = compile_accelerator(with_widths(graph, ctx.hw_widths),
                                        folding, clock_mhz=cfg.clock_mhz,
                                        zero_skip=cfg.zero_skip)
            ctx.layer_costs = _mvtu_layer_costs(accel)
        return ctx

    def _compile_hardware_twin(self, ctx: _VariantContext, rate: float,
                               criterion, graph):
        """The design point's FINN accelerator and its count plan.

        ``graph`` is the accuracy twin's streamlined graph at this
        point's rate and precision. The count plan gives every pruned
        CONV its width at hardware scale and folding (and the point's
        ``hw_achieved_rate``); the graph, copied weightless at those
        widths, is what the accelerator is compiled from. Raises the
        usual permanent errors (folding, compile, device check).
        """
        cfg = self.config
        plan = plan_counts(ctx.hw_base, rate, ctx.hw_constraints,
                           ctx.pruned_exits, criterion)
        widths = dict(ctx.hw_widths, **plan.widths())
        accel = compile_accelerator(with_widths(graph, widths), ctx.folding,
                                    clock_mhz=cfg.clock_mhz,
                                    zero_skip=cfg.zero_skip)
        cfg.device.check(accel.resources())
        return accel, plan

    def _resolve_criterion(self, ctx: _VariantContext, criterion: str):
        """Registry lookup, binding HAPM to this variant's layer costs."""
        if criterion == "hapm":
            return HAPMCriterion(ctx.layer_costs or {})
        return get_criterion(criterion)

    # ------------------------------------------------------------------
    # characterization of one design point
    # ------------------------------------------------------------------
    def _characterize(self, ctx: _VariantContext, rate: float,
                      precision: str = "base",
                      timer: PhaseTimer | None = None,
                      criterion: str = "l1", schedule: str = "hard",
                      scaled_override=None,
                      memo: StepMemo | None = None) -> list[LibraryEntry]:
        """Library entries of one design point. ``memo`` is the sweep's
        step memo, shared by the plans of its points."""
        cfg = self.config
        timer = timer or PhaseTimer()
        train, test = self.datasets()
        crit = self._resolve_criterion(ctx, criterion)

        if scaled_override is not None:
            # The successive-halving engine hands in an already trained
            # (and pruned) accuracy twin plus its prune report; nothing
            # is retrained here.
            scaled, report = scaled_override
        elif schedule == "psfp" and rate > 0 and cfg.retraining.epochs > 0:
            with timer.phase("retrain"):
                result = psfp_prune_retrain(
                    ctx.scaled_base, rate, train.images, train.labels,
                    retrain=cfg.retraining,
                    constraints=ctx.scaled_constraints,
                    prune_exits=ctx.pruned_exits, criterion=crit)
                timer.add("epochs", 0.0, cfg.retraining.epochs)
            scaled, report = result.model, result.report
        else:
            # Hard schedule: prune once, then retrain the narrow model.
            with timer.phase("prune"):
                scaled, report = prune_model(
                    ctx.scaled_base, rate,
                    constraints=ctx.scaled_constraints,
                    prune_exits=ctx.pruned_exits, criterion=crit)
            if rate > 0 and cfg.retraining.epochs > 0:
                with timer.phase("retrain"):
                    Trainer(scaled, cfg.retraining).fit(train.images,
                                                        train.labels)
                    timer.add("epochs", 0.0, cfg.retraining.epochs)
        # Precision axis: re-quantize after prune/retrain (PTQ — the
        # latent weights are final by now). The hardware twin inherits
        # the precision through the accuracy twin's graph.
        spec = cfg.precision_spec(precision)
        if spec is not None:
            scaled = post_training_quantize(scaled, spec.weight_bits,
                                            spec.act_bits)
        scaled.eval()

        with timer.phase("compile"):
            # One export of the accuracy twin: the engine measures its
            # accuracy, and the hardware twin is compiled from its graph.
            scaled_graph = export_model(scaled)
            streamline(scaled_graph)
            accel, hw_plan = self._compile_hardware_twin(ctx, rate, crit,
                                                         scaled_graph)
            resources = accel.resources()
            figures = OperatingPoints(accel, cfg.power_model, cfg.inflight)
            latencies = figures.perf.latencies_s()

        accel_id = AcceleratorId(pruning_rate=rate,
                                 pruned_exits=ctx.pruned_exits,
                                 variant=ctx.variant,
                                 precision=precision,
                                 criterion=criterion,
                                 schedule=schedule)

        with timer.phase("characterize"):
            # Accuracy measurement runs the accuracy twin's streamlined
            # graph on the compiled engine (function-preserving, so the
            # measured accuracies match the nn-layer forward;
            # ir.executors stays the semantics oracle).
            plan = scaled_graph.compile(dtype=cfg.np_dtype, timer=timer,
                                        memo=memo)
            if plan.num_exits == 1:
                exit_acc = evaluate_exits(plan, test.images, test.labels)
                sweep = [{"confidence_threshold": 1.0,
                          "accuracy": exit_acc[0], "exit_rates": (1.0,)}]
            else:
                sweep = cascade_sweep(plan, test.images, test.labels,
                                      cfg.confidence_thresholds)

            params = scaled.param_count()
            entries = []
            for point in sweep:
                rates = point["exit_rates"]
                serving, avg_latency, energy, idle, busy = \
                    figures.at(rates)
                entries.append(LibraryEntry(
                    accelerator=accel_id,
                    confidence_threshold=point["confidence_threshold"],
                    accuracy=point["accuracy"],
                    exit_rates=rates,
                    latency_s=avg_latency,
                    serving_ips=serving,
                    energy_per_inference_j=energy,
                    power_idle_w=idle,
                    power_busy_w=busy,
                    achieved_pruning_rate=report.achieved_rate,
                    exit_latencies_s=tuple(latencies),
                    resources={"lut": resources.lut, "ff": resources.ff,
                               "bram18": resources.bram18},
                    extra=dict(
                        {"requested_rate": rate,
                         "hw_achieved_rate": hw_plan.achieved_rate,
                         "params": params},
                        # Only non-default axes annotate extra, keeping
                        # pre-axis entry dicts (and golden traces) stable.
                        **({"precision": precision}
                           if precision != "base" else {}),
                        **({"criterion": criterion}
                           if criterion != "l1" else {}),
                        **({"schedule": schedule}
                           if schedule != "hard" else {}),
                    ),
                ))
        return entries

    def _sweep_memo(self) -> StepMemo | None:
        """The step memo one sweep's plans share, or ``None`` where they
        cannot share a step: retrained points each carry their own
        weights, and a test set of more than one evaluation batch evicts
        each batch and its outputs before the next plan runs it (both
        served no step of ``generate --profile paper``)."""
        cfg = self.config
        if cfg.retraining.epochs > 0 or cfg.test_samples > EVAL_BATCH:
            return None
        return StepMemo()

    def _memo_order(self, points: list, variants: dict) -> list:
        """``points`` in the order one step memo serves best: grouped by
        trained base, rate-major within a base (a stable sort).

        The variants that share a base (pruned and unpruned exits) share
        the backbone at each rate, and neighbouring rates share the
        layers that folding leaves at the same width; this order runs
        both pairs back to back, so a step is still held when the next
        point asks for it. A variant with another base (the backbone-only
        one) shares nothing and would only evict in between."""
        base_rank: dict = {}
        for exits_cfg in variants.values():
            base_rank.setdefault(self._topology_key(exits_cfg),
                                 len(base_rank))
        return sorted(points, key=lambda point: (
            base_rank[self._topology_key(variants[point[0]])], point[1]))

    # ------------------------------------------------------------------
    # the full sweep
    # ------------------------------------------------------------------
    def _variants(self):
        cfg = self.config
        variants = [("ee", cfg.exits.with_pruned(True), True)]
        if cfg.include_not_pruned_exits and cfg.exits.num_early_exits:
            variants.append(("ee", cfg.exits.with_pruned(False), False))
        if cfg.include_backbone_variant:
            variants.append(("backbone", ExitsConfiguration.none(), True))
        return variants

    def generate(self, progress=None, point_cache=None,
                 timer: PhaseTimer | None = None,
                 supervise: SuperviseConfig | None = None) -> Library:
        """Run the full design-time flow; returns the populated Library.

        Parameters
        ----------
        progress:
            Optional ``callable(str)`` receiving per-step log lines (also
            routed from the parallel backend as points complete).
        point_cache:
            Optional :class:`~repro.core.pointcache.PointCache` (or a
            directory path) of previously characterized design points;
            hits skip prune/retrain/compile entirely. Enables the sweep
            checkpoint manifest (``manifest.json`` next to the cache):
            every completed point is persisted the moment it finishes, so
            a killed sweep resumes with zero recomputation, and
            quarantined points stay quarantined across resumes.
        timer:
            Optional :class:`PhaseTimer` accumulating per-phase wall time
            (train / prune / retrain / compile / characterize), including
            time spent inside worker processes.
        supervise:
            Optional :class:`~repro.core.supervise.SuperviseConfig`
            controlling per-point timeouts, retries, and backoff. The
            default retries transient failures and quarantines
            persistently failing points (recorded in the returned
            library's ``metadata["quarantined"]``) instead of aborting
            the sweep.
        """
        cfg = self.config
        if isinstance(point_cache, (str, os.PathLike)):
            point_cache = PointCache(point_cache)
        stages = _Stages(self, progress, timer, supervise, point_cache)
        cache = None if point_cache is None else (
            lambda point, key: point_cache.get(key), point_cache.put)
        results, _ = stages.run(stages.points, _characterize_point,
                                cache=cache)
        library = stages.library(results)
        if stages.failures:
            stages.log(f"[{cfg.dataset}] library partial: {len(library)} "
                       f"entries, {len(stages.failures)} design point(s) "
                       f"quarantined")
        else:
            stages.log(f"[{cfg.dataset}] library complete: {len(library)} "
                       f"entries")
        return library


class _Stages:
    """The crash-safe loop that takes design points to results, shared
    by every stage of a sweep: the exhaustive sweep is one stage, a
    halving search two per rung (leads, then followers) and one final.

    It owns the sweep's checkpoint manifest (only with a point cache),
    the base models and variant contexts of pending points, the
    supervised pool (serial, or forked workers that inherit those) and
    the points quarantined so far.
    """

    def __init__(self, gen: LibraryGenerator, progress, timer, supervise,
                 point_cache: PointCache | None = None):
        self.gen = gen
        self.log = progress or (lambda msg: None)
        self.timer = timer or PhaseTimer()
        self.supervise = supervise or SuperviseConfig()
        self.variants = {(variant, pruned_exits): exits_cfg
                         for variant, exits_cfg, pruned_exits
                         in gen._variants()}
        # The sweep as a flat, deterministically ordered point list:
        # (variant key, pruning rate, precision, criterion, schedule).
        self.points = sweep_points(gen.config, self.variants)
        self.config_key = gen.config.point_cache_key()
        self.manifest = None if point_cache is None else SweepManifest.open(
            point_cache.root / "manifest.json", self.config_key)
        self.contexts: dict[tuple, _VariantContext] = {}
        self.failures: dict = {}  # point -> FailedPoint (this run or resumed)

    def key(self, point, fidelity: str = "full") -> str:
        """The point's cache and manifest key at ``fidelity``."""
        (variant, pruned_exits), rate, prec, crit, sched = point
        return PointCache.point_key(self.config_key, variant, pruned_exits,
                                    rate, prec, crit, sched,
                                    fidelity=fidelity)

    def run(self, points, task, label: str = "", fidelity: str = "full",
            cache=None, extra=None):
        """Take ``points`` through one stage; returns ``(results,
        pending)``: every point's result, cached or computed here, and
        the points this call ran.

        ``cache`` is a ``(read, write)`` pair: ``read(point, key)`` gives
        a cached result or ``None``, ``write(key, result)`` persists one;
        it is used only with the manifest. A point with a cached result
        is not run, nor is one the manifest has quarantined. The others
        run as ``task(state, (point, extra(point)))``, which returns
        ``(result, timer.as_dict())``; ``state`` is ``(generator,
        contexts, step memo)``, this stage's own, inherited by forked
        workers.
        ``label`` suffixes each point's log label.
        """
        gen, manifest, log = self.gen, self.manifest, self.log
        cfg = gen.config

        def describe(point):
            return describe_point(cfg, point) + label

        keys = {} if manifest is None else {
            point: self.key(point, fidelity) for point in points}
        results: dict = {}
        pending = []
        for point in points:
            if manifest is None:
                pending.append(point)
                continue
            key = keys[point]
            (variant, pruned_exits), rate, prec, crit, sched = point
            manifest.ensure(key, variant, pruned_exits, rate, prec, crit,
                            sched, fidelity=fidelity)
            cached = cache[0](point, key)
            if cached is not None:
                results[point] = cached
                if manifest.status(key) != "done":
                    manifest.mark(key, "done")
                log(f"{describe(point)} (cached)")
            elif manifest.status(key) == "quarantined":
                failed = self.failures[point] = manifest.failure(key)
                log(f"{describe(point)} skipped "
                    f"(quarantined: {failed.reason()})")
            else:
                # Never run, or a transient failure of an earlier run.
                pending.append(point)
        if manifest is not None:
            manifest.save()
        if not pending:
            return results, pending

        # The train stage: every base model the pending points' variants
        # need is trained before any variant context (hardware twin)
        # exists, so the stage's memory peak is one fit's. Variants with
        # no pending point need none: a fully warm cache rerun trains
        # nothing at all.
        needed = {vkey: exits_cfg
                  for vkey, exits_cfg in self.variants.items()
                  if vkey not in self.contexts
                  and any(point[0] == vkey for point in pending)}
        bases = gen.train_bases(needed, log, self.timer)
        for vkey, exits_cfg in needed.items():
            self.contexts[vkey] = gen._variant_context(
                vkey[0], exits_cfg, vkey[1], bases[vkey])
        pending = gen._memo_order(pending, self.variants)

        # Checkpoint every completion immediately: a sweep killed at any
        # instant loses at most the points that were in flight. The point
        # cache file records the completion; the manifest follows at the
        # stage's end (a resume marks every cached point done).
        def on_done(index, item, out):
            point = item[0]
            results[point], timing = out
            self.timer.merge(timing)
            if manifest is not None:
                cache[1](keys[point], results[point])
                manifest.mark(keys[point], "done")

        def on_failed(index, item, failed):
            self.failures[item[0]] = failed
            if manifest is not None:
                # Permanent failures stay quarantined across resumes;
                # exhausted transient/timeout/crash budgets are retried
                # by the next resume.
                manifest.mark(keys[item[0]], "quarantined"
                              if failed.kind == "permanent" else "failed",
                              failed)
                manifest.save()

        items = [(point, extra(point) if extra else None)
                 for point in pending]
        # Serial or forked, every task runs on the state built above:
        # forked workers inherit it, and each process keeps one step
        # memo for the whole stage.
        try:
            SupervisedPool(
                workers=cfg.parallel_workers, config=self.supervise,
                progress=log, label=lambda item: describe(item[0]),
                initializer=_install_worker_state,
                initargs=((gen, self.contexts, gen._sweep_memo()),),
            ).run(functools.partial(_in_worker, task), items,
                  on_result=on_done, on_failure=on_failed)
        finally:
            _install_worker_state(None)
            if manifest is not None:
                manifest.save()
        return results, pending

    def library(self, results: dict, **metadata) -> Library:
        """The Library of ``results``: entries and quarantine records in
        sweep order; ``metadata`` extends the sweep's own."""
        cfg = self.gen.config
        library = Library(metadata={
            "dataset": cfg.dataset,
            "num_classes": self.gen.num_classes,
            "width_scale": cfg.width_scale,
            "resource_width_scale": cfg.resource_width_scale,
            "quant": cfg.quant.name,
            "cache_key": cfg.cache_key(),
            # Conditional so pre-precision-axis metadata (pinned by the
            # golden trace) is unchanged at the defaults.
            **({"precisions": list(cfg.precisions)}
               if list(cfg.precisions) != ["base"] else {}),
            **({"criteria": list(cfg.criteria)}
               if list(cfg.criteria) != ["l1"] else {}),
            **({"schedules": list(cfg.schedules)}
               if list(cfg.schedules) != ["hard"] else {}),
            **({"zero_skip": True} if cfg.zero_skip else {}),
            **metadata,
        })
        for point in self.points:
            for entry in results.get(point, ()):
                library.add(entry)
        if self.failures:
            library.metadata["quarantined"] = [
                {"variant": point[0][0], "pruned_exits": point[0][1],
                 "rate": point[1],
                 **({"precision": point[2]} if point[2] != "base" else {}),
                 **({"criterion": point[3]} if point[3] != "l1" else {}),
                 **({"schedule": point[4]} if point[4] != "hard" else {}),
                 **self.failures[point].to_dict()}
                for point in self.points if point in self.failures]
        return library


# ----------------------------------------------------------------------
# process-pool worker side
# ----------------------------------------------------------------------
# The ``(generator, contexts, step memo)`` a stage's tasks run on, set by
# the pool initializer: in the parent for a serial stage, inherited by
# fork in each worker of a parallel one.
_WORKER_STATE: tuple | None = None


def _install_worker_state(state: tuple | None) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _in_worker(task, item):
    """Run a stage task on the state the pool initializer installed."""
    return task(_WORKER_STATE, item)


def _fit_base_task(state, index):
    """The train stage's task: fit the ``index``-th of the models the
    parent built; returns ``(state_arrays, timer.as_dict())``."""
    gen, train, models = state
    timer = PhaseTimer()
    with timer.phase("train"):
        gen._fit_base(models[index], train)
    return state_arrays(models[index]), timer.as_dict()


def _characterize_point(state, item):
    """The exhaustive sweep's task: Library entries of one ``(point,
    None)`` item."""
    gen, contexts, memo = state
    (variant_key, rate, precision, criterion, schedule), _ = item
    timer = PhaseTimer()
    entries = gen._characterize(contexts[variant_key], rate,
                                precision=precision, timer=timer,
                                criterion=criterion, schedule=schedule,
                                memo=memo)
    return entries, timer.as_dict()


def _mvtu_layer_costs(accel) -> dict:
    """Per-frame cycle cost of every MVTU, keyed by bare layer name.

    Module names carry the IR scope prefix (``seg0/b0_conv0.mvtu``);
    pruning ranks layers by their bare names (``b0_conv0``), so the
    prefix and the ``.mvtu`` suffix are stripped. FC layers come along
    harmlessly — the pruner only looks up CONV names.
    """
    costs = {}
    for module in accel.modules:
        if module.name.endswith(".mvtu"):
            bare = module.name[:-len(".mvtu")].split("/")[-1]
            costs[bare] = float(module.cycles())
    return costs


def accel_label(variant: str, pruned_exits: bool) -> str:
    if variant == "backbone":
        return "backbone (no exits)"
    return "early-exit, {} exits".format("pruned" if pruned_exits
                                         else "not-pruned")
