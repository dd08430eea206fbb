"""Command-line interface for the AdaPEx reproduction.

Subcommands mirror the framework's two phases plus inspection helpers::

    repro-adapex generate   --dataset cifar10 --profile quick -o lib.json
    repro-adapex info       --library lib.json
    repro-adapex select     --library lib.json --workload 450
    repro-adapex evaluate   --library lib.json --runs 10
    repro-adapex fleet      --library lib.json --servers 8 --tenants 64
    repro-adapex design-space --library lib.json --csv space.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis.experiments import fig4_design_space
from .analysis.report import format_table, write_csv
from .core import spec
from .core.adapex import AdaPExFramework
from .core.checkpoint import SweepManifest
from .core.config import AdaPExConfig
from .core.errors import IntegrityError
from .core.halving import HalvingConfig, HalvingSearch
from .core.instrument import PhaseTimer
from .core.supervise import SuperviseConfig
from .edge.server import ServerConfig, simulate_policy
from .fleet import (CoordinationError, ElasticConfig, FleetConfig,
                    FleetFaultSpec, ReconfigCoordinator, make_tenants,
                    simulate_fleet)
from .nn.quant import PRECISION_SPECS
from .pruning.ranking import CRITERIA
from .pruning.schedule import SCHEDULES
from .runtime.baselines import make_policy, policy_class
from .runtime.faults import FaultSpec
from .runtime.library import Library
from .runtime.reconfig import PartialReconfigModel

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# argument types — every value goes through the one grammar of
# repro.core.spec, checked up front so a bad flag fails with an
# actionable message instead of a traceback minutes into a sweep
# ----------------------------------------------------------------------
def _arg(parse):
    """An argparse ``type`` from a grammar parser: its ``ValueError``
    becomes the flag's error message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _policy_name(name: str) -> str:
    policy_class(name)  # ValueError("unknown policy ...") if unknown
    return name


_positive_int = _arg(spec.number(int, 1))
_nonnegative_int = _arg(spec.number(int, 0))
_positive_float = _arg(spec.number(float, 0, open_low=True))
_nonnegative_float = _arg(spec.number(float, 0))
_fraction_list = _arg(spec.items(spec.number(float, 0, 1), "fraction"))
_rate_sweep = _arg(spec.items(spec.number(float, 0, 1, open_high=True),
                              "pruning rate"))
_policy_names = _arg(spec.items(_policy_name, "policy"))


def _names(what: str, known):
    """Type of a comma-separated sweep axis: distinct names from
    ``known``."""
    return _arg(spec.items(spec.choice(what, known), what, unique=True))


#: Spec flags by argparse dest: :func:`main` parses each given one once,
#: into ``args.<dest>_spec``; the commands read only that.
_SPECS = {"halving": HalvingConfig, "faults": FaultSpec,
          "partial_reconfig": PartialReconfigModel,
          "fleet_faults": FleetFaultSpec, "elastic": ElasticConfig}


def _parse_specs(parser: argparse.ArgumentParser, args) -> None:
    for dest, cls in _SPECS.items():
        if hasattr(args, dest):
            text = getattr(args, dest)
            try:
                value = None if text is None else cls.parse(text)
            except ValueError as exc:
                parser.error(f"argument --{dest.replace('_', '-')}: {exc}")
            setattr(args, f"{dest}_spec", value)


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    """Cross-argument checks that individual ``type=`` hooks can't see."""
    if args.command == "generate":
        if args.resume and not args.point_cache:
            parser.error("--resume needs --point-cache: the checkpoint "
                         "manifest lives in the point-cache directory")
        if args.halving is not None and not args.point_cache:
            parser.error("--halving needs --point-cache: rung "
                         "checkpoints and scores live in the "
                         "point-cache directory")
        if args.resume:
            manifest = Path(args.point_cache) / "manifest.json"
            if not manifest.exists():
                parser.error(
                    f"--resume: no checkpoint manifest at {manifest} — "
                    f"nothing to resume (run once without --resume first)")
    elif args.command == "fleet":
        envelope = args.servers
        ecfg = args.elastic_spec
        if ecfg is not None:
            if not ecfg.min_servers <= args.servers <= ecfg.max_servers:
                parser.error(
                    f"argument --elastic: --servers {args.servers} must "
                    f"lie in [min_servers, max_servers] = "
                    f"[{ecfg.min_servers}, {ecfg.max_servers}]")
            # The stagger layout must hold for the whole capacity
            # envelope: a scaled-up server still needs a feasible slot.
            envelope = ecfg.max_servers
        if not args.no_coordinate:
            # Fail an infeasible stagger layout before loading anything.
            try:
                ReconfigCoordinator(
                    capacity_fraction=args.capacity_fraction,
                ).schedule(envelope)
            except CoordinationError as exc:
                parser.error(str(exc))
        # FleetConfig checks the ladder through the ServerConfig it
        # hands every server.
        try:
            FleetConfig(brownout_levels=tuple(args.brownout),
                        brownout_high=args.brownout_high,
                        brownout_low=args.brownout_low,
                        brownout_shed_occupancy=args.brownout_shed)
        except ValueError as exc:
            parser.error(f"invalid brownout ladder: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-adapex",
        description="AdaPEx (DATE 2023) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the design-time flow and "
                                          "save the Library as JSON")
    gen.add_argument("--dataset", default="cifar10",
                     choices=["cifar10", "gtsrb"])
    gen.add_argument("--profile", default="quick",
                     choices=["quick", "paper"],
                     help="quick: seconds-scale smoke sweep; paper: the "
                          "full 18x21 sweep (minutes of training)")
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("-o", "--output", required=True,
                     help="output JSON path")
    gen.add_argument("--workers", type=_positive_int, default=1,
                     help="design points characterized in parallel worker "
                          "processes (1 = serial; results are identical "
                          "either way)")
    gen.add_argument("--rates", type=_rate_sweep, metavar="R,R,...",
                     help="override the profile's pruning-rate sweep with "
                          "comma-separated rates in [0, 1), "
                          "e.g. '0.0,0.4,0.8'")
    gen.add_argument("--point-cache", metavar="DIR",
                     help="per-design-point cache directory; reruns and "
                          "interrupted sweeps only recompute changed points")
    gen.add_argument("--resume", action="store_true",
                     help="resume an interrupted sweep from the checkpoint "
                          "manifest in --point-cache (completed points are "
                          "not recomputed; quarantined points stay skipped)")
    gen.add_argument("--point-timeout", type=_positive_float,
                     metavar="SECONDS",
                     help="wall-clock budget per design point; points that "
                          "exceed it are retried and eventually quarantined")
    gen.add_argument("--point-retries", type=_nonnegative_int, default=2,
                     metavar="N",
                     help="retries per design point on transient failures "
                          "(crash/timeout/divergence) before quarantine")
    gen.add_argument("--precision", dest="precisions", metavar="P,P,...",
                     type=_names("precision", ("base", *PRECISION_SPECS)),
                     help="comma-separated precision sweep, e.g. "
                          "'base,int8': 'base' is the trained W2A2 model, "
                          "'int8' adds a W8A8 post-training-quantized "
                          "variant of every design point (DSP-packed in "
                          "the resource model)")
    gen.add_argument("--criterion", dest="criteria", metavar="C,C,...",
                     type=_names("pruning criterion", tuple(CRITERIA)),
                     help="comma-separated pruning-criterion sweep, e.g. "
                          "'l1,fpgm,hapm': l1 = magnitude ranking (paper "
                          "default), fpgm = geometric-median redundancy, "
                          "hapm = hardware-aware allocation weighted by "
                          "per-layer cycle cost from the FINN model")
    gen.add_argument("--schedule", dest="schedules", metavar="S,S,...",
                     type=_names("retraining schedule", SCHEDULES),
                     help="comma-separated retraining-schedule sweep, "
                          "e.g. 'hard,psfp': hard = prune once then "
                          "retrain (paper default), psfp = progressive "
                          "soft filter pruning over the retraining budget")
    gen.add_argument("--halving", metavar="SPEC", nargs="?", const="",
                     help="search the design space with multi-fidelity "
                          "successive halving instead of exhaustively "
                          "training every point (needs --point-cache); "
                          "optional key=value overrides, e.g. "
                          "'min_epochs=1,eta=2,extra_keep=3'")
    gen.add_argument("--zero-skip", action="store_true",
                     help="model zero-skipping MVTUs: stage cycles scale "
                          "with weight non-zero density (floored by "
                          "control overhead), so pruned/sparse layers "
                          "get faster. Changes every cycle figure and "
                          "the cache key")
    gen.add_argument("--resource-width-scale", type=_positive_float,
                     metavar="W",
                     help="width of the hardware twin the FINN resource "
                          "and cycle model sizes, relative to the full "
                          "CNV (default 1.0); e.g. 0.25 lets the W8A8 "
                          "'int8' twin fit the device at quick scale. "
                          "Changes the cache key")
    gen.add_argument("--compute-dtype", default="float64",
                     choices=["float64", "float32"],
                     help="NumPy compute precision: float64 (default, "
                          "bit-stable with golden traces) or float32 "
                          "(~2x BLAS throughput, small accuracy delta; "
                          "cache keys change)")
    gen.add_argument("--timing-json", metavar="PATH",
                     help="write the per-phase timing report (BENCH-style "
                          "JSON) to PATH")

    info = sub.add_parser("info", help="summarize a Library file")
    info.add_argument("--library", required=True)
    info.add_argument("--salvage", action="store_true",
                      help="load a truncated or corrupt library leniently, "
                          "keeping the entries that still validate, and "
                          "print what was dropped")

    sel = sub.add_parser("select", help="ask the Runtime Manager for an "
                                        "operating point")
    sel.add_argument("--library", required=True)
    sel.add_argument("--workload", type=_nonnegative_float, required=True,
                     help="incoming inferences per second")
    sel.add_argument("--policy", default="adapex",
                     choices=["adapex", "pr-only", "ct-only", "finn"])

    ev = sub.add_parser("evaluate", help="simulate the edge scenario")
    ev.add_argument("--library", required=True)
    ev.add_argument("--policies", type=_policy_names,
                    default="adapex,pr-only,ct-only,finn")
    ev.add_argument("--runs", type=_positive_int, default=10)
    ev.add_argument("--seed", type=_nonnegative_int, default=0)
    ev.add_argument("--parallel", type=_nonnegative_int, default=0,
                    metavar="N",
                    help="simulate runs on N worker processes (0 = serial; "
                         "aggregates are seed-exact either way)")
    ev.add_argument("--faults", metavar="SPEC",
                    help="inject faults: a preset (light/heavy/chaos) "
                         "and/or comma-separated key=value overrides, "
                         "e.g. 'heavy' or "
                         "'reconfig_failure_prob=0.3,drop_prob=0.01'")
    ev.add_argument("--fault-seed", type=_nonnegative_int, default=0,
                    help="seed of the fault campaign; identical seeds "
                         "give byte-identical campaigns")
    ev.add_argument("--batch-window", type=_nonnegative_float,
                    metavar="MS", default=0.0,
                    help="micro-batched admission: queued frames "
                         "arriving within this window (milliseconds) of "
                         "the head frame share one plan invocation "
                         "(default 0 = off)")
    ev.add_argument("--dispatch-overhead", type=_nonnegative_float,
                    metavar="MS", default=0.0,
                    help="fixed per-invocation dispatch cost in "
                         "milliseconds, amortized over each micro-batch "
                         "(default 0)")
    ev.add_argument("--partial-reconfig", metavar="SPEC",
                    help="price bitstream swaps with the per-region "
                         "partial-reconfiguration model: 'on' for "
                         "defaults or e.g. "
                         "'regions=8,exit_regions=2,overhead_ms=10'; "
                         "also installs the model as the policies' "
                         "switch-cost calculus")
    ev.add_argument("--timing-json", metavar="PATH",
                    help="write the per-phase timing report to PATH")

    fl = sub.add_parser("fleet", help="simulate a multi-server fleet "
                                      "campaign")
    fl.add_argument("--library", required=True)
    fl.add_argument("--servers", type=_positive_int, default=4,
                    help="fleet size (default 4)")
    fl.add_argument("--rack-size", type=_positive_int, default=2,
                    help="servers per rack — the correlated-failure "
                         "domain (default 2)")
    fl.add_argument("--tenants", type=_positive_int, default=32,
                    help="tenant camera fleets to route (default 32)")
    fl.add_argument("--cameras", type=_positive_int, default=4,
                    help="cameras per tenant (default 4)")
    fl.add_argument("--ips-per-camera", type=_positive_float, default=2.0,
                    help="per-camera request rate (default 2.0)")
    fl.add_argument("--tenant-slos", type=_fraction_list, default=[0.0],
                    metavar="A,A,...",
                    help="tenant accuracy SLOs assigned round-robin "
                         "(default '0.0' = best effort)")
    fl.add_argument("--router", default="hash",
                    choices=("hash", "least-loaded"),
                    help="stream placement discipline (default hash = "
                         "consistent hashing)")
    fl.add_argument("--policy", default="adapex",
                    choices=["adapex", "pr-only", "ct-only", "finn"])
    fl.add_argument("--slo-tiers", type=_fraction_list, default=[0.10],
                    metavar="L,L,...",
                    help="accuracy-loss thresholds assigned round-robin "
                         "over servers; one shared policy per tier "
                         "(default '0.10')")
    fl.add_argument("--duration", type=_positive_float, default=10.0,
                    help="campaign length in seconds (default 10)")
    fl.add_argument("--capacity-fraction", default=0.25,
                    type=_arg(spec.number(float, 0, 1, open_low=True)),
                    help="largest fleet fraction allowed mid-"
                         "reconfiguration at once (default 0.25)")
    fl.add_argument("--no-coordinate", action="store_true",
                    help="disable the reconfiguration coordinator "
                         "(all decision offsets zero)")
    fl.add_argument("--fleet-faults", metavar="SPEC",
                    help="correlated fault campaign: a preset "
                         "(rack-loss/thundering-herd/fleet-chaos) and/or "
                         "key=value overrides, e.g. "
                         "'rack-loss,racks_lost=2'")
    fl.add_argument("--elastic", metavar="SPEC", nargs="?", const="",
                    help="arm the elastic control plane (autoscaler, "
                         "health-checked live migration); optional "
                         "key=value overrides, e.g. "
                         "'max_servers=8,scale_up_utilization=0.8'")
    fl.add_argument("--ramp", type=_nonnegative_float, default=0.0,
                    metavar="SECONDS",
                    help="stagger tenant starts into a load ramp over "
                         "SECONDS (a 4x offered-load growth for the "
                         "autoscaler to chase; 0 = everyone at t=0)")
    fl.add_argument("--brownout", type=_fraction_list, default=[],
                    metavar="D,D,...",
                    help="degradation-ladder accuracy deltas, e.g. "
                         "'0.02,0.05': under queue pressure a server "
                         "steps its accuracy floor down by these rungs "
                         "and sheds load only at the bottom one "
                         "(default off = hard admission)")
    fl.add_argument("--brownout-high", type=_positive_float, default=0.85,
                    metavar="OCC",
                    help="queue occupancy that steps the ladder down "
                         "(default 0.85)")
    fl.add_argument("--brownout-low", type=_positive_float, default=0.25,
                    metavar="OCC",
                    help="queue occupancy that steps the ladder back up "
                         "(default 0.25)")
    fl.add_argument("--brownout-shed", type=_positive_float, default=1.0,
                    metavar="OCC",
                    help="bottom-rung shed threshold as queue occupancy "
                         "(default 1.0 = only when full)")
    fl.add_argument("--fault-seed", type=_nonnegative_int, default=0)
    fl.add_argument("--seed", type=_nonnegative_int, default=0)
    fl.add_argument("--workers", type=_nonnegative_int, default=0,
                    metavar="N",
                    help="shard servers over N worker processes "
                         "(0 = serial; campaigns are byte-identical "
                         "either way)")
    fl.add_argument("--timing-json", metavar="PATH",
                    help="write the per-phase timing report to PATH")

    ds = sub.add_parser("design-space", help="dump the Fig.-4 design space")
    ds.add_argument("--library", required=True)
    ds.add_argument("--csv", help="optional CSV output path")
    ds.add_argument("--top", type=_positive_int, default=15,
                    help="rows to print (sorted by accuracy)")
    return parser


def _load_library(path: str) -> Library:
    library = Library.load(path)
    if len(library) == 0:
        raise SystemExit(f"library {path!r} is empty")
    return library


def _cmd_generate(args) -> int:
    if args.profile == "quick":
        config = AdaPExConfig.quick(dataset=args.dataset, seed=args.seed)
    else:
        config = AdaPExConfig.paper(dataset=args.dataset, seed=args.seed)
    config.parallel_workers = args.workers
    config.compute_dtype = args.compute_dtype
    if args.rates:
        config.pruning_rates = args.rates
    for axis in ("precisions", "criteria", "schedules"):
        if getattr(args, axis):
            setattr(config, axis, getattr(args, axis))
    if args.zero_skip:
        config.zero_skip = True
    if args.resource_width_scale is not None:
        config.resource_width_scale = args.resource_width_scale
    config.__post_init__()  # re-validate after the overrides
    if args.resume:
        manifest = SweepManifest.open(
            Path(args.point_cache) / "manifest.json",
            config.point_cache_key())
        if len(manifest) == 0:
            print("resume: manifest does not match this configuration "
                  "(or is empty) — running the sweep from scratch")
        else:
            print(f"resuming sweep: {manifest.summary()}")
    supervise = SuperviseConfig(timeout_s=args.point_timeout,
                                retries=args.point_retries)
    timer = PhaseTimer()
    if args.halving is not None:
        search = HalvingSearch(config, halving=args.halving_spec)
        library = search.run(args.point_cache, progress=print,
                             timer=timer, supervise=supervise)
        rep = search.last_report
        print(f"halving: {rep.epochs_total} training epochs "
              f"({rep.epochs_this_run} this run, exhaustive would be "
              f"{rep.exhaustive_epochs}; "
              f"{rep.epoch_reduction:.1f}x reduction)")
    else:
        framework = AdaPExFramework(config)
        library = framework.build_library(progress=print, timer=timer,
                                          point_cache=args.point_cache,
                                          supervise=supervise)
    library.save(args.output)
    quarantined = library.metadata.get("quarantined") or []
    if quarantined:
        print(f"WARNING: library is partial — {len(quarantined)} design "
              f"point(s) quarantined:")
        for gap in quarantined:
            print(f"  - {gap.get('variant', '?')} "
                  f"pruned_exits={gap.get('pruned_exits', '?')} "
                  f"rate={gap.get('rate', '?')}: "
                  f"{gap.get('kind', '?')}: {gap.get('message', '')}")
    print(f"saved {len(library)} entries to {args.output}")
    print(timer.summary())
    if args.timing_json:
        timer.write_json(args.timing_json, extra={
            "command": "generate", "dataset": args.dataset,
            "profile": args.profile, "workers": config.parallel_workers})
        print(f"timing report written to {args.timing_json}")
    return 0


def _cmd_info(args) -> int:
    if args.salvage:
        library = Library.load(args.library, strict=False)
        report = library.load_report
        if report is not None:
            print(f"salvage: {report.summary()}")
            for index, reason in report.dropped:
                print(f"  dropped entry {index}: {reason}")
        if len(library) == 0:
            raise SystemExit(
                f"library {args.library!r} has no salvageable entries")
    else:
        try:
            library = _load_library(args.library)
        except IntegrityError as exc:
            raise SystemExit(
                f"library {args.library!r} failed integrity checks "
                f"({exc}); rerun with --salvage to recover what "
                f"survives") from exc
    print(f"library: {args.library}")
    for key, value in sorted(library.metadata.items()):
        print(f"  {key}: {value}")
    rows = []
    for accel in library.accelerators():
        entries = library.entries_for(accel)
        best = max(entries, key=lambda e: e.accuracy)
        rows.append({
            "accelerator": accel.label(),
            "entries": len(entries),
            "best_accuracy": best.accuracy,
            "max_serving_ips": max(e.serving_ips for e in entries),
            "bram18": best.resources.get("bram18", 0),
        })
    print(format_table(rows, title=f"\n{len(library)} entries over "
                                   f"{len(rows)} accelerators"))
    return 0


def _cmd_select(args) -> int:
    library = _load_library(args.library)
    policy = make_policy(args.policy, library)
    entry = policy.select(args.workload)
    print(f"policy {args.policy} @ workload {args.workload:.0f} IPS ->")
    print(f"  accelerator:          {entry.accelerator.label()}")
    print(f"  confidence threshold: {entry.confidence_threshold:.0%}")
    print(f"  accuracy:             {entry.accuracy:.2%}")
    print(f"  serving capacity:     {entry.serving_ips:.0f} IPS")
    print(f"  avg latency:          {entry.latency_s * 1e3:.2f} ms")
    print(f"  energy/inference:     "
          f"{entry.energy_per_inference_j * 1e3:.2f} mJ")
    return 0


def _cmd_evaluate(args) -> int:
    library = _load_library(args.library)
    faults = args.faults_spec if args.faults else None  # '' = no faults
    partial = args.partial_reconfig_spec
    config = ServerConfig(batch_window_s=args.batch_window / 1000.0,
                          dispatch_overhead_s=args.dispatch_overhead
                          / 1000.0,
                          partial_reconfig=partial)
    timer = PhaseTimer()
    rows = []
    for name in args.policies:
        policy = make_policy(name, library)
        if partial is not None:
            # Policies built on the RuntimeManager optimize the same
            # switch-cost calculus the simulator charges; static
            # baselines (FINN) have nothing to install it on.
            install = getattr(policy, "set_reconfig_model", None)
            if install is not None:
                install(partial)
        with timer.phase("simulate"):
            aggregate, _ = simulate_policy(policy, runs=args.runs,
                                           base_seed=args.seed,
                                           config=config,
                                           parallel=args.parallel,
                                           faults=faults,
                                           fault_seed=args.fault_seed)
        row = aggregate.as_row()
        if faults is not None:
            row.update(aggregate.fault_row())
        rows.append(row)
    title = f"edge serving ({args.runs} runs)"
    if faults is not None:
        title += (f" under faults [{args.faults}] "
                  f"fault-seed={args.fault_seed}")
    print(format_table(rows, title=title))
    print(timer.summary())
    if args.timing_json:
        timer.write_json(args.timing_json, extra={
            "command": "evaluate", "runs": args.runs,
            "policies": ",".join(args.policies),
            "parallel": args.parallel,
            "faults": args.faults, "fault_seed": args.fault_seed,
            "batch_window_ms": args.batch_window,
            "dispatch_overhead_ms": args.dispatch_overhead,
            "partial_reconfig": args.partial_reconfig})
        print(f"timing report written to {args.timing_json}")
    return 0


def _cmd_fleet(args) -> int:
    library = _load_library(args.library)
    faults = args.fleet_faults_spec if args.fleet_faults else None  # '' = none
    elastic = args.elastic_spec
    config = FleetConfig(
        num_servers=args.servers, rack_size=args.rack_size,
        router=args.router, policy=args.policy,
        slo_tiers=tuple(args.slo_tiers),
        capacity_fraction=args.capacity_fraction,
        coordinate=not args.no_coordinate, duration_s=args.duration,
        brownout_levels=tuple(args.brownout),
        brownout_high=args.brownout_high,
        brownout_low=args.brownout_low,
        brownout_shed_occupancy=args.brownout_shed)
    tenants = make_tenants(args.tenants, cameras=args.cameras,
                           ips_per_camera=args.ips_per_camera,
                           slo_tiers=tuple(args.tenant_slos),
                           ramp_s=args.ramp)
    timer = PhaseTimer()
    with timer.phase("simulate_fleet"):
        result = simulate_fleet(library, tenants, config, seed=args.seed,
                                faults=faults, fault_seed=args.fault_seed,
                                elastic=elastic, workers=args.workers)
    rows = []
    for run in result.servers:
        m = run.metrics
        rows.append({
            "server": run.server_id,
            "rack": run.rack,
            "tier": run.tier,
            "state": ("dead@%.2fs" % run.killed_at_s
                      if run.killed_at_s is not None else "alive"),
            "requests": m.total_requests,
            "processed": m.processed,
            "accuracy_pct": 100.0 * m.accuracy,
            "reconfigs": m.reconfigurations,
        })
    title = (f"fleet campaign: {args.servers} servers, "
             f"{args.tenants} tenants, {args.duration:.0f}s")
    if faults is not None:
        title += f" under [{args.fleet_faults}]"
    if elastic is not None:
        title += (f" (elastic {elastic.min_servers}.."
                  f"{elastic.max_servers})")
    print(format_table(rows, title=title))
    print(format_table([result.fleet.as_row()], title="\nfleet aggregate"))
    if result.scale_events:
        line = ", ".join(f"{e.action}@{e.at_s:.1f}s->s{e.server_id}"
                         for e in result.scale_events[:8])
        more = len(result.scale_events) - 8
        print("autoscaler: " + line + (f" (+{more} more)"
                                       if more > 0 else ""))
    planned = [e for e in result.migrations if e.planned]
    if planned:
        print(f"live migrations: {len(planned)} planned, "
              f"{sum(e.moved for e in planned)} frames moved, "
              f"{sum(e.dropped for e in planned)} dropped")
    if result.slo_violations:
        shown = ", ".join(result.slo_violations[:8])
        more = len(result.slo_violations) - 8
        print(f"SLO violations: {shown}" + (f" (+{more} more)"
                                            if more > 0 else ""))
    print(timer.summary())
    if args.timing_json:
        timer.write_json(args.timing_json, extra={
            "command": "fleet", "servers": args.servers,
            "tenants": args.tenants, "workers": args.workers,
            "router": args.router, "policy": args.policy,
            "fleet_faults": args.fleet_faults,
            "elastic": args.elastic, "ramp_s": args.ramp,
            "brownout": list(args.brownout),
            "fault_seed": args.fault_seed, "seed": args.seed})
        print(f"timing report written to {args.timing_json}")
    return 0


def _cmd_design_space(args) -> int:
    library = _load_library(args.library)
    rows = fig4_design_space(library)
    if args.csv:
        write_csv(rows, args.csv)
        print(f"wrote {len(rows)} design points to {args.csv}")
    rows.sort(key=lambda r: -r["accuracy"])
    print(format_table(rows[:args.top],
                       title=f"design space (top {args.top} by accuracy, "
                             f"{len(rows)} points total)"))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "select": _cmd_select,
    "evaluate": _cmd_evaluate,
    "fleet": _cmd_fleet,
    "design-space": _cmd_design_space,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _parse_specs(parser, args)
    _validate_args(parser, args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
