#!/usr/bin/env python
"""Perf smoke for the parallel execution engine.

Runs a tiny-config library sweep three ways — serial, process-parallel,
and warm point-cache — plus a short edge evaluation serial and parallel,
then checks the engine's contracts:

* parallel, cached, and serial sweeps produce **identical** Library
  entries, and parallel `simulate_policy` matches serial bit-for-bit;
* a warm point-cache rerun does **zero** prune/compile work;
* on a multi-core machine, the parallel sweep is at least ``MIN_SPEEDUP``
  (default 2x) faster than serial (skipped when fewer than 4 CPUs are
  available — there is nothing to speed up with);
* the compiled inference engine produces **bit-identical** outputs to
  the interpreted IR executors on the smoke model, and is not slower;
* the zero-skip cycle factor is monotone in density with its
  control-overhead floor.

Writes a ``BENCH_perf_smoke.json`` timing report (next to this script by
default; ``--out DIR`` to redirect) so CI can archive the trajectory.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py [--out DIR] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.core import (AdaPExConfig, LibraryGenerator, PhaseTimer,
                        PointCache, fork_available)
from repro.core import design_time
from repro.edge import WorkloadSpec, simulate_policy
from repro.fleet import (ElasticConfig, FleetConfig, make_tenants,
                         simulate_fleet)
from repro.runtime import RuntimeManager

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.runtime.oracles import IndexOnlyManager  # noqa: E402

MIN_SPEEDUP = float(os.environ.get("REPRO_SMOKE_MIN_SPEEDUP", "2.0"))


def tiny_config(workers: int = 1) -> AdaPExConfig:
    config = AdaPExConfig.quick(seed=11)
    config.train_samples = 256
    config.test_samples = 128
    config.pruning_rates = [0.0, 0.2, 0.4, 0.6, 0.8]
    config.confidence_thresholds = [0.25, 0.75]
    config.parallel_workers = workers
    return config


def entries_of(library) -> list:
    return [e.to_dict() for e in library]


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


class CallCounter:
    """Counting wrapper for the expensive design-time calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).parent),
                        help="directory for BENCH_perf_smoke.json")
    parser.add_argument("--workers", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="workers for the parallel sweep")
    args = parser.parse_args(argv)

    report: dict = {"cpus": os.cpu_count(), "workers": args.workers,
                    "fork_available": fork_available(),
                    "min_speedup": MIN_SPEEDUP, "checks": {}}
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        report["checks"][name] = {"ok": bool(ok), "detail": detail}
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" +
              (f" — {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    # ------------------------------------------------------------------
    # 1. serial sweep
    # ------------------------------------------------------------------
    print("serial sweep...")
    serial_timer = PhaseTimer()
    t0 = time.perf_counter()
    serial_lib = LibraryGenerator(tiny_config(1)).generate(timer=serial_timer)
    serial_s = time.perf_counter() - t0
    report["serial_s"] = serial_s
    report["serial_phases"] = serial_timer.as_dict()
    print(f"  {serial_s:.2f} s, {len(serial_lib)} entries")

    # ------------------------------------------------------------------
    # 2. parallel sweep
    # ------------------------------------------------------------------
    print(f"parallel sweep ({args.workers} workers)...")
    t0 = time.perf_counter()
    parallel_lib = LibraryGenerator(tiny_config(args.workers)).generate()
    parallel_s = time.perf_counter() - t0
    report["parallel_s"] = parallel_s
    print(f"  {parallel_s:.2f} s, {len(parallel_lib)} entries")

    check("parallel_identical_to_serial",
          entries_of(parallel_lib) == entries_of(serial_lib))

    multicore = (os.cpu_count() or 1) >= 4 and fork_available()
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    report["speedup"] = speedup
    if multicore and args.workers >= 4:
        check("parallel_speedup", speedup >= MIN_SPEEDUP,
              f"{speedup:.2f}x (need >= {MIN_SPEEDUP}x)")
    else:
        print(f"  [skip] parallel_speedup — {os.cpu_count()} CPU(s), "
              f"{args.workers} workers (speedup measured: {speedup:.2f}x)")
        report["checks"]["parallel_speedup"] = {
            "ok": None, "detail": "skipped: fewer than 4 CPUs/workers"}

    # ------------------------------------------------------------------
    # 3. point cache: cold fill + warm rerun with zero prune/compile
    # ------------------------------------------------------------------
    print("point cache: cold fill + warm rerun...")
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_lib = LibraryGenerator(tiny_config(1)).generate(
            point_cache=cache_dir)
        check("cold_cache_identical_to_serial",
              entries_of(cold_lib) == entries_of(serial_lib))

        prune_counter = CallCounter(design_time.prune_model)
        compile_counter = CallCounter(design_time.compile_accelerator)
        design_time.prune_model = prune_counter
        design_time.compile_accelerator = compile_counter
        try:
            t0 = time.perf_counter()
            warm_lib = LibraryGenerator(tiny_config(1)).generate(
                point_cache=cache_dir)
            warm_s = time.perf_counter() - t0
        finally:
            design_time.prune_model = prune_counter.fn
            design_time.compile_accelerator = compile_counter.fn
        report["warm_cache_s"] = warm_s
        print(f"  warm rerun {warm_s:.2f} s")
        check("warm_cache_zero_prune_compile",
              prune_counter.calls == 0 and compile_counter.calls == 0,
              f"prune={prune_counter.calls}, compile={compile_counter.calls}")
        check("warm_cache_identical_to_serial",
              entries_of(warm_lib) == entries_of(serial_lib))

    # ------------------------------------------------------------------
    # 4. edge simulation: parallel matches serial bit-for-bit
    # ------------------------------------------------------------------
    print("edge simulation (5 runs, serial vs parallel)...")
    policy = RuntimeManager(serial_lib)
    workload = WorkloadSpec(num_cameras=4, ips_per_camera=10.0,
                            duration_s=5.0)
    sim_timer = PhaseTimer()
    with sim_timer.phase("simulate"):
        agg_serial, runs_serial = simulate_policy(
            policy, runs=5, workload=workload, base_seed=3)
    with sim_timer.phase("simulate"):
        agg_parallel, runs_parallel = simulate_policy(
            policy, runs=5, workload=workload, base_seed=3,
            parallel=args.workers)
    report["simulate_phases"] = sim_timer.as_dict()
    check("simulate_parallel_identical",
          agg_serial == agg_parallel and
          [(r.processed, r.lost, r.energy_j) for r in runs_serial] ==
          [(r.processed, r.lost, r.energy_j) for r in runs_parallel])

    # ------------------------------------------------------------------
    # 4b. compiled policy table: same winners as the indexed select
    # ------------------------------------------------------------------
    print("policy table vs indexed select...")
    import numpy as _np_ptable
    indexed = IndexOnlyManager(serial_lib)
    tabled = RuntimeManager(serial_lib)
    tabled.compile_policy_table()
    _rng = _np_ptable.random.default_rng(17)
    top_ips = max(e.serving_ips for e in serial_lib.entries)
    queries = _rng.uniform(0.0, top_ips * 1.3, 2000).tolist()
    queries += [e.serving_ips for e in serial_lib.entries]
    currents = [None] + list(serial_lib.entries)
    table_mismatch = sum(
        1 for w in queries
        for cur in (None, currents[int(_rng.integers(len(currents)))])
        if indexed.select(w, cur) is not tabled.select(w, cur))
    check("policy_table_equivalent", table_mismatch == 0,
          f"{2 * len(queries)} queries, {table_mismatch} mismatches")

    # ------------------------------------------------------------------
    # 4c. fleet campaign: sharded run matches serial bit-for-bit
    # ------------------------------------------------------------------
    print("fleet campaign determinism (4 servers, serial vs sharded)...")
    fleet_cfg = FleetConfig(num_servers=4, rack_size=2, duration_s=4.0,
                            slo_tiers=(0.05, 0.10))
    fleet_tenants = make_tenants(8, cameras=2, ips_per_camera=15.0,
                                 slo_tiers=(0.0, 0.80))
    with sim_timer.phase("fleet"):
        fleet_serial = simulate_fleet(serial_lib, fleet_tenants,
                                      fleet_cfg, seed=3, workers=1)
        fleet_sharded = simulate_fleet(serial_lib, fleet_tenants,
                                       fleet_cfg, seed=3, workers=2)
    report["fleet_users"] = fleet_serial.fleet.total_requests
    report["simulate_phases"] = sim_timer.as_dict()  # now incl. fleet
    check("fleet_campaign_deterministic",
          fleet_serial.fleet == fleet_sharded.fleet
          and fleet_serial.servers == fleet_sharded.servers
          and fleet_serial.assignment == fleet_sharded.assignment
          and fleet_serial.offsets == fleet_sharded.offsets,
          f"{fleet_serial.fleet.total_requests} users, "
          "workers=1 vs workers=2 exact")

    # ------------------------------------------------------------------
    # 4d. elastic campaign: autoscaler + migration ledger deterministic
    # ------------------------------------------------------------------
    print("elastic campaign determinism (ramped load, serial vs "
          "sharded)...")
    ramp_tenants = make_tenants(12, cameras=2, ips_per_camera=15.0,
                                slo_tiers=(0.0, 0.80), ramp_s=4.0)
    ecfg = ElasticConfig(min_servers=1, max_servers=4, cooldown_s=2.0)
    elastic_cfg = FleetConfig(num_servers=2, rack_size=2,
                              duration_s=8.0, slo_tiers=(0.05, 0.10))
    with sim_timer.phase("fleet"):
        elastic_serial = simulate_fleet(serial_lib, ramp_tenants,
                                        elastic_cfg, seed=3,
                                        elastic=ecfg, workers=1)
        elastic_sharded = simulate_fleet(serial_lib, ramp_tenants,
                                         elastic_cfg, seed=3,
                                         elastic=ecfg, workers=2)
    report["simulate_phases"] = sim_timer.as_dict()
    check("elastic_campaign_deterministic",
          elastic_serial.fleet == elastic_sharded.fleet
          and elastic_serial.servers == elastic_sharded.servers
          and elastic_serial.migrations == elastic_sharded.migrations
          and elastic_serial.scale_events == elastic_sharded.scale_events
          and elastic_serial.lifetimes == elastic_sharded.lifetimes,
          "workers=1 vs workers=2 exact, migration/scale ledgers "
          "included")

    # ------------------------------------------------------------------
    # 5. compiled engine: bit-identity and not-slower vs interpreter
    # ------------------------------------------------------------------
    print("compiled engine vs interpreted IR...")
    import numpy as np

    from repro.ir import export_model, streamline
    from repro.models import CNVConfig, ExitsConfiguration, build_cnv

    model = build_cnv(CNVConfig(width_scale=0.25, seed=11),
                      ExitsConfiguration.paper_default(pruned=True))
    graph = export_model(model)
    streamline(graph)
    plan = graph.compile()
    x = np.random.default_rng(11).standard_normal((32, 3, 32, 32))
    ref = graph.execute(x)
    got = plan.run(x)
    check("engine_bit_identical",
          len(ref) == len(got) and
          all(np.array_equal(a, b) for a, b in zip(ref, got)))

    interp_s = min(_timed(graph.execute, x) for _ in range(3))
    fused_s = min(_timed(plan.run, x) for _ in range(3))
    engine_speedup = interp_s / fused_s if fused_s > 0 else float("inf")
    report["engine_interpreted_s"] = interp_s
    report["engine_fused_s"] = fused_s
    report["engine_speedup"] = engine_speedup
    check("engine_not_slower", engine_speedup >= 1.0,
          f"{engine_speedup:.2f}x vs interpreted (need >= 1.0x)")

    # ------------------------------------------------------------------
    # 5b. zero-skip cycle factor: monotone, with its overhead floor
    # ------------------------------------------------------------------
    from repro.finn.hls import ZERO_SKIP_OVERHEAD, zero_skip_factor

    factors = [zero_skip_factor(0.05 * i) for i in range(21)]
    check("zero_skip_monotone_with_floor",
          all(a <= b for a, b in zip(factors, factors[1:]))
          and min(factors) == ZERO_SKIP_OVERHEAD
          and zero_skip_factor(1.0) == 1.0,
          f"floor {min(factors)}")

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "BENCH_perf_smoke.json"
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(f"report written to {out_path}")

    if failures:
        print(f"FAILED checks: {failures}")
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
