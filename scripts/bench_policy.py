#!/usr/bin/env python
"""Policy-table benchmark: compiled O(1) selection vs the indexed path.

Measures, on a campaign-shaped library (pruning-rate x confidence-
threshold grid plus backbones, so accuracy-tie groups and stability
bonuses are actually exercised):

1. **Selection speedup** — ``RuntimeManager.select`` through the
   compiled policy table (``compile_policy_table``) vs the
   throughput-sorted index (``IndexOnlyManager``,
   ``tests/runtime/oracles.py``), on the serving hot path (a deployed
   ``current`` entry, workloads spanning feasible and degraded ranges).
   Must be at least ``REPRO_BENCH_MIN_TABLE_SPEEDUP`` (default 5) times
   faster; the no-current cold path is reported as well.
2. **Exact equivalence** — table and index return the *same object* on
   a dense sweep (random workloads, every serving-IPS breakpoint and
   its grid neighborhood, degraded region, NaN) for every possible
   ``current``, with and without a partial-reconfiguration cost model.
3. **Campaign bit-identity** — with batching and partial reconfig off,
   a ``simulate_policy`` campaign driven by a table-backed manager is
   bit-identical (every ``RunMetrics`` field, every trace array) to the
   index-only campaign, in both simulation engines; and the
   micro-batched fast path is bit-identical to the batched event loop.

Writes ``BENCH_policy.json`` (default: this directory; ``--out`` to
redirect) with timings and every check's verdict, and exits non-zero if
any check fails — CI runs this as a perf-regression guard and archives
the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.edge import ServerConfig, WorkloadSpec, simulate_policy  # noqa: E402
from repro.runtime import (                                  # noqa: E402
    AcceleratorId,
    Library,
    LibraryEntry,
    PartialReconfigModel,
)
from repro.runtime.manager import RuntimeManager, SelectionPolicy  # noqa: E402
from tests.runtime.oracles import IndexOnlyManager           # noqa: E402

MIN_TABLE_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_TABLE_SPEEDUP", "5"))


def _entry(rate, ct, acc, ips, variant="ee", energy=2e-3,
           rates=(0.3, 0.3, 0.4), exit_lats=(0.001, 0.0015, 0.0025)):
    if variant == "backbone":
        rates = (1.0,)
        exit_lats = (exit_lats[-1],)
    return LibraryEntry(
        accelerator=AcceleratorId(pruning_rate=rate, variant=variant),
        confidence_threshold=ct,
        accuracy=acc,
        exit_rates=tuple(rates),
        latency_s=float(np.dot(rates, exit_lats)),
        serving_ips=ips,
        energy_per_inference_j=energy,
        power_idle_w=0.8,
        power_busy_w=1.2,
        achieved_pruning_rate=rate,
        exit_latencies_s=tuple(exit_lats),
    )


def campaign_library() -> Library:
    """Quick-profile-shaped library: ties within and across accelerators."""
    lib = Library(metadata={"dataset": "bench-policy"})
    grid = [(0.0, 0.90, 400.0), (0.2, 0.88, 520.0), (0.4, 0.84, 650.0),
            (0.6, 0.79, 880.0), (0.8, 0.74, 1100.0)]
    for rate, acc, ips in grid:
        for ct, dacc, dips, rates in [
            (0.1, -0.06, +250.0, (0.8, 0.15, 0.05)),
            (0.5, -0.02, +120.0, (0.45, 0.30, 0.25)),
            (0.9, 0.0, 0.0, (0.05, 0.15, 0.80)),
        ]:
            lib.add(_entry(rate, ct, acc + dacc, ips + dips, rates=rates))
        lib.add(_entry(rate, 1.0, acc - 0.01, ips - 20.0,
                       variant="backbone"))
    return lib


def sweep_workloads(lib: Library, rng) -> list:
    """Random workloads plus every decision breakpoint's neighborhood."""
    top = max(e.serving_ips for e in lib.entries)
    ws = rng.uniform(0.0, top * 1.5, 4000).tolist()
    for e in lib.entries:
        for w in (e.serving_ips, e.serving_ips / 1.1):
            ws.extend([w, np.nextafter(w, 0.0), np.nextafter(w, np.inf)])
    ws.extend([0.0, top * 10.0, float("inf")])
    return ws


def best_of(fn, repeats: int):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_key(m) -> tuple:
    d = dataclasses.asdict(m)
    trace = d.pop("trace")
    # The label is the manager's class name, which differs by
    # construction between the table and index-only sides.
    d.pop("policy")
    return (tuple(sorted(d.items())),
            tuple((k, tuple(v)) for k, v in sorted(trace.items())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).parent),
                        help="directory for BENCH_policy.json")
    parser.add_argument("--queries", type=int, default=200_000,
                        help="selection queries per timing loop")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    args = parser.parse_args(argv)

    report: dict = {"min_table_speedup": MIN_TABLE_SPEEDUP,
                    "queries": args.queries, "checks": {}}
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        report["checks"][name] = {"ok": bool(ok), "detail": detail}
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" +
              (f" — {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    lib = campaign_library()
    rng = np.random.default_rng(2023)
    policy = SelectionPolicy(headroom=1.1)

    # ------------------------------------------------------------------
    # 1. exact equivalence: table vs index, binary and graded
    # ------------------------------------------------------------------
    print("equivalence sweep (table vs index)...")
    ws = sweep_workloads(lib, rng)
    for model, tag in ((None, "binary"), (PartialReconfigModel(), "graded")):
        ref = IndexOnlyManager(lib, policy, reconfig_model=model)
        tab = RuntimeManager(lib, policy, reconfig_model=model)
        report[f"table_stats_{tag}"] = tab.compile_policy_table().stats()
        currents = [None] + list(lib.entries)
        mismatches = 0
        for w in ws:
            cur = currents[int(rng.integers(len(currents)))]
            if ref.select(w, cur) is not tab.select(w, cur):
                mismatches += 1
            if ref.select(w) is not tab.select(w):
                mismatches += 1
        check(f"table_equivalent_{tag}", mismatches == 0,
              f"{2 * len(ws)} queries, {mismatches} mismatches")

    # ------------------------------------------------------------------
    # 2. selection speedup: compiled table vs index
    # ------------------------------------------------------------------
    print("selection speedup (compiled table vs index)...")
    ref = IndexOnlyManager(lib, policy)
    tab = RuntimeManager(lib, policy)
    tab.compile_policy_table()
    top = max(e.serving_ips for e in lib.entries)
    qs = rng.uniform(0.0, top * 1.2, args.queries).tolist()
    current = ref.select(top * 0.4)

    def run_index():
        sel = ref.select
        for w in qs:
            sel(w, current)

    def run_table():
        sel = tab.select
        for w in qs:
            sel(w, current)

    index_s = best_of(run_index, args.repeats)
    table_s = best_of(run_table, args.repeats)
    speedup = index_s / table_s if table_s > 0 else float("inf")
    report["index_us_per_select"] = index_s / args.queries * 1e6
    report["table_us_per_select"] = table_s / args.queries * 1e6
    report["table_speedup"] = speedup
    print(f"  index {report['index_us_per_select']:.3f} us/select, "
          f"table {report['table_us_per_select']:.3f} us/select")
    check("table_speedup", speedup >= MIN_TABLE_SPEEDUP,
          f"{speedup:.2f}x (need >= {MIN_TABLE_SPEEDUP}x)")

    def run_table_cold():
        sel = tab.select
        for w in qs:
            sel(w)

    cold_s = best_of(run_table_cold, args.repeats)
    report["table_cold_speedup"] = index_s / cold_s if cold_s else float("inf")

    # ------------------------------------------------------------------
    # 3. campaign bit-identity: table on/off, engines, batching
    # ------------------------------------------------------------------
    print("campaign bit-identity (features off; table vs index)...")
    workload = WorkloadSpec(num_cameras=6, ips_per_camera=60.0,
                            duration_s=10.0)

    def campaign(use_table: bool, **cfg_kwargs):
        manager = RuntimeManager if use_table else IndexOnlyManager
        mgr = manager(lib, policy,
                      reconfig_model=cfg_kwargs.get("partial_reconfig"))
        if use_table:
            mgr.compile_policy_table()
        _, runs = simulate_policy(mgr, runs=6, workload=workload,
                                  base_seed=5,
                                  config=ServerConfig(**cfg_kwargs))
        return [run_key(m) for m in runs]

    t0 = time.perf_counter()
    plain_event = campaign(False, sim_mode="event")
    report["campaign_event_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    table_event = campaign(True, sim_mode="event")
    report["campaign_event_table_s"] = time.perf_counter() - t0
    check("campaign_identical_table_event", table_event == plain_event)
    check("campaign_identical_table_vector",
          campaign(True, sim_mode="auto") == plain_event)

    print("campaign bit-identity (micro-batching, event vs fast path)...")
    batched_event = campaign(True, sim_mode="event", batch_window_s=0.02,
                             dispatch_overhead_s=0.002)
    batched_vector = campaign(True, sim_mode="auto",
                              batch_window_s=0.02,
                              dispatch_overhead_s=0.002)
    check("campaign_batched_engines_identical",
          batched_event == batched_vector)
    check("campaign_batching_changes_accounting",
          batched_event != plain_event)

    print("campaign bit-identity (partial reconfig, event vs fast path)...")
    pr = PartialReconfigModel()
    check("campaign_partial_engines_identical",
          campaign(True, sim_mode="event", partial_reconfig=pr)
          == campaign(True, sim_mode="auto", partial_reconfig=pr))

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "BENCH_policy.json"
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(f"report written to {out_path}")

    if failures:
        print(f"FAILED checks: {failures}")
        return 1
    print("policy bench passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
