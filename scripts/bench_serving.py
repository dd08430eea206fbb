#!/usr/bin/env python
"""Serving-stack benchmark: the serving fast path vs the event loop.

Measures, on a hand-built library shaped like the quick-profile sweep
(three pruning rates x three confidence thresholds plus backbones):

1. **Campaign speedup** — a ``simulate_policy`` campaign with
   ``sim_mode="auto"`` vs ``sim_mode="event"``. The two must produce
   **bit-identical** ``RunMetrics`` (every field, every trace array) and
   the fast path must be at least ``REPRO_BENCH_MIN_SERVING_SPEEDUP``
   (default 10) times faster.
2. **Fault-campaign speedup** — the same campaign under the ``heavy``
   fault preset (failed and jittered reconfigurations, inference
   retries, ingress drops, spikes). ``auto`` must be bit-identical to
   ``event`` and at least ``MIN_FAULT_SPEEDUP`` (5) times faster.
3. **Selection speedup** — selection through the throughput-sorted
   index (``IndexOnlyManager``, ``tests/runtime/oracles.py``) vs a
   linear rescan of the library (``linear_select``), on a 200-entry
   library. Same winners on
   every query, at least ``REPRO_BENCH_MIN_SELECT_SPEEDUP`` (default 3)
   times faster.

Writes ``BENCH_serving.json`` (default: this directory; ``--out`` to
redirect) with timings and every check's verdict, and exits non-zero if
any check fails — CI runs this as a perf-regression guard and archives
the report.
"""

from __future__ import annotations

import argparse
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
    FaultSpec,
    Library,
    LibraryEntry,
    make_policy,
)
from tests.runtime.oracles import IndexOnlyManager, linear_select  # noqa: E402

MIN_SERVING_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_SERVING_SPEEDUP", "10"))
MIN_FAULT_SPEEDUP = 5.0
MIN_SELECT_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_SELECT_SPEEDUP", "3"))


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
    lib = Library(metadata={"dataset": "bench"})
    grid = [(0.0, 0.90, 400.0), (0.4, 0.84, 650.0), (0.8, 0.74, 1100.0)]
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


def selection_library(n: int = 200) -> Library:
    lib = Library(metadata={"dataset": "bench-select"})
    for i in range(n):
        lib.add(_entry(float(i % 5) / 5, 0.5,
                       0.70 + (i % 30) * 0.008, 100.0 + i * 7.0,
                       energy=1e-3 + (i % 7) * 1e-4))
    return lib


def metrics_key(m):
    return (m.total_requests, m.processed, m.lost, m.dropped, m.failed,
            m.accuracy, m.avg_latency_s, m.energy_j,
            m.reconfigurations, m.reconfig_dead_time_s, m.trace)


def best_of(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).parent),
                        help="directory for BENCH_serving.json")
    parser.add_argument("--runs", type=int, default=4,
                        help="simulation runs per campaign")
    parser.add_argument("--duration", type=float, default=15.0,
                        help="simulated seconds per run")
    parser.add_argument("--repeats", type=int, default=2,
                        help="repetitions per measurement (best-of)")
    parser.add_argument("--queries", type=int, default=3000,
                        help="selection queries in the micro-benchmark")
    args = parser.parse_args(argv)

    report = {
        "runs": args.runs,
        "duration_s": args.duration,
        "repeats": args.repeats,
        "queries": args.queries,
        "min_serving_speedup": MIN_SERVING_SPEEDUP,
        "min_fault_speedup": MIN_FAULT_SPEEDUP,
        "min_select_speedup": MIN_SELECT_SPEEDUP,
        "checks": {},
    }
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        report["checks"][name] = {"ok": bool(ok), "detail": detail}
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" +
              (f" — {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    # ------------------------------------------------------------------
    # 1. campaign: event loop vs vectorized fast path
    # ------------------------------------------------------------------
    lib = campaign_library()
    workload = WorkloadSpec(num_cameras=8, ips_per_camera=60.0,
                            duration_s=args.duration, deviation=0.3,
                            deviation_interval_s=2.0)
    print(f"serving campaign ({args.runs} runs x {args.duration:g}s, "
          f"adapex policy)...")

    def campaign(mode, faults=None):
        cfg = ServerConfig(sim_mode=mode, record_trace=True)
        return simulate_policy(make_policy("adapex", lib),
                               runs=args.runs, workload=workload,
                               config=cfg, base_seed=0, faults=faults,
                               fault_seed=1)

    event_s, (event_agg, event_runs) = best_of(
        lambda: campaign("event"), args.repeats)
    vector_s, (vector_agg, vector_runs) = best_of(
        lambda: campaign("auto"), args.repeats)
    identical = all(metrics_key(a) == metrics_key(b)
                    for a, b in zip(event_runs, vector_runs))
    check("campaign_bit_identical",
          identical and len(event_runs) == len(vector_runs),
          f"{len(event_runs)} runs compared field-by-field incl. traces")
    speedup = event_s / vector_s if vector_s > 0 else float("inf")
    report["campaign_event_s"] = event_s
    report["campaign_vector_s"] = vector_s
    report["campaign_speedup"] = speedup
    print(f"  event {event_s * 1e3:.0f} ms, vector {vector_s * 1e3:.0f} ms")
    check("campaign_speedup", speedup >= MIN_SERVING_SPEEDUP,
          f"{speedup:.1f}x (need >= {MIN_SERVING_SPEEDUP:g}x)")

    # ------------------------------------------------------------------
    # 2. heavy fault campaign: event loop vs fast path
    # ------------------------------------------------------------------
    heavy = FaultSpec.parse("heavy")
    print("heavy fault campaign...")
    fevent_s, (_, fevent_runs) = best_of(
        lambda: campaign("event", heavy), args.repeats)
    ffast_s, (_, ffast_runs) = best_of(
        lambda: campaign("auto", heavy), args.repeats)
    check("fault_campaign_bit_identical",
          fevent_runs == ffast_runs,
          f"{len(fevent_runs)} runs compared field-by-field incl. traces")
    fspeedup = fevent_s / ffast_s if ffast_s > 0 else float("inf")
    report["fault_campaign_event_s"] = fevent_s
    report["fault_campaign_fast_s"] = ffast_s
    report["fault_campaign_speedup"] = fspeedup
    print(f"  event {fevent_s * 1e3:.0f} ms, fast {ffast_s * 1e3:.0f} ms")
    check("fault_campaign_speedup", fspeedup >= MIN_FAULT_SPEEDUP,
          f"{fspeedup:.1f}x (need >= {MIN_FAULT_SPEEDUP:g}x)")

    # ------------------------------------------------------------------
    # 3. selection micro-benchmark: sorted index vs linear rescan
    # ------------------------------------------------------------------
    sel_lib = selection_library()
    mgr = IndexOnlyManager(sel_lib)
    ws = np.random.default_rng(1).uniform(
        0, 1800, size=args.queries).tolist()
    current = mgr.select(100.0)
    print(f"runtime selection ({len(sel_lib)} entries, "
          f"{args.queries} queries)...")
    indexed_s, _ = best_of(
        lambda: [mgr.select(w, current=current) for w in ws],
        args.repeats)
    linear_s, _ = best_of(
        lambda: [linear_select(mgr, w, current=current) for w in ws],
        args.repeats)
    same = all(mgr.select(w, current=current)
               is linear_select(mgr, w, current=current)
               for w in ws[:200])
    check("selection_same_winners", same,
          "indexed select matches the linear algorithm")
    sel_speedup = linear_s / indexed_s if indexed_s > 0 else float("inf")
    report["select_indexed_s"] = indexed_s
    report["select_linear_s"] = linear_s
    report["select_speedup"] = sel_speedup
    print(f"  indexed {indexed_s * 1e3:.1f} ms, "
          f"linear {linear_s * 1e3:.1f} ms")
    check("selection_speedup", sel_speedup >= MIN_SELECT_SPEEDUP,
          f"{sel_speedup:.1f}x (need >= {MIN_SELECT_SPEEDUP:g}x)")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "BENCH_serving.json"
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True, default=float)
    print(f"report written to {out_path}")

    if failures:
        print(f"FAILED checks: {failures}")
        return 1
    print("serving benchmark passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
