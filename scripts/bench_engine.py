#!/usr/bin/env python
"""Compiled-engine benchmark: fused plan vs interpreted IR execution.

Measures, on the CNV smoke configuration (width-scale 0.25 with the
paper's two early exits):

1. **Interpreted forward** — :meth:`IRGraph.execute` walking node by node
   through ``repro.ir.executors`` (the semantics oracle).
2. **Compiled float64 forward** — :func:`repro.ir.engine.compile_graph`
   with BatchNorm folding, Conv/MatMul->MultiThreshold fusion and
   preallocated buffers. Must be bit-identical to (1) and at least
   ``REPRO_BENCH_MIN_FUSED_SPEEDUP`` (default 1.5) times faster.
3. **Compiled float32 end-to-end** — :func:`repro.nn.evaluate_exits`
   over a full dataset with a float32 plan vs the interpreted float64
   path. Must be at least ``REPRO_BENCH_MIN_F32_SPEEDUP`` (default 2.5)
   times faster.
4. **Integer MVTU layers** — every Conv/MatMul of the float64 plan runs
   on the integer path except the first layer (float image input) and
   the logit layers (graph outputs), as ``ExecutionPlan.stats()``
   reports; a silent fallback of every layer to the float path fails.

Writes ``BENCH_engine.json`` (default: this directory; ``--out`` to
redirect) with per-phase timings (``engine_compile`` / ``engine_forward``
/ ``engine_threshold``) and every check's verdict, and exits non-zero if
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import PhaseTimer                            # noqa: E402
from repro.ir import export_model, streamline                # noqa: E402
from repro.models import CNVConfig, ExitsConfiguration, build_cnv  # noqa: E402
from repro.nn import evaluate_exits                          # noqa: E402

MIN_FUSED_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_FUSED_SPEEDUP",
                                         "1.5"))
MIN_F32_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_F32_SPEEDUP", "2.5"))


class InterpretedModel:
    """Duck-typed model adapter over :meth:`IRGraph.execute`."""

    def __init__(self, graph):
        self.graph = graph
        self.num_exits = int(graph.metadata.get("num_exits", 0))

    def eval(self):
        return self

    def forward(self, x):
        return self.graph.execute(x)


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).parent),
                        help="directory for BENCH_engine.json")
    parser.add_argument("--batch", type=int, default=64,
                        help="forward-pass batch size")
    parser.add_argument("--samples", type=int, default=256,
                        help="dataset size for the end-to-end check")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per measurement (best-of)")
    args = parser.parse_args(argv)

    print("building CNV smoke model (width 0.25, 2 early exits)...")
    model = build_cnv(CNVConfig(width_scale=0.25, seed=0),
                      ExitsConfiguration.paper_default(pruned=True))
    graph = export_model(model)
    streamline(graph)

    timer = PhaseTimer()
    plan64 = graph.compile(dtype=np.float64, timer=timer)
    plan32 = graph.compile(dtype=np.float32)

    rng = np.random.default_rng(0)
    x = rng.standard_normal((args.batch, 3, 32, 32))
    images = rng.standard_normal((args.samples, 3, 32, 32))
    labels = rng.integers(0, 10, size=args.samples)

    report = {
        "batch": args.batch,
        "samples": args.samples,
        "repeats": args.repeats,
        "min_fused_speedup": MIN_FUSED_SPEEDUP,
        "min_f32_speedup": MIN_F32_SPEEDUP,
        "plan_stats": plan64.stats(),
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
    # 1. single-batch forward: interpreted vs compiled float64
    # ------------------------------------------------------------------
    print(f"single-batch forward (batch {args.batch})...")
    ref = graph.execute(x)
    got = plan64.run(x)
    check("fused_float64_bit_identical",
          len(ref) == len(got) and
          all(np.array_equal(a, b) for a, b in zip(ref, got)))

    interp_s = best_of(lambda: graph.execute(x), args.repeats)
    fused_s = best_of(lambda: plan64.run(x), args.repeats)
    fused32_s = best_of(lambda: plan32.run(x), args.repeats)
    speedup = interp_s / fused_s if fused_s > 0 else float("inf")
    report["interpreted_s"] = interp_s
    report["fused_float64_s"] = fused_s
    report["fused_float32_s"] = fused32_s
    report["fused_speedup"] = speedup
    print(f"  interpreted {interp_s * 1e3:.1f} ms, "
          f"fused f64 {fused_s * 1e3:.1f} ms, "
          f"fused f32 {fused32_s * 1e3:.1f} ms")
    check("fused_float64_speedup", speedup >= MIN_FUSED_SPEEDUP,
          f"{speedup:.2f}x (need >= {MIN_FUSED_SPEEDUP}x)")

    # ------------------------------------------------------------------
    # 2. end-to-end evaluate_exits: interpreted f64 vs compiled f32
    # ------------------------------------------------------------------
    print(f"end-to-end evaluate_exits ({args.samples} samples)...")
    interp_model = InterpretedModel(graph)
    e2e_interp_s = best_of(
        lambda: evaluate_exits(interp_model, images, labels), args.repeats)
    e2e_f32_s = best_of(
        lambda: evaluate_exits(plan32, images, labels), args.repeats)
    e2e_speedup = e2e_interp_s / e2e_f32_s if e2e_f32_s > 0 else float("inf")
    report["evaluate_exits_interpreted_s"] = e2e_interp_s
    report["evaluate_exits_float32_s"] = e2e_f32_s
    report["evaluate_exits_f32_speedup"] = e2e_speedup
    print(f"  interpreted {e2e_interp_s * 1e3:.1f} ms, "
          f"compiled f32 {e2e_f32_s * 1e3:.1f} ms")
    check("float32_end_to_end_speedup", e2e_speedup >= MIN_F32_SPEEDUP,
          f"{e2e_speedup:.2f}x (need >= {MIN_F32_SPEEDUP}x)")

    acc64 = evaluate_exits(plan64, images, labels)
    acc32 = evaluate_exits(plan32, images, labels)
    max_delta = max(abs(a - b) for a, b in zip(acc64, acc32))
    report["float32_accuracy_delta"] = max_delta
    # Untrained random weights: exact top-1 agreement is not guaranteed
    # near ties, but the two precisions must not diverge wholesale.
    check("float32_accuracy_close", max_delta <= 0.05,
          f"max per-exit accuracy delta {max_delta:.4f}")

    # ------------------------------------------------------------------
    # 3. integer MVTU layers: nothing eligible left on the float path
    # ------------------------------------------------------------------
    stats = plan64.stats()
    off_integer = {name: reason for name, reason
                   in stats["float_layers"].items()
                   if reason not in ("first layer", "graph output")}
    check("eligible_layers_integer",
          stats["integer_layers"] > 0 and not off_integer,
          f"{stats['integer_layers']} integer layers; float: "
          f"{stats['float_layers']}")

    # ------------------------------------------------------------------
    # 4. per-phase engine timings (from the instrumented plan)
    # ------------------------------------------------------------------
    inst_plan = graph.compile(dtype=np.float64, timer=timer)
    inst_plan.run(x)
    report["engine_phases"] = timer.as_dict()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "BENCH_engine.json"
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True, default=float)
    print(f"report written to {out_path}")

    if failures:
        print(f"FAILED checks: {failures}")
        return 1
    print("engine benchmark passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
