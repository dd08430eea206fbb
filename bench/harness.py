"""Runs one workload in this process and records the result.

A run is: import the program, set up ``SETUPS`` times (the last session
is kept), time repetitions of the flow until the time budget is spent,
optionally set up once more and repeat under the tracer, then run the
correctness checks outside the timed region. The record goes to
``<out>/BENCH_<workload>.json`` (spans to ``<out>/trace-<workload>.json``)
and the last line on standard output is the one-line JSON result.

The end-to-end times are :class:`~bench.clock.HostClock` seconds: host
time rescaled to the host's speed while it was spent. The record keeps
the wall times next to them.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from . import stats
from .clock import HostClock
from .trace import Profile, Tracer, install_layers, layer_value

__all__ = ["ROOT", "SPEC_PATH", "SETUPS", "BLAS_VARS", "load_spec",
           "source_ready", "import_program", "timed_import", "cold_imports",
           "measure", "run_workload"]

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Set-ups (and fresh-interpreter imports) per run; ``setup_s`` adds the
#: two medians.
SETUPS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def source_ready() -> bool:
    """Whether the program's sources sit next to the benchmark."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def import_program() -> None:
    """Import the checkout's own sources."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from . import workloads  # noqa: F401 - imports repro and NumPy


def timed_import() -> tuple[float, float]:
    """``(rescaled, wall)`` seconds ``import_program`` takes."""
    with HostClock() as clock:
        start = time.perf_counter()
        import_program()
        end = time.perf_counter()
    return clock.seconds(start, end), end - start


def cold_imports() -> list:
    """``timed_import`` in ``SETUPS`` fresh interpreters: the import is
    paid once per process, so one sample per run would let a single
    hiccup swing ``setup_s``.

    A first, untimed import writes the bytecode caches an installed
    package has, even where ``PYTHONDONTWRITEBYTECODE`` is set, so the
    timed imports never compile the sources in one checkout and read
    caches in another."""
    probe = "from bench.harness import timed_import; print(*timed_import())"
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    out = []
    for _ in range(SETUPS + 1):
        child = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               check=True, timeout=120)
        out.append(tuple(float(v) for v in child.stdout.split()[-2:]))
    return out[1:]


@dataclass
class Rep:
    wall_s: float
    scaled_s: float
    result: object  # workloads.RepResult
    op_s: list


def measure(session, workload, budget_s: float, min_reps: int,
            tracer: Tracer) -> list:
    """Time repetitions until at least ``min_reps`` ran and another one
    would overrun ``budget_s`` of wall time. Operation times come from
    the workload's ``op_span`` spans, so ``tracer`` must wrap at least
    that boundary."""
    runs = []
    start = time.perf_counter()
    with HostClock() as clock:
        while True:
            gc.collect()
            mark = len(tracer.spans)
            clock.mark()
            index = tracer.begin("rep", unit=f"rep {len(runs)}")
            t0 = time.perf_counter()
            try:
                output = session.rep()
            finally:
                t1 = time.perf_counter()
                tracer.end(index)
            clock.mark()
            result = session.summarize(output)
            op_s = [s[2] - s[1] for s in tracer.spans[mark:]
                    if s[0] == workload.op_span]
            runs.append((t0, t1, result, op_s))
            mean = (time.perf_counter() - start) / len(runs)
            if len(runs) >= min_reps \
                    and time.perf_counter() - start + mean > budget_s:
                break
    return [Rep(t1 - t0, clock.seconds(t0, t1), result, op_s)
            for t0, t1, result, op_s in runs]


def _git_sha(root: Path) -> str | None:
    """HEAD of the git checkout at ``root``; ``None`` outside one (the
    ceiling keeps git from finding a repository above ``root``)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        child = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                               capture_output=True, text=True, env=env,
                               timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return child.stdout.strip() if child.returncode == 0 else None


def environment() -> dict:
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count()
    return {"git_sha": _git_sha(ROOT),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": cpus,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "platform": platform.platform()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(imports, setup_runs, reps, rss_mb) -> dict:
    """The end-to-end metrics from rescaled seconds: imports and set-ups
    as ``(rescaled, wall)`` pairs, repetitions as :class:`Rep`."""
    return {"setup_s": median(s for s, _ in imports)
            + median(s for s, _ in setup_runs),
            "work_per_s": median(rep.result.work / rep.scaled_s
                                 for rep in reps),
            "peak_rss_mb": rss_mb}


def _op_latency(workload, reps) -> dict:
    """Wall time per operation: recorded, not bounded. Its median moves
    with the seed's mix of operation sizes, so it is no regression
    guard."""
    op_s = [d for rep in reps for d in rep.op_s]
    tail_q = stats.tail_percentile(len(op_s))
    return {"op": workload.op, "samples": len(op_s),
            "p50_ms": 1e3 * stats.percentile(op_s, 50.0),
            "tail_percentile": tail_q,
            "tail_ms": 1e3 * stats.percentile(op_s, tail_q)}


def _mean_counters(reps) -> dict:
    keys = {k for rep in reps for k in rep.result.counters}
    return {k: sum(rep.result.counters.get(k, 0.0) for rep in reps)
            / len(reps) for k in sorted(keys)}


def _with_units(values: dict, declared: list) -> dict:
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(
            f"harness metrics {sorted(values)} do not match BENCHMARK.json "
            f"{sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> int:
    """Run one workload; returns the process exit status."""
    spec = load_spec()
    import_program()
    from .workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / f".scratch-{name}-{os.getpid()}"
    scratch.mkdir()
    # Temporary files of the program and its workers stay in the scratch
    # directory too.
    previous = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch.resolve())
    try:
        record = _run(workload, seed, seconds, trace, spec, scratch,
                      out_dir)
    finally:
        tempfile.tempdir = None
        if previous is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous
        shutil.rmtree(scratch, ignore_errors=True)
    with open(out_dir / f"BENCH_{name}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    _print_record(record)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer"] if trace else record["metrics"]}))
    return 0 if record["correct"] else 1


def _setup(workload, seed, scratch):
    """One timed set-up: ``(session, (rescaled, wall) seconds)``."""
    gc.collect()
    with HostClock() as clock:
        t0 = time.perf_counter()
        session = workload.setup(seed, scratch)
        t1 = time.perf_counter()
    return session, (clock.seconds(t0, t1), t1 - t0)


def _run(workload, seed, seconds, trace, spec, scratch, out_dir) -> dict:
    imports = cold_imports()
    setup_runs = []
    for _ in range(SETUPS):
        session, took = _setup(workload, seed, scratch)
        setup_runs.append(took)

    # The untraced run's only wrapper is the clock on its operation.
    clock = Tracer()
    install_layers(clock, only=workload.op_span)
    try:
        reps = measure(session, workload, seconds / 2 if trace else seconds,
                       workload.min_reps, clock)
    finally:
        clock.restore()
    metrics = _end_to_end(imports, setup_runs, reps, _peak_rss_mb())
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": environment(),
              "cold_imports_s": imports, "setup_runs_s": setup_runs,
              "rep_s": [rep.wall_s for rep in reps],
              "rep_scaled_s": [rep.scaled_s for rep in reps],
              "op_latency": _op_latency(workload, reps),
              "metrics": _with_units(metrics, spec["end_to_end"]),
              "simulated": reps[0].result.simulated,
              "output_digest": reps[0].result.digest}

    digests = {rep.result.digest for rep in reps}
    checks = [{"name": "deterministic_across_reps", "ok": len(digests) == 1,
               "detail": f"{len(reps)} repetitions, {len(digests)} "
                         f"distinct outputs"}]
    all_reps = list(reps)
    if trace:
        traced = _traced(workload, seed, scratch,
                         seconds - sum(rep.wall_s for rep in reps), reps,
                         spec, record, out_dir)
        checks.append({"name": "traced_outputs_identical",
                       "ok": all(r.result.digest == reps[0].result.digest
                                 for r in traced),
                       "detail": f"{len(traced)} traced repetitions"})
        all_reps += traced
    checks += session.checks()

    attempted = sum(rep.result.ops for rep in all_reps)
    failed = sum(rep.result.failed for rep in all_reps)
    record.update({"correct": all(c["ok"] for c in checks),
                   "checks": checks, "attempted": attempted,
                   "failed": failed,
                   "failed_frac": failed / attempted if attempted else 0.0})
    return record


def _traced(workload, seed, scratch, budget_s, untraced, spec, record,
            out_dir) -> list:
    """Set up afresh and repeat under every layer wrapper; adds the
    per-layer metrics to ``record`` and writes the spans."""
    tracer = Tracer()
    install_layers(tracer)
    started = time.perf_counter()
    try:
        index = tracer.begin("setup")
        session = workload.setup(seed, scratch)
        tracer.end(index)
        traced = measure(session, workload,
                         budget_s - (time.perf_counter() - started), 1,
                         tracer)
    finally:
        tracer.restore()
    overhead = median(r.scaled_s for r in traced) \
        / median(r.scaled_s for r in untraced) - 1.0
    profile = Profile(tracer.spans, len(traced), _mean_counters(traced),
                      overhead)
    per_layer = {m["name"]: layer_value(m["name"], profile)
                 for m in spec["per_layer"]}
    record["per_layer"] = _with_units(per_layer, spec["per_layer"])
    record["traced_rep_s"] = [r.wall_s for r in traced]
    record["spans"] = len(tracer.spans)
    _write_trace(out_dir / f"trace-{workload.name}.json", workload.name,
                 seed, tracer.spans)
    return traced


def _write_trace(path: Path, workload: str, seed: int, spans) -> None:
    names = sorted({s[0] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "names": names,
                   "fields": ["name", "start_s", "end_s", "parent", "unit",
                              "n"],
                   "spans": [[code[s[0]], s[1], s[2], s[3], s[4], s[5]]
                             for s in spans]}, f)


def _print_record(record: dict) -> None:
    lat = record["op_latency"]
    slowdown = median(record["rep_s"]) / median(record["rep_scaled_s"])
    print(f"{record['workload']}  seed={record['seed']}  "
          f"reps={len(record['rep_s'])}  host slowdown {slowdown:.2f}x")
    sections = [("end to end (rescaled host time, tracing off)",
                 record["metrics"])]
    if "per_layer" in record:
        sections.append(("per layer (host time, traced run)",
                         record["per_layer"]))
    for title, metrics in sections:
        print(f"  {title}:")
        for name, m in metrics.items():
            print(f"    {name:<34} {m['value']:>16.6g}  {m['unit']}")
    print(f"  wall ms per {lat['op']} (n={lat['samples']}, not bounded): "
          f"p50 {lat['p50_ms']:.4g}, p{lat['tail_percentile']:g} "
          f"{lat['tail_ms']:.4g}")
    print("  simulated (deterministic per seed):")
    for name, value in record["simulated"].items():
        print(f"    {name:<34} {value:>16.6g}")
    print(f"  failed {record['failed']}/{record['attempted']} operations")
    for check in record["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAIL'}] {check['name']}"
              + (f": {check['detail']}" if check["detail"] else ""))
