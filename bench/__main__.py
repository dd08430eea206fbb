"""Command line of the benchmark; run from the repository root.

    python -m bench run [--workload W ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out DIR]
    python -m bench compare A_DIR B_DIR
    python -m bench fixture
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from . import harness  # imports no NumPy


def _run(args) -> int:
    spec = harness.load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; options: {known}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    if len(names) == 1:
        return harness.run_workload(names[0], args.seed, seconds,
                                    bool(args.trace), Path(args.out))
    # Several workloads: one fresh process each, one at a time, so
    # imports, set-up and peak memory are measured per workload.
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, "-m", "bench", "run", "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace), "--out", args.out],
            cwd=harness.ROOT)
        status = max(status, child.returncode)
    return status


def _compare(args) -> int:
    from .compare import compare_dirs

    return compare_dirs(Path(args.a_dir), Path(args.b_dir))


def _fixture(args) -> int:
    import shutil
    import tempfile

    harness.import_program()
    from repro.core import AdaPExFramework

    from .workloads import FIXTURE, generate_config

    FIXTURE.parent.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(dir=FIXTURE.parent)
    try:
        library = AdaPExFramework(generate_config(0, grid=True)) \
            .build_library(point_cache=cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    library.save(FIXTURE)
    print(f"wrote {len(library)} entries to {FIXTURE}")
    return 0


def parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(prog="python -m bench",
                                  description=__doc__.splitlines()[0])
    sub = out.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and record results")
    run.add_argument("--workload", nargs="+", metavar="W",
                     help="workload names (default: all six)")
    run.add_argument("--seed", type=int, default=0,
                     help="seed the workload's inputs are made from")
    # BENCHMARK.json's command is always invoked with
    # --workload W --seed N --seconds S --trace 0|1, so --seconds must
    # parse; tests/bench checks that invocation.
    run.add_argument("--seconds", type=float,
                     help="wall-time budget of the timed repetitions "
                          "(default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="also rerun traced and report per-layer metrics")
    run.add_argument("--out", default="bench-out",
                     help="directory for BENCH_<workload>.json "
                          "(default bench-out)")
    cmp_ = sub.add_parser("compare", help="compare two sets of results")
    cmp_.add_argument("a_dir", help="parent (baseline) results")
    cmp_.add_argument("b_dir", help="change results")
    sub.add_parser("fixture", help="regenerate the seed-0 grid library")
    return out


def main(argv=None) -> int:
    args = parser().parse_args(argv)

    # The workloads are serial; one BLAS thread keeps timings steady on a
    # small shared box. Set before NumPy loads; explicit settings win.
    for var in harness.BLAS_VARS:
        os.environ.setdefault(var, "1")
    if args.command in ("run", "fixture") and not harness.source_ready():
        print(f"bench: no program sources at {harness.ROOT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    return {"run": _run, "compare": _compare,
            "fixture": _fixture}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
