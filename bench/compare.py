"""``python -m bench compare A_DIR B_DIR``: a change's runs against the
parent's.

Every ``BENCH_*.json`` under a directory is one run. For each workload
and end-to-end metric the report gives each side's median and
quartiles and the fraction of runs the change wins (runs paired in seed
order, ties counting for neither), then a verdict under the metric's
bound from ``BENCHMARK.json``:

* ``regressed`` when the change's median is worse than the parent's by
  more than the bound, and either both sides' spreads (quartile
  distance over the median) are within the bound or the loss is
  decisive: every run of the change reads worse than every run of the
  parent, or the change loses at least 9 of 10 pairs and the medians
  differ by more than the parent's quartile distance;
* ``unresolved`` otherwise when either side's spread is wider than the
  bound, unless every run of the change reads better than every run of
  the parent;
* ``improved`` when the change wins at least 9 of 10 pairs and the
  medians differ by more than the parent's quartile distance;
* ``unchanged`` otherwise.

It also flags every unresolved row, runs of the same seed whose output
digests or simulated results differ, and treats any rise in the failed
fraction as a regression. The exit status is 1 when anything regressed.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

from .harness import load_spec
from .stats import quartiles

__all__ = ["load_runs", "verdict", "compare_dirs"]

#: Relative tolerance for simulated results of the same seed.
SIMULATED_RTOL = 1e-9


def load_runs(directory: Path) -> dict:
    """``{workload: [record, ...]}`` sorted by seed."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).rglob("BENCH_*.json")):
        with open(path) as f:
            record = json.load(f)
        runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return dict(runs)


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Compare one metric's values; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    scale = abs(pmed) or 1.0
    spread = max((pq3 - pq1) / scale, (cq3 - cq1) / (abs(cmed) or 1.0))
    gain = sign * (cmed - pmed) / scale  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    clear = abs(cmed - pmed) > pq3 - pq1
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    decisive_loss = all_worse or (losses >= 0.9 * len(pairs) and clear)
    significant = wins >= 0.9 * len(pairs) and clear
    if gain < -bound and (spread <= bound or decisive_loss):
        result = "regressed"
    elif all_better:
        result = "improved" if significant else "unchanged"
    elif spread > bound:
        result = "unresolved"
    elif significant and gain > 0:
        result = "improved"
    else:
        result = "unchanged"
    return {"verdict": result, "parent": (pq1, pmed, pq3),
            "change": (cq1, cmed, cq3), "gain": gain, "spread": spread,
            "wins": wins, "pairs": len(pairs)}


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SIMULATED_RTOL, abs_tol=0.0)


def compare_dirs(a_dir: Path, b_dir: Path) -> int:
    spec = load_spec()
    parent, change = load_runs(a_dir), load_runs(b_dir)
    regressed = False
    flags = []
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'gain':>7} {'wins':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        a, b = parent.get(name, []), change.get(name, [])
        if not a or not b:
            flags.append(f"{name}: no runs on the "
                         f"{'parent' if not a else 'change'} side")
            continue
        for m in spec["end_to_end"]:
            v = verdict([r["metrics"][m["name"]]["value"] for r in a],
                        [r["metrics"][m["name"]]["value"] for r in b],
                        m["better"], m["bound"])
            regressed |= v["verdict"] == "regressed"
            print(f"{name:<16} {m['name']:<12} {_fmt(v['parent']):>32} "
                  f"{_fmt(v['change']):>32} {100 * v['gain']:>+6.1f}% "
                  f"{v['wins']:>2}/{v['pairs']:<3}  {v['verdict']}")
            if v["verdict"] == "unresolved":
                flags.append(f"{name} {m['name']}: unresolved, spread "
                             f"{100 * v['spread']:.1f}% is wider than the "
                             f"{100 * m['bound']:g}% bound")
        a_failed = max(r["failed_frac"] for r in a)
        b_failed = max(r["failed_frac"] for r in b)
        if b_failed > a_failed:
            regressed = True
            flags.append(f"{name}: failed_frac rose from {a_failed:g} to "
                         f"{b_failed:g} (regression)")
        a_by_seed = {r["seed"]: r for r in a}
        for r in b:
            p = a_by_seed.get(r["seed"])
            if p is None:
                continue
            if p["output_digest"] != r["output_digest"]:
                flags.append(f"{name} seed {r['seed']}: output digest "
                             f"changed")
            for key, value in r["simulated"].items():
                old = p["simulated"].get(key)
                if old is None or not _same(old, value):
                    flags.append(f"{name} seed {r['seed']}: simulated "
                                 f"{key} {old} -> {value}")
    for flag in flags:
        print(f"FLAG {flag}")
    print("regression found" if regressed else "no regression")
    return 1 if regressed else 0


def _fmt(q) -> str:
    q1, med, q3 = q
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
