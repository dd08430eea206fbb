"""Reference selection paths the compiled policy table is checked against.

Every :class:`~repro.runtime.RuntimeManager` answers through its compiled
policy table, so a plain manager cannot stand in for the index side of
an equivalence check: it would compare the table with itself.
:class:`IndexOnlyManager` answers every query from the throughput-sorted
index, and :func:`linear_select` is the original linear rescan of the
library. The tests under ``tests/runtime`` and the benchmark scripts
under ``scripts/`` (``bench_policy.py``, ``bench_serving.py``,
``perf_smoke.py``) compare against these.
"""

from __future__ import annotations

from repro.runtime.manager import RuntimeManager

__all__ = ["IndexOnlyManager", "linear_select"]


class IndexOnlyManager(RuntimeManager):
    """A Runtime Manager that never consults a policy table.

    Overriding ``select`` also keeps :meth:`compile_policy_table` from
    installing its fast-select closure on the instance.
    """

    def select(self, workload_ips, current=None):
        if workload_ips < 0:
            raise ValueError("workload must be >= 0")
        return self._select_indexed(self._index(), workload_ips, current)

    def select_at(self, min_accuracy, workload_ips, current=None):
        if workload_ips < 0:
            raise ValueError("workload must be >= 0")
        return self._select_indexed(self._index_at(min_accuracy),
                                    workload_ips, current)


def linear_select(mgr, workload_ips, current=None, min_accuracy=None):
    """The pre-index selection algorithm (linear feasible rescan), at
    ``mgr.min_accuracy`` or an explicit floor (binary stability bonus
    only: ``mgr.reconfig_model`` is ignored).

    The feasible scan is inlined (rather than calling the deprecated
    ``Library.feasible``) so the reference stays warning-free."""
    floor = mgr.min_accuracy if min_accuracy is None else min_accuracy
    required = workload_ips * mgr.policy.headroom
    candidates = [e for e in mgr.library.entries
                  if e.accuracy >= floor
                  and e.serving_ips >= required]
    if not candidates:
        acc_ok = [e for e in mgr.library if e.accuracy >= floor]
        pool = acc_ok or list(mgr.library)
        return max(pool, key=lambda e: (
            e.serving_ips, e.accuracy, mgr._stability_bonus(e, current)))
    return max(candidates, key=lambda e: (
        round(e.accuracy, 6),
        mgr._stability_bonus(e, current),
        -e.energy_per_inference_j))
