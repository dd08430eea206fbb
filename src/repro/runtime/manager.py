"""The AdaPEx Runtime Manager.

Selection policy from the paper (Sec. IV-B): given the user's accuracy
threshold (a maximum accuracy loss relative to the best model in the
Library) and the sampled incoming workload (IPS), keep only entries whose
accuracy is above the bound *and* whose throughput covers the workload,
then pick the one with the highest accuracy. Changing the confidence
threshold is free; changing the pruning rate means reconfiguring the FPGA.

Two practical refinements the paper implies:

* when no entry can carry the workload, the manager degrades gracefully
  to the fastest entry above the accuracy bound (the alternative is
  uncontrolled frame loss);
* ties on accuracy prefer (1) the currently loaded accelerator (avoids a
  145 ms reconfiguration) and (2) lower energy per inference.

With a partial-reconfiguration cost model installed
(:meth:`RuntimeManager.set_reconfig_model`), the binary stay-put bonus
generalizes to a graded one: accuracy ties break by the actual switch
dead time (0 for the loaded accelerator, the per-region partial cost for
the rest), then energy.

The manager answers through a compiled O(1) lookup table
(:mod:`repro.runtime.policytable`), built on the first query and rebuilt
on the first query after the library, the policy or the cost model
changes. The table is exactly equivalent to the throughput-sorted index
(:class:`_SelectionIndex`), which still answers every query the table
cannot prove it tabulated: off-grid workloads, cells with a breakpoint
inside, unknown ``current`` entries and accuracy floors that were not
precompiled.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .library import AcceleratorId, Library, LibraryEntry

__all__ = ["SelectionPolicy", "RuntimeManager"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionPolicy:
    """Tunable knobs of the selection."""

    accuracy_loss_threshold: float = 0.10  # paper default: 10 %
    headroom: float = 1.0  # required serving capacity = workload * headroom

    def __post_init__(self):
        if not 0.0 <= self.accuracy_loss_threshold <= 1.0:
            raise ValueError("accuracy_loss_threshold must be in [0, 1]")
        if self.headroom <= 0:
            raise ValueError("headroom must be positive")


class _SelectionIndex:
    """Precomputed search structure behind :meth:`RuntimeManager.select`.

    ``select`` runs every decision tick of every simulated run, and a
    linear rescan of the library per tick dominated selection cost.
    This index makes a query a ``searchsorted`` plus a scan of one
    accuracy-tie group:

    * accuracy-qualified entries sorted by ``serving_ips`` (stable, so
      library order is preserved within equal throughput) — feasibility
      for a required rate is the suffix starting at the binary-search
      position;
    * the suffix maximum of rounded accuracy — the winning accuracy
      level of any suffix in O(1);
    * slots grouped by rounded accuracy — only the (typically tiny)
      group at the winning level is scanned for the stability/energy
      tie-break, reproducing ``max(candidates, key=...)`` exactly,
      including its first-maximal-in-library-order behaviour;
    * precomputed tie lists for both degraded-mode pools (accuracy-ok
      and whole-library).

    Instances are immutable snapshots; :meth:`RuntimeManager._index`
    rebuilds one when ``Library._version`` moves.
    """

    def __init__(self, library: Library, min_accuracy: float):
        self.version = library._version
        self.size = len(library.entries)
        self.min_accuracy = min_accuracy
        entries = library.entries
        order = sorted(
            (i for i, e in enumerate(entries)
             if e.accuracy >= min_accuracy),
            key=lambda i: entries[i].serving_ips)
        self.entries = entries
        self.order = order
        self.ips = np.array([entries[i].serving_ips for i in order],
                            dtype=np.float64)
        acc_r = [round(entries[i].accuracy, 6) for i in order]
        self.acc_r = acc_r
        suffix = [0.0] * len(acc_r)
        best = float("-inf")
        for k in range(len(acc_r) - 1, -1, -1):
            if acc_r[k] > best:
                best = acc_r[k]
            suffix[k] = best
        self.suffix_max_acc = suffix
        groups: dict[float, list[int]] = {}
        for k, a in enumerate(acc_r):
            groups.setdefault(a, []).append(k)
        self.groups = groups
        acc_ok = [e for e in entries if e.accuracy >= min_accuracy]
        self.degraded_acc_ok = self._degraded_ties(acc_ok)
        self.degraded_all = self._degraded_ties(entries)

    @staticmethod
    def _degraded_ties(pool: list) -> list:
        """Entries achieving the pool's best (serving_ips, accuracy), in
        library order — the only possible winners of degraded-mode
        selection (the stability bonus just arbitrates between them)."""
        if not pool:
            return []
        best = max((e.serving_ips, e.accuracy) for e in pool)
        return [e for e in pool
                if (e.serving_ips, e.accuracy) == best]


class RuntimeManager:
    """Selects Library entries to match the current edge conditions."""

    def __init__(self, library: Library,
                 policy: SelectionPolicy | None = None,
                 reconfig_model=None):
        if len(library) == 0:
            raise ValueError("cannot manage an empty library")
        self.library = library
        self.policy = policy or SelectionPolicy()
        # Optional switch-cost model (PartialReconfigModel duck type:
        # ``switch_time_s(current, target)``). When set, accuracy ties
        # break by *graded* switch cost instead of the binary
        # same-accelerator stability bonus.
        self.reconfig_model = reconfig_model
        self._reference_accuracy = library.best_accuracy()
        self._selection_index: _SelectionIndex | None = None
        self._floor_indexes: dict[float, _SelectionIndex] = {}
        self._policy_table = None  # built on first use, see policy_table()
        # (cells, extra accuracy levels) of the last compile, empty for
        # the defaults: a stale table is rebuilt with the same floors.
        self._table_spec = ()
        self._no_reconfig_cache: dict[AcceleratorId, LibraryEntry | None] = {}
        # A partial library (design points quarantined by the sweep
        # supervisor) is servable — selection simply runs over the
        # entries that exist — but the gaps deserve a visible record.
        gaps = library.metadata.get("quarantined") or []
        if gaps:
            labels = ", ".join(
                f"{g.get('variant', '?')}@{g.get('rate', '?')}"
                for g in gaps)
            log.warning(
                "library is partial: %d design point(s) quarantined at "
                "generation time (%s); selecting over the %d entries "
                "that exist", len(gaps), labels, len(library))

    @property
    def min_accuracy(self) -> float:
        """Lowest acceptable accuracy (reference minus allowed loss)."""
        return self._reference_accuracy - self.policy.accuracy_loss_threshold

    def _index(self) -> _SelectionIndex:
        """The current selection index, rebuilt if the library changed
        (detected via ``Library._version``) or the accuracy floor moved
        (a replaced ``policy``); also invalidates the
        :meth:`select_without_reconfig` memo on rebuild."""
        idx = self._selection_index
        lib = self.library
        if idx is None or idx.version != lib._version \
                or idx.size != len(lib.entries) \
                or idx.min_accuracy != self.min_accuracy:
            idx = _SelectionIndex(lib, self.min_accuracy)
            self._selection_index = idx
            self._no_reconfig_cache.clear()
        return idx

    def set_reconfig_model(self, model) -> None:
        """Install (or clear, with ``None``) the switch-cost model.

        Drops the compiled policy table (and its installed fast-select
        closure): the tabulated tie-breaks were computed against the
        previous cost calculus. The next query recompiles it.
        """
        self.reconfig_model = model
        self._policy_table = None
        self.__dict__.pop("select", None)

    def compile_policy_table(self, cells: int = 4096,
                             extra_accuracy_levels=()):
        """Compile selection into an O(1) lookup table now.

        :meth:`select` compiles the table itself on first use; call this
        to pay the compile up front or to precompile extra accuracy
        floors. Quantizes the workload axis onto a ``cells``-cell grid
        and tabulates the winning entry at every (grid cell, loaded
        accelerator) point — :meth:`select` then answers with one array
        lookup instead of a searchsorted plus tie-break scan, falling
        back to the index for off-grid or grid-edge queries.
        ``extra_accuracy_levels`` precompiles additional min-accuracy
        floors for :meth:`select_at` (brownout ladders); a stale table
        is rebuilt with the same ``cells`` and floors.
        """
        from .policytable import PolicyTable
        table = PolicyTable(
            self, cells=cells,
            extra_accuracy_levels=tuple(extra_accuracy_levels))
        self._policy_table = table
        self._table_spec = (cells, tuple(extra_accuracy_levels))
        # Install the closure form as the per-instance ``select`` —
        # unless a subclass overrides select (e.g. one pinned to a fixed
        # entry), where shadowing the override would change its semantics.
        if type(self).select is RuntimeManager.select:
            self.select = table.install_fast_select(self)
        return table

    def policy_table(self):
        """The compiled policy table, (re)built when absent or stale:
        the library changed (``Library._version`` or size), the policy
        was replaced, or :meth:`set_reconfig_model` dropped it."""
        table = self._policy_table
        lib = self.library
        if table is None or table.version != lib._version \
                or table.size != len(lib.entries) \
                or table.policy is not self.policy:
            table = self.compile_policy_table(*self._table_spec)
        return table

    def select(self, workload_ips: float,
               current: LibraryEntry | None = None) -> LibraryEntry:
        """Pick the entry for the sampled workload.

        ``current`` is the currently deployed entry (used to break ties in
        favour of avoiding a reconfiguration).

        Equivalent to filtering ``library.entries`` for accuracy at
        least ``min_accuracy`` and throughput at least ``required``,
        then taking ``max`` by ``(rounded accuracy, stability,
        -energy)`` — with degraded-mode fallback to the fastest
        accuracy-honouring entry when nothing covers the workload — but
        answered from the compiled policy table in O(1), or from the
        throughput-sorted index in O(log n) plus a scan of the winning
        accuracy-tie group where the table defers.
        """
        if workload_ips < 0:
            raise ValueError("workload must be >= 0")
        hit = self.policy_table().lookup(workload_ips, current)
        if hit is not None:
            return hit
        # off-grid / unsafe-cell query: answer from the index
        return self._select_indexed(self._index(), workload_ips, current)

    def _select_indexed(self, idx: _SelectionIndex, workload_ips: float,
                        current: LibraryEntry | None) -> LibraryEntry:
        """The searchsorted-plus-tie-group scan behind :meth:`select`,
        parameterized over the index (and thus the accuracy floor) so
        :meth:`select_at` shares the exact decision function."""
        required = workload_ips * self.policy.headroom
        pos = int(idx.ips.searchsorted(required, side="left"))
        cur_accel = current.accelerator if current is not None else None
        model = self.reconfig_model
        if pos >= len(idx.order):
            # Degraded mode: fastest entry that still honours accuracy.
            ties = idx.degraded_acc_ok or idx.degraded_all
            if cur_accel is not None:
                if model is None:
                    for e in ties:
                        if e.accelerator == cur_accel:
                            return e
                else:
                    # Graded cost: the cheapest switch wins, ties to the
                    # earliest tie-list (= library-order) candidate.
                    best = None
                    for e in ties:
                        c = model.switch_time_s(cur_accel, e.accelerator)
                        if best is None or c < best[0]:
                            best = (c, e)
                    return best[1]
            return ties[0]
        # Feasible set = sorted slots [pos:]; the winner carries the
        # suffix's best rounded accuracy, so only that tie group needs
        # the (switch-cost, energy, library-order) tie-break.
        group = idx.groups[idx.suffix_max_acc[pos]]
        start = bisect_left(group, pos)
        if model is not None and cur_accel is not None:
            # Graded switch cost generalizes the stability bonus: a
            # same-accelerator candidate costs 0, others cost their
            # partial-reconfiguration time.
            best = None
            for k in group[start:]:
                lib_i = idx.order[k]
                e = idx.entries[lib_i]
                key = (-model.switch_time_s(cur_accel, e.accelerator),
                       -e.energy_per_inference_j, -lib_i)
                if best is None or key > best[0]:
                    best = (key, e)
            return best[1]
        best_bonus = None
        best_plain = None
        for k in group[start:]:
            lib_i = idx.order[k]
            e = idx.entries[lib_i]
            # max key, ties to the smallest library index — exactly the
            # first-maximal element Python's max() would return when
            # iterating candidates in library order.
            key = (-e.energy_per_inference_j, -lib_i)
            if best_plain is None or key > best_plain[0]:
                best_plain = (key, e)
            if cur_accel is not None and e.accelerator == cur_accel:
                if best_bonus is None or key > best_bonus[0]:
                    best_bonus = (key, e)
        return (best_bonus or best_plain)[1]

    def _index_at(self, min_accuracy: float) -> _SelectionIndex:
        """A selection index for an explicit accuracy floor, cached per
        floor and invalidated on library mutation (same discipline as
        :meth:`_index`)."""
        if min_accuracy == self.min_accuracy:
            return self._index()
        lib = self.library
        idx = self._floor_indexes.get(min_accuracy)
        if idx is None or idx.version != lib._version \
                or idx.size != len(lib.entries):
            idx = _SelectionIndex(lib, min_accuracy)
            self._floor_indexes[min_accuracy] = idx
        return idx

    def select_at(self, min_accuracy: float, workload_ips: float,
                  current: LibraryEntry | None = None) -> LibraryEntry:
        """:meth:`select` against an explicit accuracy floor.

        The brownout degradation ladder (``ServerConfig.brownout_levels``)
        steps a server's floor down under queue pressure without mutating
        the shared policy — mutation would leak one server's pressure
        into every other server of its SLO tier and break worker-count
        invariance. A floor equal to :attr:`min_accuracy` answers through
        :meth:`select` (including any installed fast-select closure);
        other floors answer from the compiled table's extra accuracy
        levels when precompiled (:meth:`PolicyTable.lookup_at
        <repro.runtime.policytable.PolicyTable.lookup_at>`), else from a
        per-floor cached index — both exactly equivalent to rebuilding
        the manager with the shifted policy.
        """
        if workload_ips < 0:
            raise ValueError("workload must be >= 0")
        if min_accuracy == self.min_accuracy:
            return self.select(workload_ips, current)
        hit = self.policy_table().lookup_at(min_accuracy, workload_ips,
                                            current)
        if hit is not None:
            return hit
        return self._select_indexed(self._index_at(min_accuracy),
                                    workload_ips, current)

    def select_without_reconfig(self, current: LibraryEntry | None):
        """Best entry reachable without swapping the loaded bitstream.

        Graceful degradation after repeated reconfiguration failures:
        only the confidence threshold can still move (a free host-side
        change), so pick the highest-accuracy entry on ``current``'s
        accelerator that honours the accuracy floor — or the most
        accurate one at all if none does. Returns ``None`` when there is
        no deployed accelerator to stay on.
        """
        if current is None:
            return None
        self._index()  # refresh the memo against library changes
        accel = current.accelerator
        try:
            return self._no_reconfig_cache[accel]
        except KeyError:
            pass
        pool = [e for e in self.library if e.accelerator == accel]
        if not pool:
            result = None
        else:
            acc_ok = [e for e in pool if e.accuracy >= self.min_accuracy]
            result = max(acc_ok or pool, key=lambda e: e.accuracy)
        self._no_reconfig_cache[accel] = result
        return result

    @staticmethod
    def _stability_bonus(entry: LibraryEntry,
                         current: LibraryEntry | None) -> int:
        if current is not None and entry.accelerator == current.accelerator:
            return 1
        return 0

    def requires_reconfiguration(self, current: LibraryEntry | None,
                                 selected: LibraryEntry) -> bool:
        """True when moving to ``selected`` swaps the loaded bitstream."""
        if current is None:
            return True
        return current.accelerator != selected.accelerator

    def operating_points(self) -> list[AcceleratorId]:
        return self.library.accelerators()
