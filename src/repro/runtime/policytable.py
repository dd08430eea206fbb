"""Compiled O(1) policy lookup tables for the Runtime Manager.

The Runtime Manager's selection index is exact but still computes each
decision tick: a ``searchsorted`` over the throughput-sorted entries
plus a tie-break scan. For a *frozen* Library the decision is a pure
function of (workload, loaded accelerator, accuracy floor), and the
workload enters only through ``pos = searchsorted(ips, workload *
headroom)`` — a monotone step function with at most ``len(index)``
breakpoints. This module compiles that function onto a uniform
workload grid:

* the cell width is a **power of two**, so ``workload / h`` (computed
  as ``workload * (1/h)``) is an exact float operation and
  ``int(workload * inv)`` lands every workload in exactly the cell that
  contains it — no rounding guards on the hot path;
* a cell is *safe* exactly when ``pos`` agrees at both of its edges
  (multiplying by a positive headroom and ``searchsorted`` are both
  monotone, so edge agreement proves constancy inside); unsafe cells —
  at most one per distinct serving-IPS value — defer to the index;
* for every reachable ``pos`` (plus the degraded-mode row beyond the
  fastest entry) the winning entry is tabulated per *slot* — one slot
  per library accelerator plus a "nothing loaded" slot — reproducing
  the full tie-break semantics: rounded-accuracy groups, the stability
  bonus (or the graded partial-reconfiguration switch cost when a
  model is installed), energy, and library order. One walk down the
  positions builds every row (each slot's winner only ever improves as
  ``pos`` falls), and graded costs come from one accelerator x
  accelerator matrix per compile, so a compile costs O(positions x
  slots) plus A² ``switch_time_s`` calls.

Exactness is preserved the same way :mod:`repro.edge.fastsim` preserves
it against the event loop: whenever the table cannot *prove* it gives
the indexed answer — an unsafe cell, a NaN workload, an unknown
``current`` entry — the lookup falls through to the index path.
Every :class:`RuntimeManager` selects through its table: the first
query compiles it, and staleness — detected via ``Library._version``
(plus entry count and policy identity) or a new reconfiguration cost
model — makes the next query recompile, so library mutations
mid-campaign stay correct.

Each compile (:meth:`RuntimeManager.compile_policy_table`) also
*installs* the compiled decision as a per-instance ``select`` closure
over plain Python lists (see :meth:`PolicyTable.install_fast_select`),
which is what makes a table-backed selection a genuine single array
lookup. Tables are cheap to share: compiling once and reusing across
thousands of simulated edge servers is the point (see ROADMAP's
fleet-scale sharding item).
"""

from __future__ import annotations

import math

import numpy as np

from .manager import RuntimeManager, _SelectionIndex

__all__ = ["PolicyTable"]


def _switch_costs(model, accels: list) -> list | None:
    """``costs[i][j] = model.switch_time_s(accels[i], accels[j])``.

    One matrix per compile: ``switch_time_s`` is a pure function of
    (current, target) for a fixed model, and a model change drops the
    table (:meth:`RuntimeManager.set_reconfig_model`), so every winner
    row and degraded row reads its switch costs from here.
    """
    if model is None:
        return None
    return [[model.switch_time_s(a, b) for b in accels] for a in accels]


def _winner_rows(idx: _SelectionIndex, entry_slot: list, nacc: int,
                 costs) -> list:
    """Winning entry at every ``pos`` for the no-current slot then each
    accelerator slot, mirroring ``RuntimeManager.select`` exactly.

    The feasible tie group at ``pos`` is the members ``>= pos`` of the
    rounded-accuracy group ``suffix_max_acc[pos]``. Walking ``pos``
    down, that group is unchanged (``pos`` is less accurate), gains
    ``pos`` (equally accurate) or is replaced by ``{pos}`` (more
    accurate), so each slot's winner is a running maximum: adding a
    member can only raise it. Rows are rebuilt only at a group change,
    and unchanged positions share the previous row object.
    """
    m = len(idx.order)
    rows = [None] * m
    row = None
    level = None
    for pos in range(m - 1, -1, -1):
        acc = idx.acc_r[pos]
        if acc != idx.suffix_max_acc[pos]:
            rows[pos] = row  # below the winning accuracy: no change
            continue
        lib_i = idx.order[pos]
        e = idx.entries[lib_i]
        key = (-e.energy_per_inference_j, -lib_i)
        j = entry_slot[lib_i]
        if acc != level:
            # A more accurate group replaces the old one.
            level = acc
            plain_key, plain = key, e
            rep_key = [None] * nacc  # best member key per accelerator
            rep = [None] * nacc
            rep_key[j], rep[j] = key, e
            if costs is not None:
                # best (-cost, key) per loaded-accelerator slot
                best_nc = [-c[j] for c in costs]
                best_key = [key] * nacc
                win = [e] * nacc
        else:
            if key > plain_key:
                plain_key, plain = key, e
            if rep_key[j] is not None and key < rep_key[j]:
                rows[pos] = row  # beaten by its accelerator's best
                continue
            rep_key[j], rep[j] = key, e
            if costs is not None:
                # Slot s compares (-cost(s, j), key): a member that is
                # its accelerator's best may win any slot.
                for s, c in enumerate(costs):
                    nc = -c[j]
                    b = best_nc[s]
                    if nc > b or (nc == b and key > best_key[s]):
                        best_nc[s], best_key[s], win[s] = nc, key, e
        # Slot 0: nothing loaded. Without a model the bonus never fires;
        # with one, the switch cost from None is the full bitstream load
        # for every candidate — constant, so the plain winner is exact.
        if costs is None:
            row = [plain] + [r if r is not None else plain for r in rep]
        else:
            row = [plain] + win
        rows[pos] = row
    return rows


def _degraded_row(idx: _SelectionIndex, accels: list, slot_of: dict,
                  costs) -> list:
    """Degraded-mode winners (workload beyond every qualified entry)."""
    ties = idx.degraded_acc_ok or idx.degraded_all
    row = [ties[0]]
    for s, a in enumerate(accels):
        if costs is None:
            pick = ties[0]
            for e in ties:
                if e.accelerator == a:
                    pick = e
                    break
            row.append(pick)
        else:
            best = None
            for e in ties:
                c = costs[s][slot_of[e.accelerator]]
                if best is None or c < best[0]:
                    best = (c, e)
            row.append(best[1])
    return row


class _Level:
    """One compiled accuracy level: exact grid + winner rows."""

    __slots__ = ("m", "ncells", "wtop", "inv", "cell_pos", "posrows",
                 "unsafe")

    def __init__(self, idx: _SelectionIndex, accels: list, slot_of: dict,
                 entry_slot: list, costs, headroom: float, cells: int):
        m = len(idx.order)
        self.m = m
        # posrows[p][slot] = winner at searchsorted position p; the
        # degraded-mode row sits at p == m.
        posrows = _winner_rows(idx, entry_slot, len(accels), costs)
        posrows.append(_degraded_row(idx, accels, slot_of, costs))
        self.posrows = posrows
        if m == 0:
            # Nothing qualifies: every workload is degraded-mode.
            self.ncells, self.wtop, self.inv = 0, 0.0, 0.0
            self.cell_pos, self.unsafe = [], 0
            return
        # Grid top: any workload >= wtop must be degraded (pos == m),
        # i.e. wtop * headroom must exceed the fastest qualified entry.
        # The cell width h is a power of two, so j*h, wtop = ncells*h
        # and workload*(1/h) are all exact float arithmetic: a lookup
        # provably lands in the cell containing its workload.
        top_ips = float(idx.ips[-1])
        span = top_ips / headroom * 1.125 + 1.0
        h = 2.0 ** math.ceil(math.log2(span / cells))
        ncells = int(math.ceil(span / h))
        wtop = ncells * h
        while int(idx.ips.searchsorted(wtop * headroom,
                                       side="left")) < m:
            ncells += 1  # float-safety net; never taken in practice
            wtop = ncells * h
        # pos at every edge, under the same float ops select() performs
        # (multiply by headroom, then searchsorted side="left").
        edges = np.arange(ncells + 1, dtype=np.float64) * h
        ps = idx.ips.searchsorted(edges * headroom, side="left")
        safe = ps[:-1] == ps[1:]
        self.ncells = ncells
        self.wtop = wtop
        self.inv = 1.0 / h  # exact: h is a power of two
        self.cell_pos = np.where(safe, ps[:-1], -1).tolist()
        self.unsafe = ncells - int(np.count_nonzero(safe))

    def lookup_slot(self, workload_ips: float, slot: int):
        """Winner for a slot, or ``None`` = defer to the index."""
        if workload_ips >= self.wtop:
            return self.posrows[self.m][slot]
        if not workload_ips >= 0.0:
            return None  # negative or NaN: the index path handles it
        pos = self.cell_pos[int(workload_ips * self.inv)]
        if pos < 0:
            return None  # unsafe cell: a pos breakpoint inside
        return self.posrows[pos][slot]


class PolicyTable:
    """The compiled decision function of one :class:`RuntimeManager`.

    Built by :meth:`RuntimeManager.compile_policy_table`, which the
    manager calls on its first query. ``lookup``
    answers a query in O(1) or returns ``None`` when falling back to
    the index is required for exactness (see module docstring);
    ``install_fast_select`` returns the flattened closure form of the
    same function.
    """

    def __init__(self, manager: RuntimeManager, cells: int,
                 extra_accuracy_levels: tuple = ()):
        if cells < 1:
            raise ValueError("cells must be >= 1")
        lib = manager.library
        self.policy = manager.policy
        self.version = lib._version
        self.size = len(lib.entries)
        self.cells = cells
        self.extra_accuracy_levels = tuple(extra_accuracy_levels)
        model = manager.reconfig_model
        self._graded = model is not None
        accels = lib.accelerators()
        # Accelerators interned to 0-based indices (table slot - 1).
        slot_of = {a: i for i, a in enumerate(accels)}
        self._slot = {a: i + 1 for a, i in slot_of.items()}
        entry_slot = [slot_of[e.accelerator] for e in lib.entries]
        self._stride = len(accels) + 1
        costs = _switch_costs(model, accels)
        headroom = self.policy.headroom
        primary = manager.min_accuracy
        self._levels: dict = {}
        for floor in dict.fromkeys((primary, *self.extra_accuracy_levels)):
            idx = manager._index() if floor == primary \
                else _SelectionIndex(lib, floor)
            self._levels[floor] = _Level(idx, accels, slot_of, entry_slot,
                                         costs, headroom, cells)
        active = self._levels[primary]
        self._active = active
        # Expanded per-entry cell rows for the fast-select closure:
        # row[cell] = winner (None = unsafe), row[-1] = degraded winner.
        # Slots whose winner column is identical share one row, so the
        # expansion is small for the common case of few tie groups.
        lvl = active
        by_sig: dict = {}
        slot_rows = []
        for s in range(self._stride):
            col = [r[s] for r in lvl.posrows]
            sig = tuple(map(id, col))
            row = by_sig.get(sig)
            if row is None:
                # An unsafe cell's position -1 reads the trailing None.
                row = list(map((col + [None]).__getitem__, lvl.cell_pos))
                row.append(col[lvl.m])  # degraded at row[-1]
                by_sig[sig] = row
            slot_rows.append(row)
        # Library entries are the usual ``current`` values: an id-keyed
        # row map skips hashing AcceleratorId per query. Entries are
        # kept alive by the winner rows / library, so ids are stable for
        # the table's lifetime (a stale table is never consulted).
        rows = {id(None): slot_rows[0]}
        for e, j in zip(lib.entries, entry_slot):
            rows[id(e)] = slot_rows[j + 1]
        self._rows = rows
        self._shared_rows = len(by_sig)

    def lookup(self, workload_ips: float, current=None):
        """The tabulated selection, or ``None`` = ask the index."""
        if current is None:
            slot = 0
        else:
            slot = self._slot.get(current.accelerator)
            if slot is None:
                if self._graded:
                    return None  # unknown accel: graded cost unknown
                slot = 0  # binary bonus can never fire: plain winner
        return self._active.lookup_slot(workload_ips, slot)

    def lookup_at(self, min_accuracy: float, workload_ips: float,
                  current=None):
        """Lookup against a precompiled extra accuracy level.

        Returns ``None`` when the level was not compiled or the query
        needs the index (callers keep an index path for exactness).
        """
        lvl = self._levels.get(min_accuracy)
        if lvl is None:
            return None
        if current is None:
            slot = 0
        else:
            slot = self._slot.get(current.accelerator)
            if slot is None:
                if self._graded:
                    return None
                slot = 0
        return lvl.lookup_slot(workload_ips, slot)

    def install_fast_select(self, manager: RuntimeManager):
        """Build the flattened closure form of this table's decision.

        The closure shadows ``manager.select`` (the caller assigns it):
        one dict probe on ``id(current)`` plus one list index answer the
        query; anything it cannot prove — staleness, unknown ``current``,
        an unsafe cell, a degenerate workload — defers to the unbound
        :meth:`RuntimeManager.select`, which recompiles or falls back to
        the index as needed.
        """
        lib = manager.library
        version = self.version
        size = self.size
        policy = self.policy
        wtop = self._active.wtop
        inv = self._active.inv
        rows = self._rows
        slow = RuntimeManager.select
        _id, _int, _len = id, int, len

        def fast_select(workload_ips, current=None):
            if lib._version != version or policy is not manager.policy \
                    or _len(lib.entries) != size:
                return slow(manager, workload_ips, current)
            row = rows.get(_id(current))
            if row is None:
                return slow(manager, workload_ips, current)
            if workload_ips >= wtop:
                return row[-1]
            if not workload_ips >= 0.0:
                return slow(manager, workload_ips, current)
            e = row[_int(workload_ips * inv)]
            if e is None:
                return slow(manager, workload_ips, current)
            return e

        return fast_select

    def stats(self) -> dict:
        """Compile-time shape facts (for benchmarks and debugging)."""
        return {
            "cells": self.cells,
            "grid_cells": self._active.ncells,
            "levels": len(self._levels),
            "slots": self._stride,
            "entries": self.size,
            "positions": self._active.m + 1,
            "shared_rows": self._shared_rows,
            "unsafe_cells": {f"{floor:.6f}": lvl.unsafe
                             for floor, lvl in self._levels.items()},
            "graded_cost_model": self._graded,
        }
