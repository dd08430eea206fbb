"""Correlated fleet-level fault model.

PR 2's :mod:`repro.runtime.faults` injects *independent* per-server
faults (reconfiguration failures, transient inference errors, frame
drops). Real fleet outages are correlated: a rack loses power and every
server in it dies at the same instant, and the router's failover then
slams the survivors with the dead servers' re-routed streams all at once
(a thundering herd). This module models exactly those two correlations:

* :class:`FleetFaultSpec` — declarative: how many racks die, when, how
  long the router takes to re-route, whether the outage backlog is
  replayed as a burst (``herd=True``) or cleanly dropped, and an
  optional per-server :class:`~repro.runtime.faults.FaultSpec` preset
  overlaid on every server of the fleet.
* :class:`FleetFaultPlan` — one seeded realization: *which* racks die
  and *when*. Rack choice and kill times draw from independent PCG64
  streams (same discipline as ``FaultPlan``), so two plans built from
  the same ``(spec, seed)`` agree forever and campaigns stay
  byte-reproducible.

The cluster simulator (:mod:`repro.fleet.cluster`) realizes the plan in
the *parent* process — before any shard is dispatched — so worker count
never changes which servers die.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.spec import check_finite, parse_spec
from ..runtime.faults import FAULT_PRESETS, FaultSpec, _category_rng

__all__ = ["FleetFaultSpec", "FleetFaultPlan", "FLEET_FAULT_PRESETS",
           "transfer_stream"]


def transfer_stream(arrivals, cut_s: float, rejoin_s: float,
                    horizon_s: float, *, replay: bool = True):
    """Split one arrival stream at ``cut_s`` and transfer the tail.

    The single backlog transform behind every stream hand-off in the
    fleet: unplanned failover (``cut`` = kill instant, ``rejoin`` = kill
    + reroute delay) and planned live migration (``cut`` = migration
    decision tick, ``rejoin`` = tick + handoff window) are the same
    arithmetic with different parameters. Returns ``(head, moved,
    delayed, dropped)``:

    * ``head`` — frames before ``cut_s`` (stay with the source server);
    * ``moved`` — the tail as it lands on the destination: with
      ``replay=True`` the frames in ``[cut_s, rejoin_s)`` are clamped to
      the rejoin instant (the herd-replay burst, ``delayed`` counts
      them, nothing drops); with ``replay=False`` those frames are
      ``dropped`` and only the post-rejoin stream moves;
    * a ``rejoin_s`` at/past the horizon drops the whole tail (the
      hand-off outlasts the campaign).

    Planned migrations always use ``replay=True`` with a short hand-off
    and a rejoin inside the horizon, so they conserve every request:
    ``len(head) + len(moved) == len(arrivals)`` and ``dropped == 0``.
    Float operations are exactly the PR 7 failover path's
    (``searchsorted`` cuts, ``copy`` + clamp), so legacy campaigns stay
    byte-identical through this refactor.
    """
    cut = int(np.searchsorted(arrivals, cut_s, side="left"))
    head = arrivals[:cut]
    tail = arrivals[cut:]
    if not len(tail):
        return head, tail, 0, 0
    if rejoin_s >= horizon_s:
        return head, tail[:0], 0, len(tail)
    late = int(np.searchsorted(tail, rejoin_s, side="left"))
    if replay:
        moved = tail.copy()
        moved[:late] = rejoin_s
        return head, moved, late, 0
    return head, tail[late:], 0, late


@dataclass(frozen=True)
class FleetFaultSpec:
    """Declarative correlated-fault model for one fleet campaign.

    ``racks_lost`` racks (server groups of ``FleetConfig.rack_size``)
    die mid-campaign, each at ``kill_time_s`` — or, when ``None``, at an
    independently drawn instant in the middle 40 % of the run.
    Tenants stranded on dead servers re-route after ``reroute_delay_s``;
    with ``herd=True`` their outage-window backlog arrives at the new
    server as one burst at the rejoin instant, with ``herd=False`` it is
    counted as failover-dropped and only the post-rejoin stream moves.
    ``server_preset`` names a per-server fault preset
    (:data:`~repro.runtime.faults.FAULT_PRESETS`) overlaid on every
    server, dead or alive.
    """

    racks_lost: int = 0
    kill_time_s: float | None = None
    reroute_delay_s: float = 0.5
    herd: bool = True
    server_preset: str = ""

    def __post_init__(self):
        check_finite(self)
        if self.racks_lost < 0:
            raise ValueError("racks_lost must be >= 0")
        if self.kill_time_s is not None and self.kill_time_s <= 0:
            raise ValueError("kill_time_s must be positive (or None)")
        if self.reroute_delay_s < 0:
            raise ValueError("reroute_delay_s must be >= 0")
        if self.server_preset and self.server_preset not in FAULT_PRESETS:
            raise ValueError(
                f"unknown per-server preset {self.server_preset!r}; "
                f"options: {sorted(FAULT_PRESETS)}")

    @property
    def any_faults(self) -> bool:
        return self.racks_lost > 0 or bool(self.server_preset)

    @property
    def server_faults(self) -> FaultSpec | None:
        """The per-server overlay spec, or ``None`` when not configured."""
        if not self.server_preset:
            return None
        return FAULT_PRESETS[self.server_preset]

    @classmethod
    def parse(cls, text: str) -> "FleetFaultSpec":
        """Build a spec from a CLI string in the grammar of
        :mod:`repro.core.spec`: a preset name (``rack-loss``/
        ``thundering-herd``/``fleet-chaos``), ``key=value`` overrides,
        or a preset followed by overrides: ``"rack-loss,racks_lost=2"``.
        """
        return parse_spec(cls, text, FLEET_FAULT_PRESETS, "fleet fault")

    def plan(self, seed=0) -> "FleetFaultPlan":
        return FleetFaultPlan(self, seed)


#: Named correlated-failure campaigns for the CLI (``--fleet-faults``).
FLEET_FAULT_PRESETS = {
    # One rack browns out; its streams are cleanly failed over (the
    # outage backlog is lost, the live stream resumes on survivors).
    "rack-loss": FleetFaultSpec(racks_lost=1, herd=False),
    # One rack dies and the router replays the whole outage backlog at
    # the survivors as a single burst — the classic thundering herd.
    "thundering-herd": FleetFaultSpec(racks_lost=1, herd=True,
                                      reroute_delay_s=1.0),
    # Two racks die while every server also runs the heavy per-server
    # fault overlay (reconfig failures, inference errors, spikes).
    "fleet-chaos": FleetFaultSpec(racks_lost=2, herd=True,
                                  server_preset="heavy"),
}


class FleetFaultPlan:
    """One seeded, deterministic realization of a :class:`FleetFaultSpec`.

    Fault categories use streams 100+ so a fleet plan never collides
    with the per-server categories 0-3 of
    :class:`~repro.runtime.faults.FaultPlan` even under equal seeds.
    """

    def __init__(self, spec: FleetFaultSpec, seed=0):
        self.spec = spec
        self.seed = seed
        self._rack_rng = _category_rng(seed, 100)
        self._time_rng = _category_rng(seed, 101)

    def realize(self, num_racks: int, duration_s: float) -> dict:
        """Map of ``rack -> kill_time_s`` for this campaign.

        At most ``num_racks`` racks die; kill times are clamped into the
        run. Iteration order is ascending rack id (sorted), so consumers
        accumulate in a deterministic order.
        """
        s = self.spec
        if s.racks_lost <= 0 or num_racks <= 0:
            return {}
        k = min(s.racks_lost, num_racks)
        racks = sorted(int(r) for r in
                       self._rack_rng.choice(num_racks, size=k,
                                             replace=False))
        killed = {}
        for rack in racks:
            if s.kill_time_s is not None:
                t = float(s.kill_time_s)
            else:
                t = float(self._time_rng.uniform(0.3, 0.7)) * duration_s
            killed[rack] = min(t, duration_s)
        return killed
