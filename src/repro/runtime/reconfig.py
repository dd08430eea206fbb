"""FPGA reconfiguration controller and switch-cost models.

Tracks which accelerator (bitstream) is loaded and charges the
reconfiguration dead time whenever the runtime manager switches pruning
rates. The paper measured 4 reconfigurations totalling 580 ms on the
ZCU104 (~145 ms each); while a swap is in progress the accelerator
serves nothing.

:class:`PartialReconfigModel` refines the flat 145 ms: the floorplan is
split into reconfigurable regions and a switch rewrites only the regions
whose contents differ between the outgoing and incoming design, so
switches between related variants (e.g. the early-exit and backbone
builds of the same pruning rate) cost a fraction of a full swap. Both
the :class:`ReconfigurationController` (what a swap actually costs) and
:class:`~repro.runtime.manager.RuntimeManager` (how switch cost breaks
selection ties) accept the model, so the serving simulators and the
policy optimize the same calculus.

Under fault injection (:mod:`repro.runtime.faults`) an attempt may fail:
the dead time is burned but the previously loaded bitstream stays
active. Failed attempts are recorded as events with ``success=False`` so
degraded-mode accounting can separate useful swaps from wasted ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.spec import check_finite, spec_values
from ..finn.bitstream import RECONFIG_MS_ZCU104
from .library import AcceleratorId

__all__ = ["ReconfigurationController", "ReconfigEvent",
           "PartialReconfigModel"]


@dataclass(frozen=True)
class PartialReconfigModel:
    """Per-region partial reconfiguration costing.

    The accelerator floorplan is modeled as ``regions`` reconfigurable
    regions: ``regions - exit_regions`` backbone pipeline stages plus
    ``exit_regions`` early-exit classifier regions. Two designs share a
    region when its contents are identical — a backbone stage when
    uniform pruning leaves that stage's channel count unchanged, an exit
    region when both designs carry the same exit configuration (both
    absent, or both present with the same exit-pruning state and rate).
    A switch rewrites only the differing regions::

        cost = overhead_s + changed/regions * (full_time_s - overhead_s)

    capped at ``full_time_s`` — partial reconfiguration is never worse
    than reloading the full bitstream. ``overhead_s`` is the fixed
    ICAP/PCAP setup cost every non-trivial swap pays.
    """

    regions: int = 8
    exit_regions: int = 2
    overhead_s: float = 0.010
    full_time_s: float = RECONFIG_MS_ZCU104 / 1000.0
    stage_widths: tuple = (64, 64, 128, 128, 256, 256)

    def __post_init__(self):
        check_finite(self)
        if self.regions < 1:
            raise ValueError("regions must be >= 1")
        if not 0 <= self.exit_regions < self.regions:
            raise ValueError("exit_regions must be in [0, regions)")
        if len(self.stage_widths) != self.regions - self.exit_regions:
            raise ValueError(
                f"stage_widths must name {self.regions - self.exit_regions}"
                f" backbone stages (one per non-exit region), got "
                f"{len(self.stage_widths)}")
        if self.overhead_s < 0:
            raise ValueError("overhead_s must be >= 0")
        if self.full_time_s < self.overhead_s:
            raise ValueError("full_time_s must be >= overhead_s")
        # Signature memo: a pure function of the (frozen) parameters and
        # the design. Not a field, so equality, hashing and repr ignore it.
        object.__setattr__(self, "_signatures", {})

    def signature(self, accelerator: AcceleratorId) -> tuple:
        """Per-region content signature of one design."""
        sig = self._signatures.get(accelerator)
        if sig is None:
            sig = self._signatures[accelerator] = self._signature(accelerator)
        return sig

    def _signature(self, accelerator: AcceleratorId) -> tuple:
        rate = accelerator.pruning_rate
        stages = tuple(max(1, round(w * (1.0 - rate)))
                       for w in self.stage_widths)
        if accelerator.variant == "ee":
            exit_rate = rate if accelerator.pruned_exits else 0.0
            exits = tuple(("exit", k, round(exit_rate, 6))
                          for k in range(self.exit_regions))
        else:
            exits = tuple(("blank", k) for k in range(self.exit_regions))
        return stages + exits

    def changed_regions(self, a: AcceleratorId, b: AcceleratorId) -> int:
        """Regions that must be rewritten to go from ``a`` to ``b``."""
        if a == b:
            return 0
        return sum(ra != rb for ra, rb
                   in zip(self.signature(a), self.signature(b)))

    def switch_time_s(self, current: AcceleratorId | None,
                      target: AcceleratorId) -> float:
        """Dead time of loading ``target`` over ``current``.

        ``current=None`` (nothing deployed yet) is a full configuration;
        identical designs cost nothing.
        """
        if current is None:
            return self.full_time_s
        changed = self.changed_regions(current, target)
        if changed == 0:
            return 0.0
        frac = changed / self.regions
        return min(self.full_time_s,
                   self.overhead_s
                   + frac * (self.full_time_s - self.overhead_s))

    @classmethod
    def parse(cls, text: str) -> "PartialReconfigModel":
        """Build a model from a CLI spec.

        ``"on"`` (or ``""``, ``"default"``, ``"true"``, ``"1"``) gives
        the defaults; otherwise ``key=value`` overrides in the grammar of
        :mod:`repro.core.spec`, with keys ``regions``, ``exit_regions``,
        ``overhead_ms`` and ``full_ms`` (milliseconds). ``regions``
        repeats the default stage widths over the backbone regions.
        """
        if (text or "").strip().lower() in ("", "on", "default", "true",
                                            "1"):
            return cls()
        _, values = spec_values(text, {"regions": int, "exit_regions": int,
                                       "overhead_ms": float,
                                       "full_ms": float},
                                what="partial-reconfig")
        seconds = {"overhead_ms": "overhead_s", "full_ms": "full_time_s"}
        kwargs = {seconds.get(key, key): value / 1000.0 if key in seconds
                  else value for key, value in values.items()}
        if "regions" in kwargs:
            exits = kwargs.get("exit_regions", cls.exit_regions)
            backbone = kwargs["regions"] - exits
            if backbone < 1:
                raise ValueError(f"regions={kwargs['regions']} must exceed "
                                 f"exit_regions={exits}")
            widths = cls.stage_widths
            kwargs["stage_widths"] = tuple(
                widths[i % len(widths)] for i in range(backbone))
        return cls(**kwargs)


@dataclass(frozen=True)
class ReconfigEvent:
    """One bitstream swap attempt."""

    time_s: float
    from_accelerator: AcceleratorId | None
    to_accelerator: AcceleratorId
    duration_s: float
    success: bool = True


@dataclass
class ReconfigurationController:
    """Bitstream state machine with measured swap cost.

    ``cost_model`` switches the controller from the flat
    ``reconfig_time_s`` per swap to per-region partial-reconfiguration
    costing (:class:`PartialReconfigModel`): the dead time of each
    attempt depends on how much of the floorplan actually changes.
    """

    reconfig_time_s: float = RECONFIG_MS_ZCU104 / 1000.0
    current: AcceleratorId | None = None
    events: list = field(default_factory=list)
    cost_model: PartialReconfigModel | None = None

    def needs_switch(self, target: AcceleratorId) -> bool:
        return self.current != target

    def planned_duration_s(self, target: AcceleratorId) -> float:
        """Nominal dead time a switch to ``target`` would cost now."""
        if not self.needs_switch(target):
            return 0.0
        if self.cost_model is not None:
            return self.cost_model.switch_time_s(self.current, target)
        return self.reconfig_time_s

    def attempt_switch(self, target: AcceleratorId, now_s: float = 0.0,
                       duration_s: float | None = None,
                       fails: bool = False) -> tuple[bool, float]:
        """Attempt to load ``target``; returns ``(success, dead_time_s)``.

        ``duration_s`` overrides the nominal swap time (latency jitter);
        ``fails`` marks the attempt as a failure — the dead time is still
        charged (the board was busy with the aborted transfer) but the
        loaded bitstream does not change. A no-op attempt (``target``
        already loaded) succeeds instantly and records nothing.
        """
        if not self.needs_switch(target):
            return True, 0.0
        dead = self.planned_duration_s(target) if duration_s is None \
            else duration_s
        if dead < 0:
            raise ValueError("reconfiguration duration must be >= 0")
        self.events.append(ReconfigEvent(now_s, self.current, target,
                                         dead, success=not fails))
        if not fails:
            self.current = target
        return not fails, dead

    def switch(self, target: AcceleratorId, now_s: float = 0.0) -> float:
        """Load ``target``; returns the dead time incurred (0 if loaded).

        The first load at deployment is also charged (the board must be
        configured once before serving).
        """
        _, dead = self.attempt_switch(target, now_s=now_s)
        return dead

    @property
    def count(self) -> int:
        """Number of swap attempts (including the initial load)."""
        return len(self.events)

    @property
    def failed_count(self) -> int:
        return sum(1 for e in self.events if not e.success)

    @property
    def total_dead_time_s(self) -> float:
        """Dead time over all attempts, successful or not."""
        return sum(e.duration_s for e in self.events)

    @property
    def failed_dead_time_s(self) -> float:
        """Dead time wasted on failed attempts."""
        return sum(e.duration_s for e in self.events if not e.success)

    def runtime_swaps(self) -> list:
        """Successful swaps excluding the initial deployment load."""
        return [e for e in self.events
                if e.from_accelerator is not None and e.success]

    def failed_attempts(self) -> list:
        return [e for e in self.events if not e.success]
