"""Tenant workload routing across a fleet of edge servers.

Each tenant is one camera fleet (a :class:`TenantSpec`) whose whole
stream must land on exactly one server — splitting a stream would break
the per-server workload monitor's rate estimate. The router supports the
two classic placement disciplines:

* ``hash`` — consistent hashing on a vnode ring keyed by a *stable*
  64-bit hash (Python's builtin ``hash`` is salted per process and would
  destroy reproducibility). Minimal movement under failure: when a
  server dies, only its own tenants walk to the next live ring point.
* ``least-loaded`` — greedy balancing: tenants placed heaviest-first
  onto the currently lightest qualified server.

Both disciplines are SLO-aware: a tenant with ``slo_accuracy > 0`` is
only placed on servers whose accuracy floor covers it
(:class:`ServerSlot.min_accuracy`), falling back to the full fleet when
no server qualifies (degraded placement beats dropping the stream).

Every method is a pure function of its arguments — no hidden RNG, no
process state — so routing is byte-identical across runs, worker counts
and platforms, and the property tests can drive it directly. A router
memoizes what its arguments determine: the stable hash of every tenant
id and vnode it has seen, so an elastic campaign's repeated rebalances
hash each tenant and each vnode once instead of once per call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..edge.cameras import CameraFleet, WorkloadSpec

__all__ = ["ROUTER_POLICIES", "TenantSpec", "ServerSlot",
           "WorkloadRouter", "make_tenants"]

ROUTER_POLICIES = ("hash", "least-loaded")


def _stable_hash(key: str) -> int:
    """Process-stable 64-bit hash (``hash()`` is salted per process)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a camera fleet with an accuracy SLO.

    ``slo_accuracy`` is the minimum delivered accuracy the tenant
    accepts (0.0 = best effort). The camera parameters mirror
    :class:`~repro.edge.cameras.WorkloadSpec` per tenant.
    ``start_s`` delays the tenant's first frame: a population with
    staggered starts models the load ramp an autoscaler must track
    (see ``make_tenants(ramp_s=...)``).
    """

    tenant_id: str
    cameras: int = 1
    ips_per_camera: float = 1.0
    slo_accuracy: float = 0.0
    deviation: float = 0.30
    deviation_interval_s: float = 5.0
    start_s: float = 0.0

    def __post_init__(self):
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if self.cameras < 1:
            raise ValueError("cameras must be >= 1")
        if self.ips_per_camera <= 0:
            raise ValueError("ips_per_camera must be positive")
        if not 0.0 <= self.slo_accuracy <= 1.0:
            raise ValueError("slo_accuracy must be in [0, 1]")
        if self.start_s < 0:
            raise ValueError("start_s must be >= 0")

    @property
    def nominal_ips(self) -> float:
        return self.cameras * self.ips_per_camera

    def workload(self, duration_s: float) -> WorkloadSpec:
        """The tenant's camera-fleet spec over one campaign."""
        return WorkloadSpec(
            num_cameras=self.cameras,
            ips_per_camera=self.ips_per_camera,
            duration_s=duration_s,
            deviation=self.deviation,
            deviation_interval_s=self.deviation_interval_s)

    def arrival_times(self, duration_s: float, seed=0) -> np.ndarray:
        """The tenant's realized arrival stream over one campaign.

        A tenant with ``start_s == 0`` produces exactly the historical
        ``CameraFleet(workload(duration_s), seed).arrival_times()``
        stream, byte for byte. A late joiner realizes its stream over
        its live window and shifts it by ``start_s`` (empty when the
        start falls past the horizon).
        """
        live = duration_s - self.start_s
        if live <= 0:
            return np.empty(0, dtype=np.float64)
        arr = CameraFleet(self.workload(live), seed=seed).arrival_times()
        if self.start_s:
            arr = arr + self.start_s
        return arr


@dataclass(frozen=True)
class ServerSlot:
    """Routing view of one server: identity plus its accuracy floor."""

    server_id: int
    min_accuracy: float = 0.0


def make_tenants(count: int, *, cameras: int = 4,
                 ips_per_camera: float = 2.0, slo_tiers=(0.0,),
                 deviation: float = 0.30,
                 deviation_interval_s: float = 5.0,
                 ramp_s: float = 0.0) -> list:
    """Deterministic tenant population with round-robin SLO tiers.

    ``ramp_s > 0`` staggers tenant starts into a load ramp: the first
    quarter of the population streams from ``t=0`` and the rest join
    linearly over ``ramp_s`` seconds — a 4x offered-load growth for the
    autoscaler to chase. ``ramp_s=0`` (default) starts everyone at 0,
    exactly the historical population.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if ramp_s < 0:
        raise ValueError("ramp_s must be >= 0")
    tiers = tuple(slo_tiers) or (0.0,)
    starts = [0.0] * count
    base = max(1, count // 4)
    if ramp_s > 0 and count > base:
        span = count - base
        for i in range(base, count):
            starts[i] = ramp_s * (i - base + 1) / span
    return [TenantSpec(tenant_id=f"tenant-{i:05d}", cameras=cameras,
                       ips_per_camera=ips_per_camera,
                       slo_accuracy=tiers[i % len(tiers)],
                       deviation=deviation,
                       deviation_interval_s=deviation_interval_s,
                       start_s=starts[i])
            for i in range(count)]


class WorkloadRouter:
    """Assigns each tenant's stream to exactly one server."""

    def __init__(self, policy: str = "hash", vnodes: int = 64):
        if policy not in ROUTER_POLICIES:
            raise ValueError(
                f"router policy must be one of {ROUTER_POLICIES}, "
                f"got {policy!r}")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.policy = policy
        self.vnodes = vnodes
        self._hashes: dict = {}        # tenant id -> _stable_hash
        self._vnode_hashes: dict = {}  # server id -> its points' hashes

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def assign(self, tenants, servers) -> dict:
        """Initial placement: ``{tenant_id: server_id}``, every tenant
        routed exactly once."""
        self._check_servers(servers)
        if self.policy == "hash":
            return self._assign_hash(tenants, servers)
        return self._assign_least_loaded(
            tenants, servers, {s.server_id: 0.0 for s in servers})

    def reroute(self, tenants, assignment, servers, dead) -> dict:
        """Failover: new homes for tenants stranded on ``dead`` servers.

        Returns ``{tenant_id: new_server_id}`` for the *moved* tenants
        only; surviving tenants keep their assignment untouched (the
        consistent-hash minimal-movement property, enforced for both
        disciplines). Returns ``{}`` when no server survives — the
        cluster then counts those streams as failover-dropped.
        """
        self._check_servers(servers)
        dead = set(dead)
        survivors = [s for s in servers if s.server_id not in dead]
        if not survivors:
            return {}
        by_id = {t.tenant_id: t for t in tenants}
        stranded = sorted(
            (by_id[tid] for tid, sid in assignment.items() if sid in dead),
            key=lambda t: t.tenant_id)
        if not stranded:
            return {}
        if self.policy == "hash":
            return self._assign_hash(stranded, survivors)
        loads = {s.server_id: 0.0 for s in survivors}
        for tid, sid in assignment.items():
            # ``servers`` may differ from the assignment's original pool
            # (servers added by the autoscaler, or retired ones still in
            # the assignment map): only live pool members carry load.
            if sid in loads:
                loads[sid] += by_id[tid].nominal_ips
        return self._assign_least_loaded(stranded, survivors, loads)

    def rebalance_additions(self, tenants, assignment, servers,
                            added) -> dict:
        """Minimal-movement rebalance onto servers added mid-campaign.

        ``reroute`` only re-homes tenants stranded by a *death* — a
        server *added* to the pool (autoscaler scale-up) would never
        receive a tenant without this. ``servers`` is the full live pool
        (old and new), ``added`` the newly provisioned server ids.
        Returns ``{tenant_id: new_server_id}`` for moved tenants only;
        every move lands on an added server, so incumbents never shuffle
        among themselves.

        * ``hash`` — the ring is recomputed with the grown pool; the
          consistent-hash property means exactly the tenants whose ring
          point now maps to an added vnode move (≈ ``|added| / |pool|``
          of them), everyone else keeps their server.
        * ``least-loaded`` — greedy makespan relief: repeatedly move the
          tenant with the largest strict improvement from a loaded
          incumbent to the lightest qualified added server, until no
          move strictly improves. Deterministic total order (gain, then
          tenant weight, then ids).
        """
        self._check_servers(servers)
        added = set(added)
        if not added or not assignment:
            return {}
        by_id = {t.tenant_id: t for t in tenants}
        if self.policy == "hash":
            full = self._assign_hash(
                [by_id[tid] for tid in sorted(assignment)], servers)
            return {tid: sid for tid, sid in full.items()
                    if sid in added and assignment[tid] != sid}
        loads = {s.server_id: 0.0 for s in servers}
        for tid, sid in assignment.items():
            if sid in loads:
                loads[sid] += by_id[tid].nominal_ips
        allowed = self._allowed_by_slo(by_id.values(), servers)
        targets = {slo: sorted(added & ids) for slo, ids in allowed.items()}
        current = dict(assignment)
        moves: dict = {}
        while True:
            best = None
            for tid in sorted(current):
                sid = current[tid]
                if sid in added or sid not in loads:
                    continue
                t = by_id[tid]
                for dst in targets[t.slo_accuracy]:
                    gain = loads[sid] - (loads[dst] + t.nominal_ips)
                    if gain <= 1e-12:
                        continue
                    key = (gain, t.nominal_ips, tid, -dst)
                    if best is None or key > best[0]:
                        best = (key, tid, sid, dst)
            if best is None:
                return moves
            _, tid, src, dst = best
            w = by_id[tid].nominal_ips
            loads[src] -= w
            loads[dst] += w
            current[tid] = dst
            moves[tid] = dst

    # ------------------------------------------------------------------
    # disciplines
    # ------------------------------------------------------------------
    def _assign_hash(self, tenants, servers) -> dict:
        tenants = list(tenants)
        ring_hash, ring_sid = self._ring(servers)
        tids = [t.tenant_id for t in tenants]
        slos = np.array([t.slo_accuracy for t in tenants], dtype=np.float64)
        keys = np.array([self._hash(tid) for tid in tids], dtype=np.uint64)
        # First qualified ring point at or after the tenant's hash,
        # clockwise with wrap: ring points sort by (hash, server id) and
        # the walk starts at the first point whose hash is >= the
        # tenant's, so searchsorted(side="left") on the sub-ring of the
        # tenant's qualified servers lands on the same point.
        out = np.empty(len(tenants), dtype=np.int64)
        for slo, ids in self._allowed_by_slo(tenants, servers).items():
            hashes, sids = ring_hash, ring_sid
            if len(ids) < len(servers):
                keep = np.isin(ring_sid, sorted(ids))
                hashes, sids = hashes[keep], sids[keep]
            mine = slos == slo
            pos = np.searchsorted(hashes, keys[mine], side="left")
            out[mine] = sids[pos % len(hashes)]
        return dict(zip(tids, out.tolist()))

    def _hash(self, key: str) -> int:
        h = self._hashes.get(key)
        if h is None:
            h = self._hashes[key] = _stable_hash(key)
        return h

    def _points(self, server_id: int) -> np.ndarray:
        """Hashes of one server's vnode ring points."""
        pts = self._vnode_hashes.get(server_id)
        if pts is None:
            pts = self._vnode_hashes[server_id] = np.fromiter(
                (_stable_hash(f"server-{server_id}#{v}")
                 for v in range(self.vnodes)),
                dtype=np.uint64, count=self.vnodes)
        return pts

    def _ring(self, servers) -> tuple:
        """The pool's vnode ring as parallel arrays, sorted by (point
        hash, server id)."""
        ids = sorted(s.server_id for s in servers)
        hashes = np.concatenate([self._points(sid) for sid in ids])
        sids = np.repeat(np.asarray(ids, dtype=np.int64), self.vnodes)
        order = np.lexsort((sids, hashes))
        return hashes[order], sids[order]

    def _assign_least_loaded(self, tenants, servers, loads) -> dict:
        # Heaviest tenants placed first (ties by id): the classic greedy
        # makespan heuristic, and a deterministic total order.
        order = sorted(tenants, key=lambda t: (-t.nominal_ips, t.tenant_id))
        allowed = self._allowed_by_slo(tenants, servers)
        candidates = {slo: [s for s in servers if s.server_id in ids]
                      for slo, ids in allowed.items()}
        out = {}
        for t in order:
            target = min(candidates[t.slo_accuracy],
                         key=lambda s: (loads[s.server_id], s.server_id))
            out[t.tenant_id] = target.server_id
            loads[target.server_id] += t.nominal_ips
        return {t.tenant_id: out[t.tenant_id] for t in tenants}

    @staticmethod
    def _allowed_by_slo(tenants, servers) -> dict:
        """``{slo: server ids}`` of the qualified servers for each SLO
        value among ``tenants``: those whose accuracy floor covers it,
        or the whole pool when none does (degraded placement, never a
        drop)."""
        out = {}
        for t in tenants:
            slo = t.slo_accuracy
            if slo not in out:
                ok = {s.server_id for s in servers
                      if s.min_accuracy + 1e-9 >= slo}
                out[slo] = ok or {s.server_id for s in servers}
        return out

    @staticmethod
    def _check_servers(servers) -> None:
        if not servers:
            raise ValueError("no servers to route to")
        ids = [s.server_id for s in servers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate server ids in routing pool")
