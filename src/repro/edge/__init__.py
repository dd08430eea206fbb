"""Edge-server simulation: DES core, camera workloads, custom traces,
server, metrics, and the ``run_fast`` serving kernel. Fault injection
lives in :mod:`repro.runtime.faults` and plugs into
:class:`EdgeServerSimulator` via its ``faults``/``fault_seed``
parameters."""

from .cameras import CameraFleet, WorkloadSpec
from .events import Event, EventLoop
from .metrics import (
    AggregateMetrics,
    RunMetrics,
    aggregate_runs,
    edp,
    qoe,
)
from .fastsim import SIM_MODES
from .server import EdgeServerSimulator, ServerConfig, simulate_policy
from .traces import (
    BurstWorkload,
    DiurnalWorkload,
    RampWorkload,
    arrivals_from_rate,
)

__all__ = [
    "CameraFleet", "WorkloadSpec",
    "Event", "EventLoop",
    "AggregateMetrics", "RunMetrics", "aggregate_runs", "edp", "qoe",
    "EdgeServerSimulator", "ServerConfig", "simulate_policy", "SIM_MODES",
    "BurstWorkload", "DiurnalWorkload", "RampWorkload",
    "arrivals_from_rate",
]
