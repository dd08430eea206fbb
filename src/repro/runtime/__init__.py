"""AdaPEx runtime: the Library, Runtime Manager, baselines, and
reconfiguration machinery."""

from .baselines import AdaPEx, CTOnly, FINNStatic, PROnly, make_policy
from .faults import FAULT_PRESETS, FaultPlan, FaultSpec
from .library import (AcceleratorId, Library, LibraryEntry, LoadReport,
                      SCHEMA_VERSION)
from .manager import RuntimeManager, SelectionPolicy
from .monitor import WorkloadMonitor
from .policytable import PolicyTable
from .reconfig import (PartialReconfigModel, ReconfigEvent,
                       ReconfigurationController)

__all__ = [
    "AdaPEx", "CTOnly", "FINNStatic", "PROnly", "make_policy",
    "FAULT_PRESETS", "FaultPlan", "FaultSpec",
    "AcceleratorId", "Library", "LibraryEntry", "LoadReport",
    "SCHEMA_VERSION",
    "RuntimeManager", "SelectionPolicy", "PolicyTable",
    "WorkloadMonitor",
    "PartialReconfigModel", "ReconfigEvent", "ReconfigurationController",
]
