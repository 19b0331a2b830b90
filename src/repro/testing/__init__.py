"""Test-support utilities shipped with the package: deterministic fault
injection for chaos-testing the resilient execution layer, storage-fault
injection for the durability layer, a scripted TCP fault proxy for the
service's client/server resilience, and the slow pure-Python oracles the
runtime is held to: the reference kernels (:mod:`.reference`, with the
``reference_kernels()`` swap), the metadata event expansion
(:mod:`.metadata`), the per-``Trace`` repair heuristics
(:mod:`.repair`), and the differential sweep that compares them
(:mod:`.differential`, which also holds the distance kernel to the
third-party ``cdist``).  The pipeline, store, service and kernel
packages never import this one, and the CLI imports it only for
``--chaos``."""

from .differential import (
    DifferentialReport,
    Divergence,
    run_all,
    run_differential,
)
from .faults import ChaosInjector, item_key, member_keys
from .netchaos import (
    ConnectionScript,
    NetChaosProxy,
    NetChaosSchedule,
)
from .reference import REFERENCE, reference_kernels
from .repair import RepairOutcome, repair_trace
from .storage import (
    FAULT_POWER_CUT,
    FAULT_SHORT_WRITE,
    PowerCut,
    StorageChaos,
    op_census,
)

__all__ = [
    "ChaosInjector",
    "ConnectionScript",
    "NetChaosProxy",
    "NetChaosSchedule",
    "item_key",
    "member_keys",
    "DifferentialReport",
    "Divergence",
    "FAULT_POWER_CUT",
    "FAULT_SHORT_WRITE",
    "PowerCut",
    "REFERENCE",
    "RepairOutcome",
    "StorageChaos",
    "op_census",
    "reference_kernels",
    "repair_trace",
    "run_all",
    "run_differential",
]
