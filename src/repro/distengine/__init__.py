"""Simulated distributed engine (the offline Spark stand-in)."""

from ..observability import MetricsRegistry, SpanKind, Tracer
from ..resilience import RetryPolicy, SpeculationConfig, plan_speculation
from .backends import (
    BACKEND_NAMES,
    Backend,
    ProcessBackend,
    SerialBackend,
    make_backend,
)
from .broadcast import Broadcast, BroadcastHandle
from .cluster import DEFAULT_CLUSTER, ClusterConfig
from .faults import FaultInjector, InjectedTaskFailure, TaskFailedError
from .lease import RuntimeFactory, RuntimeLease
from .plan import FusedChainTask, LogicalPlan, PhysicalStage, PlanNode, PlanOptimizer
from .rdd import Distributed
from .runtime import ExecutionReport, SimulatedRuntime, StageReport
from .scheduler import assign_tasks, makespan
from .shuffle import (
    ShuffleLedger,
    TransferKind,
    estimate_bytes,
    estimate_bytes_cached,
    stable_hash,
)

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "SerialBackend",
    "ProcessBackend",
    "make_backend",
    "Broadcast",
    "BroadcastHandle",
    "FaultInjector",
    "InjectedTaskFailure",
    "TaskFailedError",
    "ClusterConfig",
    "DEFAULT_CLUSTER",
    "Distributed",
    "LogicalPlan",
    "PlanNode",
    "PlanOptimizer",
    "PhysicalStage",
    "FusedChainTask",
    "RuntimeFactory",
    "RuntimeLease",
    "SimulatedRuntime",
    "StageReport",
    "ExecutionReport",
    "ShuffleLedger",
    "TransferKind",
    "estimate_bytes",
    "estimate_bytes_cached",
    "stable_hash",
    "makespan",
    "assign_tasks",
    "Tracer",
    "SpanKind",
    "MetricsRegistry",
    "RetryPolicy",
    "SpeculationConfig",
    "plan_speculation",
]
