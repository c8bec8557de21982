"""DBTF — the paper's primary contribution."""

from .cache import RowSummationCache, split_groups
from .config import DbtfConfig
from .decompose import dbtf, dbtf_steps, prepare_partitioned_unfoldings
from .incremental import (
    PartitionedUnfoldings,
    baseline_error_after_delta,
    dirty_columns_for_delta,
    prepare_mode_partitions,
)
from .partition import (
    Block,
    BlockType,
    PartitionCoordinates,
    PartitionData,
    PartitionPlan,
    build_partition_data,
    make_partition_plans,
    pack_partition,
    split_unfolding_coordinates,
)
from .result import DecompositionResult
from .steps import StepEvent, drive
from .update import DecisionCertificates, update_factor

__all__ = [
    "dbtf",
    "dbtf_steps",
    "StepEvent",
    "drive",
    "DbtfConfig",
    "DecompositionResult",
    "RowSummationCache",
    "split_groups",
    "Block",
    "BlockType",
    "PartitionPlan",
    "PartitionData",
    "make_partition_plans",
    "build_partition_data",
    "PartitionCoordinates",
    "split_unfolding_coordinates",
    "pack_partition",
    "update_factor",
    "DecisionCertificates",
    "prepare_partitioned_unfoldings",
    "prepare_mode_partitions",
    "PartitionedUnfoldings",
    "dirty_columns_for_delta",
    "baseline_error_after_delta",
]
