"""Combined pre-processing pipeline for one direction of one trace.

Chains concurrent fusion (②a) and neighbor merging (②b) and keeps the
stage-by-stage counts that the Fig. 2 rendering and the merging ablation
need.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..darshan.trace import Direction, OperationArray, Trace
from .concurrent import merge_concurrent
from .neighbor import NeighborMergeConfig, merge_neighbors

__all__ = ["MergePipelineResult", "preprocess_operations", "preprocess_trace"]


@dataclass(slots=True, frozen=True)
class MergePipelineResult:
    """Operations after the full fusion pipeline, with stage statistics."""

    ops: OperationArray
    n_raw: int
    n_after_concurrent: int
    n_after_neighbor: int
    neighbor_passes: int

    @property
    def reduction_ratio(self) -> float:
        return self.n_raw / self.n_after_neighbor if self.n_after_neighbor else 1.0


def preprocess_operations(
    ops: OperationArray,
    run_time: float,
    neighbor_config: NeighborMergeConfig | None = None,
) -> MergePipelineResult:
    """Run concurrent + neighbor merging over an operation array."""
    conc = merge_concurrent(ops)
    neigh = merge_neighbors(conc.ops, run_time, neighbor_config)
    return MergePipelineResult(
        ops=neigh.ops,
        n_raw=len(ops),
        n_after_concurrent=conc.n_output,
        n_after_neighbor=neigh.n_output,
        neighbor_passes=neigh.n_passes,
    )


def preprocess_trace(
    trace: Trace,
    direction: Direction,
    neighbor_config: NeighborMergeConfig | None = None,
) -> MergePipelineResult:
    """Extract and pre-process one direction of ``trace``."""
    return preprocess_operations(
        trace.operations(direction), trace.meta.run_time, neighbor_config
    )
