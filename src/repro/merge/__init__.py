"""Event fusion: concurrent-overlap merging and neighbor merging
(workflow step ② of the MOSAIC pipeline)."""

from .concurrent import ConcurrentMergeResult, merge_concurrent
from .neighbor import NeighborMergeConfig, NeighborMergeResult, merge_neighbors
from .pipeline import MergePipelineResult, preprocess_operations, preprocess_trace

__all__ = [
    "ConcurrentMergeResult",
    "merge_concurrent",
    "NeighborMergeConfig",
    "NeighborMergeResult",
    "merge_neighbors",
    "MergePipelineResult",
    "preprocess_operations",
    "preprocess_trace",
]
