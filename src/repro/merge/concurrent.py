"""Concurrent operation merging (paper §III-B2a, workflow step ②a).

If two I/O operations overlap in time they are fused into one.  The two
goals stated in the paper are preserved verbatim:

1. *Manage process desynchronization* — several ranks writing the same
   checkpoint slightly out of phase produce one merged operation instead
   of ``nprocs`` shards;
2. *Clarify the trace* so the segmentation stage sees one event per
   logical I/O phase, a precondition for periodicity detection.

Merging is transitive (a chain of pairwise-overlapping operations fuses
into one) and runs in O(n log n) dominated by the sort hidden in
:class:`~repro.darshan.trace.OperationArray` construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..darshan.trace import OperationArray
from ..kernels import get_backend
from ..kernels.batched import group_offsets

__all__ = ["ConcurrentMergeResult", "fuse_segments", "merge_concurrent"]


@dataclass(slots=True, frozen=True)
class ConcurrentMergeResult:
    """Merged operations plus bookkeeping for ablation/reporting."""

    ops: OperationArray
    n_input: int
    n_output: int
    #: Number of input operations absorbed into some other operation.
    n_fused: int

    @property
    def reduction_ratio(self) -> float:
        """Input/output size ratio (1.0 = nothing merged)."""
        return self.n_input / self.n_output if self.n_output else 1.0


def fuse_segments(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fuse the overlapping operations of every segment
    ``offsets[k]:offsets[k+1]`` in one dispatch: the fused columns and
    their offsets."""
    kernels = get_backend()
    groups = kernels.overlap_groups(starts, ends, offsets)
    fused = kernels.coalesce_groups(starts, ends, volumes, groups)
    return (*fused, group_offsets(groups, offsets))


def merge_concurrent(ops: OperationArray) -> ConcurrentMergeResult:
    """Fuse transitively-overlapping operations.

    The merged operation spans the union of its members' windows and
    carries their summed volume.  Input order is irrelevant (the
    OperationArray invariant keeps starts sorted).
    """
    n = len(ops)
    if n <= 1:
        return ConcurrentMergeResult(ops=ops, n_input=n, n_output=n, n_fused=0)
    starts, ends, volumes, _ = fuse_segments(
        ops.starts, ops.ends, ops.volumes, np.array([0, n])
    )
    merged = OperationArray(starts, ends, volumes)
    return ConcurrentMergeResult(
        ops=merged,
        n_input=n,
        n_output=len(merged),
        n_fused=n - len(merged),
    )
