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

from ..darshan.trace import OperationArray
from ..kernels import get_backend

__all__ = ["ConcurrentMergeResult", "merge_concurrent"]


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


def merge_concurrent(ops: OperationArray) -> ConcurrentMergeResult:
    """Fuse transitively-overlapping operations.

    The merged operation spans the union of its members' windows and
    carries their summed volume.  Input order is irrelevant (the
    OperationArray invariant keeps starts sorted).
    """
    n = len(ops)
    if n <= 1:
        return ConcurrentMergeResult(ops=ops, n_input=n, n_output=n, n_fused=0)
    kernels = get_backend()
    groups = kernels.overlap_groups(ops.starts, ops.ends)
    starts, ends, volumes = kernels.coalesce_groups(
        ops.starts, ops.ends, ops.volumes, groups
    )
    merged = OperationArray(starts, ends, volumes)
    return ConcurrentMergeResult(
        ops=merged,
        n_input=n,
        n_output=len(merged),
        n_fused=n - len(merged),
    )
