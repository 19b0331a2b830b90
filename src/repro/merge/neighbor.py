"""Neighbor merging (paper §III-B2b, workflow step ②b).

After concurrent fusion the trace holds disjoint operations.  MOSAIC then
merges *nearby* operations when the gap between them is negligible:

    "less than 0.1% of the total execution time or less than 1% of the
    duration of the nearby merged operation"

This second pass retains only the data needed for a correct
categorization and absorbs slow process desynchronization: operations
that slid apart until they no longer overlap still fuse if the gap is
small relative to either scale.  "Nearby merged operation" is direction-
agnostic: the gap is compared against the duration of *either* adjacent
operation, so a long checkpoint trailing a short post-write absorbs it
just as a long one leading it does.

The scan repeats until a fixpoint — each pass strictly reduces the
operation count, so the loop terminates in at most ``n`` passes and in
practice in one or two.  The per-pass kernel comes from
:mod:`repro.kernels`: a chain-merge NumPy pass that converges to the
same fixpoint as the greedy specification, because merging only ever
shrinks gaps and grows the durations the rule tests against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..darshan.trace import OperationArray
from ..kernels import get_backend

__all__ = ["NeighborMergeConfig", "NeighborMergeResult", "merge_neighbors"]


@dataclass(slots=True, frozen=True)
class NeighborMergeConfig:
    """Thresholds of the neighbor-merge rule.

    Defaults are the paper's: a gap is negligible when it is under 0.1% of
    the runtime *or* under 1% of the duration of either nearby operation.
    """

    runtime_fraction: float = 0.001
    op_fraction: float = 0.01
    #: Safety bound on fixpoint iterations (n passes always suffice).
    max_passes: int = 64

    def __post_init__(self) -> None:
        if self.runtime_fraction < 0 or self.op_fraction < 0:
            raise ValueError("merge fractions must be non-negative")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")


@dataclass(slots=True, frozen=True)
class NeighborMergeResult:
    ops: OperationArray
    n_input: int
    n_output: int
    n_passes: int

    @property
    def n_fused(self) -> int:
        return self.n_input - self.n_output


def merge_neighbors(
    ops: OperationArray,
    run_time: float,
    config: NeighborMergeConfig | None = None,
) -> NeighborMergeResult:
    """Merge operations separated by negligible gaps.

    ``ops`` should already be concurrent-merged (disjoint); overlapping
    input is tolerated and simply fuses.  ``run_time`` anchors the
    absolute gap threshold.
    """
    cfg = config or NeighborMergeConfig()
    kernel = get_backend().neighbor_pass
    n_input = len(ops)
    if n_input <= 1:
        return NeighborMergeResult(ops=ops, n_input=n_input, n_output=n_input, n_passes=0)

    abs_gap = cfg.runtime_fraction * max(run_time, 0.0)
    starts, ends, volumes = ops.starts, ops.ends, ops.volumes
    passes = 0
    for _ in range(cfg.max_passes):
        starts, ends, volumes, changed = kernel(
            starts, ends, volumes, abs_gap, cfg.op_fraction
        )
        passes += 1
        if not changed or len(starts) == 1:
            break
    merged = OperationArray(
        np.asarray(starts), np.asarray(ends), np.asarray(volumes)
    )
    return NeighborMergeResult(
        ops=merged, n_input=n_input, n_output=len(merged), n_passes=passes
    )
