"""Operation segmentation (paper §III-B3a, workflow step ③a).

After fusion, the trace is cut into *segments*: "a segment starts at the
beginning of an I/O operation and ends at the beginning of the next one".
The last operation's segment is closed by the end of the execution, so a
final checkpoint still yields a full-length segment.

For each segment MOSAIC computes the features the clustering stage
groups on: segment duration (≈ candidate period), data volume of the
operation opening the segment, and the activity rate (share of the
segment during which the operation was actually moving data) — the rate
is what separates ``periodic_low_busy_time`` from
``periodic_high_busy_time``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..darshan.tolerance import TIME_TOLERANCE_S
from ..darshan.trace import OperationArray
from ..kernels import get_backend

__all__ = ["SegmentSet", "segment_operations"]


@dataclass(slots=True, frozen=True)
class SegmentSet:
    """Columnar set of segments extracted from one operation stream."""

    #: Segment start times (operation starts), seconds.
    starts: np.ndarray
    #: Segment durations: distance to the next operation start (last:
    #: distance to end of execution), seconds.
    durations: np.ndarray
    #: Bytes moved by the operation opening each segment.
    volumes: np.ndarray
    #: Seconds the opening operation was active.
    busy: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def activity_rates(self) -> np.ndarray:
        """Fraction of each segment spent doing I/O (clipped to [0, 1];
        an operation can outlive its segment when the next operation
        starts before it ends — fusion makes that rare but segments that
        are instantaneous *at clock resolution*, not just exactly
        zero-length, must not divide by zero)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(
                self.durations > TIME_TOLERANCE_S,
                self.busy / self.durations,
                1.0,
            )
        return np.clip(rate, 0.0, 1.0)

    def features(self) -> np.ndarray:
        """(n, 2) feature matrix ``[duration, volume]`` for clustering."""
        return np.column_stack([self.durations, self.volumes])

    def is_empty(self) -> bool:
        return len(self) == 0

    @classmethod
    def empty(cls) -> "SegmentSet":
        z = np.empty(0, dtype=np.float64)
        return cls(z, z.copy(), z.copy(), z.copy())


def segment_operations(ops: OperationArray, run_time: float) -> SegmentSet:
    """Cut an operation stream into segments.

    ``ops`` must be the *merged* stream (disjoint, sorted); raw per-rank
    operations would produce meaningless near-zero segments — this
    ordering requirement is exactly why fusion precedes segmentation in
    the workflow.  The final segment is closed at the end of execution
    (but never before the last operation itself finished).
    """
    if len(ops) == 0:
        return SegmentSet.empty()
    starts, durations, volumes, busy = get_backend().segment(
        ops.starts, ops.ends, ops.volumes, run_time
    )
    return SegmentSet(
        starts=starts, durations=durations, volumes=volumes, busy=busy
    )
