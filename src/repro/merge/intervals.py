"""Vectorized interval algebra primitives.

All MOSAIC pre-processing reduces to operations on sets of weighted
intervals ``(start, end, volume)``.  Following the NumPy-first idiom for
this codebase, the hot paths here are expressed as array operations —
union-find style grouping is done with one ``sort``, a running maximum
and one ``cumsum`` instead of Python loops, which is what makes
whole-corpus processing tractable on a single node.  Grouping and
coalescing are the kernels :func:`repro.kernels.get_backend` returns.
"""

from __future__ import annotations

import numpy as np

from ..darshan.trace import OperationArray
from ..kernels import get_backend

__all__ = [
    "overlap_groups",
    "coalesce_groups",
    "union_length",
    "coverage_fraction",
    "gaps",
    "total_span",
]


def overlap_groups(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Label each interval with the id of its transitive-overlap group.

    Intervals must be sorted by ``starts``.  Two intervals belong to the
    same group iff they overlap or are chained together by overlapping
    intervals (transitive closure).  Touching intervals count as
    overlapping — two ranks writing back-to-back with no gap are one
    logical operation — and "touching" is judged at clock resolution
    (:data:`~repro.darshan.tolerance.TIME_TOLERANCE_S`), so a
    sub-microsecond gap introduced by float round-trips does not split a
    group.

    Returns an int64 array of group ids, non-decreasing, starting at 0.
    """
    return get_backend().overlap_groups(starts, ends)


def coalesce_groups(ops: OperationArray, groups: np.ndarray) -> OperationArray:
    """Collapse each group of operations into a single operation.

    The merged operation spans min(start)→max(end) and carries the summed
    volume — exactly the paper's concurrent-fusion semantics (§III-B2a).
    """
    if len(ops) == 0:
        return OperationArray.empty()
    if len(groups) != len(ops):
        raise ValueError("groups must label every operation")
    starts, ends, volumes = get_backend().coalesce_groups(
        ops.starts, ops.ends, ops.volumes, groups
    )
    return OperationArray(starts, ends, volumes)


def union_length(ops: OperationArray) -> float:
    """Total wall-clock time covered by at least one operation."""
    if len(ops) == 0:
        return 0.0
    groups = overlap_groups(ops.starts, ops.ends)
    merged = coalesce_groups(ops, groups)
    return float(np.sum(merged.ends - merged.starts))


def coverage_fraction(ops: OperationArray, run_time: float) -> float:
    """Fraction of the runtime covered by I/O activity (∈ [0, 1])."""
    if run_time <= 0:
        return 0.0
    return min(1.0, union_length(ops) / run_time)


def gaps(ops: OperationArray) -> np.ndarray:
    """Gap durations between consecutive operations (assumes
    non-overlapping, sorted input; negative values expose overlap)."""
    if len(ops) < 2:
        return np.empty(0, dtype=np.float64)
    return ops.starts[1:] - ops.ends[:-1]


def total_span(ops: OperationArray) -> float:
    """Time between the first operation start and the last operation end."""
    if len(ops) == 0:
        return 0.0
    return float(np.max(ops.ends) - float(ops.starts[0]))
