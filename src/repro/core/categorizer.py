"""The categorizer: merging ② + categorization ③ + output ④.

:func:`categorize_batch` is the one implementation of the paper's
per-trace procedure, run over a batch of traces given as columns.  It
admits every trace on the degradation ladder from its operation count
(docs/ROBUSTNESS.md), merges each direction of the whole batch in one
dispatch per merge kernel (looked up through
:func:`repro.kernels.get_backend`), bins every trace's metadata in one
dispatch, then classifies temporality and periodicity trace by trace.
No merge or bin crosses a trace, so a batch of N traces gives the
results of N batches of one.

``categorize_trace`` is the batch of one trace: the unit the streaming
pipeline distributes, and the single-application entry point the paper
envisions for feeding a job scheduler.  The store route
(:func:`repro.columnar.batch.categorize_slice`) passes a whole slice.
The default budget is unlimited, so no trace is governed.
"""

from __future__ import annotations

from itertools import count
from operator import sub
from typing import Any, get_args

import numpy as np

from ..darshan.trace import Direction, OperationArray, Trace
from ..merge.concurrent import fuse_segments
from ..merge.neighbor import merge_neighbor_segments
from .governor import Governor, subsample_ops
from .metadata import MetadataGather, classify_metadata_batch, trace_metadata_events
from .periodicity import PeriodicityDetection, detect_periodicity
from .result import CategorizationResult
from .temporality import TemporalityDetection, classify_temporality
from .thresholds import DEFAULT_CONFIG, MosaicConfig

# Bound by perfbench/tracer.py's per-layer spans (ROADMAP item 1 retires
# that tracer); the categorizer itself no longer calls them.
from ..merge.pipeline import preprocess_operations  # noqa: F401
from .metadata import classify_metadata  # noqa: F401

__all__ = ["OpSlabs", "categorize_batch", "categorize_trace"]

_DIRECTIONS: tuple[Direction, ...] = get_args(Direction)
_EMPTY = np.empty(0, dtype=np.float64)

#: One direction's raw operations of a batch: ``(starts, ends, volumes,
#: lo, hi)``, row ``i``'s operations, sorted by start, being
#: ``[lo[i], hi[i])`` of the three columns.
OpSlabs = tuple[np.ndarray, np.ndarray, np.ndarray, list[int], list[int]]


def _holds_two(offsets: list[int]) -> bool:
    """True when some row of ``offsets`` holds two operations or more."""
    return max(map(sub, offsets[1:], offsets), default=0) > 1


def _merged(
    slabs: OpSlabs,
    rows: list[int],
    governors: list[Governor],
    run_times: list[float],
    config: MosaicConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Gather one direction of ``rows`` and merge it: the merged columns
    and each row's offsets.

    A row its governor caps is stride-subsampled first.  A merge step is
    skipped while no row holds two operations: a lone one merges with
    nothing.
    """
    starts, ends, volumes, lo, hi = slabs
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    offsets = [0]
    for row in rows:
        a, b = lo[row], hi[row]
        part = (starts[a:b], ends[a:b], volumes[a:b])
        cap = governors[row].ops_cap()
        if 0 < cap < b - a:
            ops = subsample_ops(OperationArray(*part), cap)
            part = (ops.starts, ops.ends, ops.volumes)
        parts.append(part)
        offsets.append(offsets[-1] + len(part[0]))
    if len(parts) == 1:
        s, e, v = parts[0]
    else:
        s, e, v = (np.concatenate([p[k] for p in parts] or [_EMPTY]) for k in range(3))
    if _holds_two(offsets):
        s, e, v, fused = fuse_segments(s, e, v, np.array(offsets))
        offsets = fused.tolist()
        if _holds_two(offsets):
            s, e, v, fused, _ = merge_neighbor_segments(
                s, e, v, fused, run_times, config.merge
            )
            offsets = fused.tolist()
    return s, e, v, offsets


def categorize_batch(
    identity: list[tuple[int, int, str, int]],
    run_times: list[float],
    ops: tuple[OpSlabs, OpSlabs],
    meta_totals: list[int],
    meta_gather: MetadataGather,
    config: MosaicConfig = DEFAULT_CONFIG,
) -> list[CategorizationResult]:
    """Categorize a batch of traces; results in row order.

    Row ``i`` is the trace ``identity[i] = (job_id, uid, exe, nprocs)``
    of run time ``run_times[i]``, with its read and write operations in
    ``ops`` and ``meta_totals[i]`` metadata requests; ``meta_gather``
    returns the metadata records of the rows the metadata axis bins.
    Each direction is fused, chunked for temporality and segmented for
    periodicity (§III-B2); an insignificant direction (< 100 MB) skips
    periodicity.  Stage deadlines are checked as docs/ROBUSTNESS.md
    lays out: ``"merge"`` and ``"metadata"`` after the batched stages,
    then ``"temporality"`` and ``"periodicity"`` per direction, on a
    clock restarted when the trace's own axes begin.
    """
    read, write = ops
    governors = [Governor(config.budget) for _ in identity]
    active: list[int] = []
    for i, a, b, c, d in zip(count(), read[3], read[4], write[3], write[4]):
        governors[i].admit_cost(b - a + d - c)
        if governors[i].allows_axes():
            active.append(i)
    times = [run_times[i] for i in active]
    merged = (
        _merged(read, active, governors, times, config),
        _merged(write, active, governors, times, config),
    )
    for i in active:
        governors[i].check_deadline("merge")
    metadata = classify_metadata_batch(
        [meta_totals[i] for i in active],
        [identity[i][3] for i in active],
        times,
        lambda rows: meta_gather([active[j] for j in rows]),
        config,
    )
    for i in active:
        governors[i].check_deadline("metadata")

    results: list[CategorizationResult] = []
    k = 0
    for i, (job_id, uid, exe, nprocs) in enumerate(identity):
        governor, run_time = governors[i], run_times[i]
        ident: dict[str, Any] = dict(
            job_id=job_id, uid=uid, exe=exe, nprocs=nprocs, run_time=run_time
        )
        if not governor.allows_axes():
            results.append(
                CategorizationResult.flagged(**ident, violations=governor.violations)
            )
            continue
        governor.start_stage()
        temporality: list[TemporalityDetection] = []
        periodicity: list[PeriodicityDetection] = []
        for direction, (s, e, v, offsets) in zip(_DIRECTIONS, merged):
            lo, hi = offsets[k], offsets[k + 1]
            merged_ops = OperationArray(s[lo:hi], e[lo:hi], v[lo:hi])
            temporality.append(
                classify_temporality(merged_ops, run_time, direction, config)
            )
            governor.check_deadline("temporality")
            significant = merged_ops.total_volume >= config.insignificant_bytes
            periodicity.append(
                detect_periodicity(merged_ops, run_time, direction, config)
                if significant and governor.allows_periodicity()
                else PeriodicityDetection(direction=direction, groups=(), n_segments=0)
            )
            governor.check_deadline("periodicity")
        results.append(
            CategorizationResult.build(
                **ident,
                temporality=temporality,
                periodicity=periodicity,
                metadata=metadata[k],
                config=config,
                degradation=governor.level,
                budget_violations=tuple(governor.violations),
            )
        )
        k += 1
    return results


def categorize_trace(
    trace: Trace, config: MosaicConfig = DEFAULT_CONFIG
) -> CategorizationResult:
    """Categorize one trace: :func:`categorize_batch` over its one row."""
    meta = trace.meta
    read, write = trace.operations("read"), trace.operations("write")
    return categorize_batch(
        [(meta.job_id, meta.uid, meta.exe, meta.nprocs)],
        [meta.run_time],
        (
            (read.starts, read.ends, read.volumes, [0], [len(read)]),
            (write.starts, write.ends, write.volumes, [0], [len(write)]),
        ),
        [trace.total_metadata_ops],
        lambda _rows: trace_metadata_events(trace),
        config,
    )[0]
