"""Store-backed batch categorization: many traces per kernel dispatch.

``categorize_slice`` is the worker entry of the store-backed fast path.
It reattaches the corpus store (per-pid cache, see
:func:`repro.columnar.store.attach`), assembles the slice's flat
operation table per direction, runs concurrent fusion and the
neighbor-merge fixpoint over *all* traces in a handful of segmented
dispatches (:mod:`repro.kernels.batched`), bins every trace's metadata
requests in one closed-form dispatch, and only then loops per trace for the
axis classifiers — which are the exact per-trace functions of
:mod:`repro.core`, fed identical inputs, so categories (and journaled
results) are byte-identical to ``categorize_trace``.

Resource governance is per-slice (docs/COLUMNAR.md): the planner packs
slices so the summed working set respects the ``ResourceBudget``, the
per-trace degradation ladder is assessed from index counts (same
messages as the per-trace path), and stage deadlines are measured over
the slice's batched stages — wall-clock is a slice-level resource here.
"""

from __future__ import annotations

import numpy as np

from ..core.governor import (
    OP_WORKING_SET_BYTES,
    DegradationLevel,
    Governor,
    ResourceBudget,
    subsample_ops,
)
from ..core.metadata import (
    MetadataDetection,
    detect_from_rate,
    insignificant_metadata,
)
from ..core.periodicity import PeriodicityDetection, detect_periodicity
from ..core.result import CategorizationResult
from ..core.temporality import TemporalityDetection, classify_temporality
from ..core.thresholds import DEFAULT_CONFIG, MosaicConfig
from ..darshan.trace import OperationArray
from ..darshan.validate import Violation
from ..kernels import batched, vectorized
from .store import CorpusStore, StoreSlice, attach

__all__ = ["categorize_slice", "plan_slices", "DEFAULT_SLICE_OPS"]

#: Default per-slice operation budget when no ``ResourceBudget`` bounds
#: it: large enough to amortize dispatch, small enough to keep worker
#: result latency (and journal granularity) reasonable.
DEFAULT_SLICE_OPS = 262_144

#: Hard cap on traces per slice regardless of how tiny they are.
MAX_SLICE_TRACES = 1024

_DIRECTIONS = ("read", "write")


def plan_slices(
    store: CorpusStore,
    rows: list[int],
    *,
    budget: ResourceBudget | None = None,
    target_ops: int = DEFAULT_SLICE_OPS,
    max_traces: int = MAX_SLICE_TRACES,
) -> list[StoreSlice]:
    """Pack rows into :class:`StoreSlice` descriptors.

    The per-slice working set is bounded: a slice's summed operation
    count stays under ``max(budget.max_ops, target_ops)`` (and its
    estimated bytes under ``budget.max_bytes`` when set) — the
    ``ResourceBudget`` enforced per slice rather than per trace.  A
    single over-budget trace still gets its own slice; its *ladder*
    level is assessed inside the worker.
    """
    cap_ops = target_ops
    cap_bytes = 0
    if budget is not None and not budget.unlimited:
        if budget.max_ops > 0:
            cap_ops = max(budget.max_ops, target_ops)
        if budget.max_bytes > 0:
            cap_bytes = max(
                budget.max_bytes, target_ops * OP_WORKING_SET_BYTES
            )

    idx = store.index
    slices: list[StoreSlice] = []
    current: list[int] = []
    acc_ops = 0
    n_read = idx["n_read_ops"][rows].tolist()
    n_write = idx["n_write_ops"][rows].tolist()
    for row, n_r, n_w in zip(rows, n_read, n_write):
        n_ops = n_r + n_w
        over = current and (
            acc_ops + n_ops > cap_ops
            or len(current) >= max_traces
            or (
                cap_bytes
                and (acc_ops + n_ops) * OP_WORKING_SET_BYTES > cap_bytes
            )
        )
        if over:
            slices.append(StoreSlice(path=store.path, rows=tuple(current)))
            current = []
            acc_ops = 0
        current.append(row)
        acc_ops += n_ops
    if current:
        slices.append(StoreSlice(path=store.path, rows=tuple(current)))
    return slices


def _flagged_result(
    store: CorpusStore, row: int, run_time: float, governor: Governor
) -> CategorizationResult:
    """Identity-only partial result, mirroring the per-trace path."""
    r = store.index[row]
    return CategorizationResult(
        job_id=int(r["job_id"]),
        uid=int(r["uid"]),
        exe=store.string(int(r["exe_off"]), int(r["exe_len"])),
        nprocs=int(r["nprocs"]),
        run_time=run_time,
        categories=frozenset(),
        degradation=DegradationLevel.FLAGGED,
        budget_violations=tuple(
            f"{Violation.RESOURCE_BUDGET.value}: {reason}"
            for reason in governor.violations
        ),
    )


def _gather_direction(
    store: CorpusStore,
    rows: list[int],
    direction: str,
    caps: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate one direction's raw op slabs (subsampled where capped)."""
    starts: list[np.ndarray] = []
    ends: list[np.ndarray] = []
    volumes: list[np.ndarray] = []
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, row in enumerate(rows):
        lo, hi = store.ops_bounds(row, direction)
        cap = caps[i]
        if cap > 0 and hi - lo > cap:
            ops = subsample_ops(
                OperationArray(
                    store.ops_starts[lo:hi],
                    store.ops_ends[lo:hi],
                    store.ops_volumes[lo:hi],
                ),
                cap,
            )
            starts.append(ops.starts)
            ends.append(ops.ends)
            volumes.append(ops.volumes)
            offsets[i + 1] = offsets[i] + len(ops)
        else:
            starts.append(store.ops_starts[lo:hi])
            ends.append(store.ops_ends[lo:hi])
            volumes.append(store.ops_volumes[lo:hi])
            offsets[i + 1] = offsets[i] + (hi - lo)
    empty = np.empty(0, dtype=np.float64)
    return (
        np.concatenate(starts) if starts else empty,
        np.concatenate(ends) if ends else empty,
        np.concatenate(volumes) if volumes else empty,
        offsets,
    )


def _merge_batch(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    offsets: np.ndarray,
    run_times: np.ndarray,
    config: MosaicConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Concurrent fusion + neighbor fixpoint over the whole slice.

    The per-pass kernels are the segmented twins of the per-trace merge
    (:func:`repro.merge.pipeline.preprocess_operations`); segment walls
    make every trace's fixpoint identical to its solo merge.
    """
    if len(starts):
        groups = batched.overlap_groups_segmented(starts, ends, offsets)
        new_offsets = batched.group_offsets(groups, offsets)
        starts, ends, volumes = vectorized.coalesce_groups(
            starts, ends, volumes, groups
        )
        offsets = new_offsets
    cfg = config.merge
    abs_gaps = cfg.runtime_fraction * np.maximum(run_times, 0.0)
    for _ in range(cfg.max_passes):
        starts, ends, volumes, offsets, changed = (
            batched.neighbor_pass_segmented(
                starts, ends, volumes, offsets, abs_gaps, cfg.op_fraction
            )
        )
        if not changed:
            break
    return starts, ends, volumes, offsets


def _batch_metadata(
    store: CorpusStore,
    rows: list[int],
    run_times: np.ndarray,
    config: MosaicConfig,
) -> list[MetadataDetection]:
    """Metadata axis for a slice: one segmented binning dispatch.

    Bitwise-identical to :func:`repro.core.metadata.classify_metadata`:
    both feed the same record columns to the same closed-form kernel,
    and the rate rules run on each trace's own bin slice.
    """
    idx = store.index
    totals = idx["total_meta_ops"][rows].tolist()
    nprocs = idx["nprocs"][rows].tolist()
    out: list[MetadataDetection | None] = [None] * len(rows)
    binned: list[int] = []
    for i, total in enumerate(totals):
        threshold = config.metadata_min_ops_per_rank * max(nprocs[i], 1)
        if total < threshold:
            out[i] = insignificant_metadata(total)
        else:
            binned.append(i)
    if binned:
        *columns, offsets = store.metadata_events_batch(
            [rows[i] for i in binned]
        )
        width = config.metadata_bin_seconds
        values, bin_offsets = batched.bin_events_segmented(
            *columns,
            offsets,
            np.maximum(run_times[binned], width),
            width,
        )
        values /= width
        for j, i in enumerate(binned):
            rate = values[bin_offsets[j] : bin_offsets[j + 1]]
            out[i] = detect_from_rate(totals[i], rate, config)
    return [m for m in out if m is not None]


def categorize_slice(
    task: StoreSlice, config: MosaicConfig = DEFAULT_CONFIG
) -> list[CategorizationResult]:
    """Categorize every trace of one store slice; results in row order.

    The worker-side unit of the store-backed fast path.  Reattaches via
    the per-pid cache, so a rebuilt pool (or a resumed run) re-opens the
    store read-only instead of inheriting a descriptor.
    """
    store = attach(task.path)
    rows = list(task.rows)
    idx = store.index
    run_times = (
        idx["end_time"][rows].astype(np.float64)
        - idx["start_time"][rows]
    )

    governors = [Governor(config.budget) for _ in rows]
    n_read = idx["n_read_ops"][rows].tolist()
    n_write = idx["n_write_ops"][rows].tolist()
    for governor, n_r, n_w in zip(governors, n_read, n_write):
        governor.admit_cost(n_r + n_w, (n_r + n_w) * OP_WORKING_SET_BYTES)

    active = [i for i, g in enumerate(governors) if g.allows_axes()]
    active_rows = [rows[i] for i in active]
    active_times = run_times[active]

    # -- batched merge stage (both directions) --------------------------
    merged: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
    for direction in _DIRECTIONS:
        caps = [governors[i].ops_cap() for i in active]
        s, e, v, offsets = _gather_direction(
            store, active_rows, direction, caps
        )
        merged[direction] = _merge_batch(
            s, e, v, offsets, active_times, config
        )
    for i in active:
        governors[i].check_deadline("merge")

    # -- batched metadata binning ---------------------------------------
    metadata = _batch_metadata(store, active_rows, active_times, config)

    # -- per-trace axis classification ----------------------------------
    results: list[CategorizationResult] = []
    pos_of = {i: k for k, i in enumerate(active)}
    for i, row in enumerate(rows):
        governor = governors[i]
        run_time = float(run_times[i])
        if i not in pos_of:
            results.append(_flagged_result(store, row, run_time, governor))
            continue
        k = pos_of[i]
        temporality: list[TemporalityDetection] = []
        periodicity: list[PeriodicityDetection] = []
        for direction in _DIRECTIONS:
            s, e, v, offsets = merged[direction]
            lo, hi = int(offsets[k]), int(offsets[k + 1])
            ops = (
                OperationArray(s[lo:hi].copy(), e[lo:hi].copy(), v[lo:hi].copy())
                if hi > lo
                else OperationArray.empty()
            )
            temp = classify_temporality(ops, run_time, direction, config)
            temporality.append(temp)
            significant = ops.total_volume >= config.insignificant_bytes
            if significant and governor.allows_periodicity():
                periodicity.append(
                    detect_periodicity(ops, run_time, direction, config)
                )
            else:
                periodicity.append(
                    PeriodicityDetection(
                        direction=direction, groups=(), n_segments=0
                    )
                )
        governor.check_deadline("axes")
        r = idx[row]
        results.append(
            CategorizationResult.build(
                job_id=int(r["job_id"]),
                uid=int(r["uid"]),
                exe=store.string(int(r["exe_off"]), int(r["exe_len"])),
                nprocs=int(r["nprocs"]),
                run_time=run_time,
                temporality=temporality,
                periodicity=periodicity,
                metadata=metadata[k],
                config=config,
                degradation=governor.level,
                budget_violations=tuple(governor.violations),
            )
        )
    return results
