"""Store-backed batch categorization: many traces per kernel dispatch.

``categorize_slice`` is the worker entry of the store-backed fast path.
It reattaches the corpus store (per-pid cache, see
:func:`repro.columnar.store.attach`) and hands the slice's rows to the
one categorizer, :func:`repro.core.categorizer.categorize_batch`, as
columns: the store's flat operation table with each row's read and
write slab bounds, and a gather of the rows' metadata records.  The
categorizer merges and bins the whole slice in a handful of segmented
dispatches and then runs the per-trace axes, so results (and journaled
results) are byte-identical to ``categorize_trace``.

Resource governance is per-slice (docs/COLUMNAR.md): the planner packs
slices so the summed working set respects the ``ResourceBudget``, and
the categorizer places every trace on the degradation ladder from its
index counts.
"""

from __future__ import annotations

import numpy as np

from ..core.categorizer import MAX_SLICE_TRACES, categorize_batch
from ..core.governor import OP_WORKING_SET_BYTES, ResourceBudget
from ..core.result import CategorizationResult
from ..core.thresholds import DEFAULT_CONFIG, MosaicConfig
from .store import CorpusStore, StoreSlice, attach

# Bound by perfbench/tracer.py's per-layer spans (ROADMAP item 1 retires
# that tracer); this module no longer calls them.
from ..core.metadata import detect_from_rate  # noqa: F401
from ..core.periodicity import detect_periodicity  # noqa: F401
from ..core.temporality import classify_temporality  # noqa: F401

__all__ = ["categorize_slice", "plan_slices", "DEFAULT_SLICE_OPS"]

#: Default per-slice operation budget when no ``ResourceBudget`` bounds
#: it: large enough to amortize dispatch, small enough to keep worker
#: result latency (and journal granularity) reasonable.
DEFAULT_SLICE_OPS = 262_144


def plan_slices(
    store: CorpusStore,
    rows: list[int],
    *,
    budget: ResourceBudget | None = None,
    target_ops: int = DEFAULT_SLICE_OPS,
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
            or len(current) >= MAX_SLICE_TRACES
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
    index = store.index

    def column(name: str) -> np.ndarray:
        return index[name][rows]

    read_lo = column("ops_off").astype(np.int64)
    write_lo = read_lo + column("n_read_ops")
    write_hi = write_lo + column("n_write_ops")
    bounds = [b.tolist() for b in (read_lo, write_lo, write_hi)]
    columns = (store.ops_starts, store.ops_ends, store.ops_volumes)
    identity = [
        (job_id, uid, store.string(exe_off, exe_len), nprocs)
        for job_id, uid, exe_off, exe_len, nprocs in zip(
            *(column(f).tolist() for f in ("job_id", "uid", "exe_off", "exe_len", "nprocs"))
        )
    ]
    return categorize_batch(
        identity,
        (column("end_time").astype(np.float64) - column("start_time")).tolist(),
        ((*columns, bounds[0], bounds[1]), (*columns, bounds[1], bounds[2])),
        column("total_meta_ops").tolist(),
        lambda picked: store.metadata_events_batch([rows[i] for i in picked]),
        config,
    )
