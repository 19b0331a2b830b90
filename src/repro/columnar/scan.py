"""Pass ① over a compiled store: the eviction funnel without decoding.

The streaming scan (:func:`repro.core.preprocess.scan_corpus`) decodes
and validates every trace on every run.  A compiled store did that work
once at ``compile_corpus`` time and recorded the outcome per trace — the
violation bitmask, the repair bit, the byte and metadata totals — so the
store-backed scan replays the exact same funnel (same counters, same
keep-heaviest winners, same tie-breaks, same ``refs`` order) from
the index alone.  ``n_unreadable`` payloads were counted into the header
at compile time and re-enter ``n_input`` here, keeping the Fig. 3 funnel
identical to the streaming one.

Repair is a *compile-time* property of a store: ``scan_store`` refuses a
``repair`` flag that disagrees with how the store was compiled rather
than silently producing a differently-filtered corpus.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..core.preprocess import SelectedRef, SelectionPlan
from ..darshan.source import TraceRef
from .store import CorpusStore

__all__ = ["scan_store"]


def scan_store(store: CorpusStore, *, repair: bool = False) -> SelectionPlan:
    """Replay pass ① from the trace index; no trace is decoded.

    Returns a plan whose ``SelectedRef.ref.key`` is the winning trace's
    *row* in ``store`` — the store-backed pipeline feeds rows straight
    to the slice planner.

    Keep-heaviest is one sort over the valid rows.  A row weighs
    ``Trace.io_weight()`` in closed form, ``float(total_bytes) +
    float(total_meta_ops)`` over the index's int64 totals: the
    ``io_weight`` that ``compile_corpus`` stores, and never NaN.
    Applications group by ``(uid, exe_off)`` — the string heap is
    deduplicated at compile time, so equal executables share one heap
    offset and no string is materialized until a group resolves.
    Heaviest weight wins, ties fall to the lowest job id, then to the
    first row seen; applications enter the plan in first-seen order
    like the streaming fold's, so the job-id sort breaks *its* ties
    identically.
    """
    if repair != store.compiled_with_repair:
        state = "with" if store.compiled_with_repair else "without"
        want = "with" if repair else "without"
        raise ValueError(
            f"store {store.path!r} was compiled {state} repair but the "
            f"pipeline asked for {want}; recompile the store (repair is "
            f"baked in at compile time)"
        )

    from ..darshan.validate import Violation
    from .format import violation_bit

    corruption: Counter = Counter()
    if store.n_unreadable:
        corruption[Violation.UNREADABLE] += store.n_unreadable
    idx = store.index
    masks = idx["violations"]
    # valid rows carry mask 0, so counting bits over all rows counts
    # exactly the invalid ones — same histogram as the per-row loop
    for violation in Violation:
        hits = int(np.count_nonzero(masks & violation_bit(violation)))
        if hits:
            corruption[violation] += hits

    v_rows = np.flatnonzero(masks == 0)
    uid, exe_off, job_id = (idx[name][v_rows] for name in ("uid", "exe_off", "job_id"))
    weights = (
        idx["total_bytes"][v_rows].astype(float)
        + idx["total_meta_ops"][v_rows].astype(float)
    )
    order = np.lexsort((job_id, -weights, exe_off, uid))
    su, se = uid[order], exe_off[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (su[1:] != su[:-1]) | (se[1:] != se[:-1])
    group_start = np.flatnonzero(starts)
    counts = np.diff(group_start, append=len(order)).tolist()
    win = order[group_start]
    rows, repaired = v_rows[win].tolist(), idx["repaired"][v_rows[win]].tolist()
    job_ids, win_weights = job_id[win].tolist(), weights[win].tolist()
    refs: list[SelectedRef] = []
    runs_per_app: dict[tuple[int, str], int] = {}
    first_seen = np.minimum.reduceat(v_rows[order], group_start)
    for g in np.argsort(first_seen, kind="stable").tolist():
        key = store.app_key(rows[g])
        runs_per_app[key] = counts[g]
        refs.append(
            SelectedRef(
                ref=TraceRef(key=rows[g]),
                job_id=job_ids[g],
                app_key=key,
                io_weight=win_weights[g],
                repaired=bool(repaired[g]),
            )
        )
    return SelectionPlan(
        refs=sorted(refs, key=lambda e: e.job_id),
        runs_per_app=runs_per_app,
        n_input=store.n_traces + store.n_unreadable,
        n_corrupted=store.n_unreadable + len(masks) - len(v_rows),
        corruption_histogram=corruption,
        n_repaired=int(np.count_nonzero(idx["repaired"])),
        n_unreadable=store.n_unreadable,
    )
