"""Pass ① over a compiled store: the eviction funnel without decoding.

A compiled store recorded, per trace, what the streaming scan
(:func:`repro.core.preprocess.scan_corpus`) computes on every run: the
violation bitmask, the repair bit, the byte and metadata totals.  The
store-backed scan feeds that index, as columns, to the streaming scan's
own fold (``repro.core.preprocess._Fold``), so one piece of code
decides the counters, keep-heaviest winners, tie-breaks, ``refs`` order
and corruption-cause order (``VIOLATION_COLUMNS`` order) on both
routes.  The ``n_unreadable`` payloads counted into the header at
compile time are seeded into the fold, keeping the Fig. 3 funnel
identical to the streaming one.

Repair is a *compile-time* property of a store: ``scan_store`` refuses a
``repair`` flag that disagrees with how the store was compiled rather
than silently producing a differently-filtered corpus.
"""

from __future__ import annotations

import numpy as np

from ..core.preprocess import SelectionPlan, _Fold
from ..darshan.source import TraceRef
from .format import VIOLATION_BITS
from .store import CorpusStore

__all__ = ["scan_store"]


def scan_store(store: CorpusStore, *, repair: bool = False) -> SelectionPlan:
    """Replay pass ① from the trace index; no trace is decoded.

    Returns a plan whose ``SelectedRef.ref.key`` is the winning trace's
    *row* in ``store`` — the store-backed pipeline feeds rows straight
    to the slice planner.

    Each row's causes are the bits of its ``violations`` mask and its
    weight ``float(total_bytes) + float(total_meta_ops)``, the
    ``io_weight`` ``compile_corpus`` stores.  Applications are coded by
    ``(uid, exe_off)``: the heap is deduplicated, so equal executables
    share an offset and only winners' names are read.
    """
    if repair != store.compiled_with_repair:
        state = "with" if store.compiled_with_repair else "without"
        want = "with" if repair else "without"
        raise ValueError(
            f"store {store.path!r} was compiled {state} repair but the "
            f"pipeline asked for {want}; recompile the store (repair is "
            f"baked in at compile time)"
        )

    idx = store.index
    order = np.lexsort((idx["exe_off"], idx["uid"]))
    new_app = np.ones(len(order), dtype=bool)
    new_app[1:] = (np.diff(idx["uid"][order]) != 0) | (np.diff(idx["exe_off"][order]) != 0)
    apps = np.empty(len(order), dtype=np.int64)
    apps[order] = np.cumsum(new_app)

    fold = _Fold(n_unreadable=store.n_unreadable)
    fold.add(
        (idx["violations"][:, None] & VIOLATION_BITS) != 0,
        np.flatnonzero(idx["repaired"]),
        idx["total_bytes"].astype(float) + idx["total_meta_ops"].astype(float),
        idx["job_id"],
        apps,
        store.app_key,
        TraceRef,
    )
    return fold.plan()
