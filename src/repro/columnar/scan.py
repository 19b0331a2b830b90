"""Pass ① over a compiled store: the eviction funnel without decoding.

The streaming scan (:func:`repro.core.preprocess.scan_corpus`) decodes
and validates every trace on every run.  A compiled store did that work
once at ``compile_corpus`` time and recorded the outcome per trace — the
violation bitmask, the repair bit, the ``io_weight`` — so the
store-backed scan replays the exact same funnel (same counters, same
keep-heaviest winners, same tie-breaks, same ``selected`` order) from
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
    n_repaired = 0
    if store.n_unreadable:
        corruption[Violation.UNREADABLE] += store.n_unreadable

    idx = store.index
    masks = idx["violations"]
    n_repaired = int(idx["repaired"].astype(np.int64).sum())
    valid = masks == 0
    n_corrupted = store.n_unreadable + int(np.count_nonzero(~valid))
    # valid rows carry mask 0, so counting bits over all rows counts
    # exactly the invalid ones — same histogram as the per-row loop
    for violation in Violation:
        hits = int(np.count_nonzero(masks & violation_bit(violation)))
        if hits:
            corruption[violation] += hits

    v_rows = np.flatnonzero(valid)
    weights = idx["io_weight"][v_rows]
    job_ids = idx["job_id"][v_rows]
    if np.isnan(weights).any():
        # NaN weights make every comparison False in the reference loop;
        # no sort order reproduces that, so replay it literally
        best, runs_per_app = _keep_heaviest_python(store, v_rows)
    else:
        best, runs_per_app = _keep_heaviest(
            store, v_rows, weights, job_ids, idx
        )

    selected = sorted(best.values(), key=lambda e: e.job_id)
    return SelectionPlan(
        selected=selected,
        runs_per_app=runs_per_app,
        n_input=store.n_traces + store.n_unreadable,
        n_corrupted=n_corrupted,
        corruption_histogram=corruption,
        n_repaired=n_repaired,
        n_unreadable=store.n_unreadable,
    )


def _keep_heaviest(
    store: CorpusStore,
    v_rows: np.ndarray,
    weights: np.ndarray,
    job_ids: np.ndarray,
    idx: np.ndarray,
) -> tuple[dict[tuple[int, str], SelectedRef], dict[tuple[int, str], int]]:
    """Vectorized keep-heaviest over the valid rows.

    Applications group by ``(uid, exe_off)`` — the string heap is
    deduplicated at compile time, so equal executables share one heap
    offset and no string is materialized until a group resolves.  Sort
    order reproduces the scalar funnel exactly: heaviest weight wins,
    ties fall to the lowest job id, then to the first row seen; the
    returned dict iterates in first-seen order like the scalar one, so
    the caller's job-id sort breaks *its* ties identically.
    """
    best: dict[tuple[int, str], SelectedRef] = {}
    runs_per_app: dict[tuple[int, str], int] = {}
    if not len(v_rows):
        return best, runs_per_app
    uid = idx["uid"][v_rows]
    exe_off = idx["exe_off"][v_rows]
    order = np.lexsort((job_ids, -weights, exe_off, uid))
    su, se = uid[order], exe_off[order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    starts[1:] = (su[1:] != su[:-1]) | (se[1:] != se[:-1])
    group_start = np.flatnonzero(starts)
    counts = np.diff(group_start, append=len(order))
    winners = v_rows[order[group_start]]
    # dict insertion order must be first-seen row order, not sort order
    first_seen = np.minimum.reduceat(v_rows[order], group_start)
    for g in np.argsort(first_seen, kind="stable"):
        row = int(winners[g])
        key = store.app_key(row)
        runs_per_app[key] = int(counts[g])
        best[key] = SelectedRef(
            ref=TraceRef(key=row),
            job_id=int(idx[row]["job_id"]),
            app_key=key,
            io_weight=float(idx[row]["io_weight"]),
            repaired=bool(idx[row]["repaired"]),
        )
    return best, runs_per_app


def _keep_heaviest_python(
    store: CorpusStore, v_rows: np.ndarray
) -> tuple[dict[tuple[int, str], SelectedRef], dict[tuple[int, str], int]]:
    """Literal replay of the streaming funnel's comparison chain."""
    idx = store.index
    best: dict[tuple[int, str], SelectedRef] = {}
    runs_per_app: dict[tuple[int, str], int] = {}
    for row in (int(r) for r in v_rows):
        key = store.app_key(row)
        runs_per_app[key] = runs_per_app.get(key, 0) + 1
        weight = float(idx[row]["io_weight"])
        job_id = int(idx[row]["job_id"])
        current = best.get(key)
        if (
            current is None
            or weight > current.io_weight
            or (weight == current.io_weight and job_id < current.job_id)
        ):
            best[key] = SelectedRef(
                ref=TraceRef(key=row),
                job_id=job_id,
                app_key=key,
                io_weight=weight,
                repaired=bool(idx[row]["repaired"]),
            )
    return best, runs_per_app

