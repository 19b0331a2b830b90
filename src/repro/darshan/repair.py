"""Best-effort repair of corrupted traces (extension experiment).

MOSAIC evicts corrupted traces outright — 32% of the Blue Waters 2019
corpus (Fig. 3).  This module implements the obvious alternative:
conservative repair heuristics for each violation class, so the funnel
experiment can quantify how much of the evicted data is mechanically
recoverable (and DESIGN.md can discuss why eviction is still the safer
default: a repaired record is a guess about what the instrumentation
meant to write).

Repairs are conservative by construction:

* inverted windows are swapped (pure transposition errors);
* timestamps slightly past the job end are clamped; wildly past it the
  record is dropped;
* the paper's dealloc-before-end case extends the close timestamp to
  the recorded activity end (the activity evidently happened);
* records with negative counters or byte counts without windows are
  dropped entirely — their content cannot be trusted;
* a negative runtime or non-positive rank count invalidates the whole
  trace: unrepairable.

:func:`repair_rows` applies every rule to a batch's record columns at
once, each rule a mask; ``repro.testing.repair_trace`` is the
per-``Trace`` oracle it is held to.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from .counters import NO_TIMESTAMP
from .io_binary import RECORD_DTYPE
from .validate import _COUNTERS, END_SLACK, _py_max, violation_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .source import RecordBatch

__all__ = ["MAX_CLAMP_FACTOR", "repair_rows"]

#: Records whose timestamps exceed the runtime by more than this factor
#: are dropped instead of clamped.
MAX_CLAMP_FACTOR = 1.5

#: The record fields repair may rewrite.
_TIMES = ("open_start", "close_end", "read_start", "read_end", "write_start", "write_end")

#: A record with no counts and no windows.
_BLANK = np.array(
    tuple(NO_TIMESTAMP if name in _TIMES else 0 for name in RECORD_DTYPE.names), dtype=RECORD_DTYPE
)


def _clamp(
    lo: np.ndarray, end: np.ndarray, past: np.ndarray, run_time: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windows ``[lo, end]``, each that ends ``past`` the job end
    clamped to ``[min(lo, run_time), run_time]`` (Python ``min``), and
    the mask of those too far past it (:data:`MAX_CLAMP_FACTOR`) to clamp."""
    too_far = past & (end > MAX_CLAMP_FACTOR * _py_max(run_time, 1.0))
    clamp = past & ~too_far
    return np.where(clamp & (run_time < lo), run_time, lo), np.where(clamp, run_time, end), too_far


def _fix_records(records: np.ndarray, run_time: np.ndarray) -> np.ndarray:
    """Repair ``records`` in place, each against its trace's
    ``run_time``; returns the mask of records to keep.

    The rules run in the order a record meets them: counters, then the
    read and write windows (swap, then clamp or drop), then the
    metadata window (swap, extend, then clamp or drop) or its rebuild
    from activity.  Where a rule takes a Python ``max`` or ``min``, so
    does the mask (:func:`~repro.darshan.validate._py_max`), so a NaN
    time fares as it does in ``repro.testing.repair_trace``.
    """
    drop = np.zeros(len(records), dtype=bool)
    for label in _COUNTERS:
        drop |= records[label] < 0
    hi = run_time + END_SLACK
    for lo_f, hi_f, n_f in (
        ("read_start", "read_end", "bytes_read"),
        ("write_start", "write_end", "bytes_written"),
    ):
        lo, end = records[lo_f], records[hi_f]
        present = (lo >= 0.0) | (end >= 0.0)
        half_open = present & ((lo < 0.0) | (end < 0.0))
        whole = present & ~half_open
        swap = whole & (end < lo)
        lo, end = np.where(swap, end, lo), np.where(swap, lo, end)
        records[lo_f], records[hi_f], too_far = _clamp(lo, end, whole & (end > hi), run_time)
        drop |= ((records[n_f] > 0) & ~present) | half_open | too_far

    opened, closed = records["open_start"], records["close_end"]
    both = (opened >= 0.0) & (closed >= 0.0)
    swap = both & (closed < opened)
    opened, closed = np.where(swap, closed, opened), np.where(swap, opened, closed)
    # the paper's dealloc-before-end case: the data window proves the
    # file was still in use, so trust it
    last_activity = _py_max(records["read_end"], records["write_end"])
    extend = both & (last_activity >= 0.0) & (closed < last_activity)
    closed = np.where(extend, last_activity, closed)
    opened, closed, too_far = _clamp(opened, closed, both & (closed > hi), run_time)
    rebuild = ~both & (records["opens"] > 0)
    anchor = _py_max(_py_max(records["read_start"], records["write_start"]), 0.0)
    records["open_start"] = np.where(rebuild, anchor, opened)
    records["close_end"] = np.where(rebuild, _py_max(last_activity, anchor), closed)
    return ~(drop | too_far)


def repair_rows(batch: "RecordBatch", rows: np.ndarray) -> tuple["RecordBatch", np.ndarray]:
    """Repair the traces of ``batch`` that the boolean mask ``rows``
    marks, each a readable trace that
    :func:`~repro.darshan.validate.violation_matrix` flags.

    A trace whose job header has a non-positive runtime or rank count
    is unrepairable.  Every other trace's records are fixed as columns
    (:func:`_fix_records`) and those dropped compacted away; the trace
    is recovered when one ``violation_matrix`` call over the results
    flags nothing.  Returns ``batch`` with each recovered trace's
    records and file names replaced by its repaired ones (no header
    changes), and the mask of the traces recovered.
    """
    counts = batch.counts
    tried = rows & ~batch.unreadable & ~((batch.run_time <= 0.0) | (batch.nprocs <= 0))
    recovered = np.zeros(len(counts), dtype=bool)
    if not tried.any():
        return batch, recovered
    owner = np.repeat(np.arange(len(counts)), counts)
    at = np.flatnonzero(tried[owner])
    fixed = batch.records[at]
    keep = _fix_records(fixed, batch.run_time[owner[at]])
    # a blank record flags nothing, so with the dropped ones blanked one
    # matrix over every tried record gives each tried trace's verdict
    fixed[~keep] = _BLANK
    residual = violation_matrix(fixed, batch.run_time[tried], batch.nprocs[tried], counts[tried])
    recovered[tried] = ~residual.any(axis=1)
    if not recovered.any():
        return batch, recovered

    # one copy of the batch's records, the recovered traces' dropped
    # ones left out, then each kept one's repaired times written in
    moved = recovered[owner[at]]
    keep_all = np.ones(len(batch.records), dtype=bool)
    keep_all[at[moved]] = keep[moved]
    moved &= keep
    records = batch.records[keep_all]
    dest = (np.cumsum(keep_all) - 1)[at[moved]]
    for name in _TIMES:
        records[name][dest] = fixed[name][moved]
    new_counts = np.bincount(owner[keep_all], minlength=len(counts))
    names = list(batch._names)
    ends = np.cumsum(counts)
    for i in np.flatnonzero(new_counts != counts).tolist():
        kept = keep_all[ends[i] - counts[i] : ends[i]].tolist()
        names[i] = list(compress(batch.file_names(i), kept))
    return replace(batch, records=records, counts=new_counts, _names=names), recovered
