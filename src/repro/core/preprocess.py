"""Corpus pre-processing: validity filtering and per-application
deduplication (paper §III-B1, workflow step ①; evaluated in Fig. 3).

On Blue Waters 2019 this stage evicted 32% of 462,502 traces as corrupted
and reduced the remainder to 8% unique executions — 24,606 traces kept
for categorization.  MOSAIC assumes all executions of an application by a
given user share I/O behaviour (validated in the paper: ≈97% of ≈12,000
LAMMPS runs categorize identically) and therefore analyzes only the
heaviest (most I/O-intensive) trace per (user, executable).

At corpus scale this stage is the memory bottleneck if implemented
naively, so it is two-pass and streaming:

* **pass 1** (:func:`scan_corpus`) iterates a lazy
  :class:`~repro.darshan.source.TraceSource` in bounded record batches,
  validating each batch as one array and folding it into bounded dedup
  state — one small :class:`SelectedRef` per application, never the
  traces themselves — and returns a :class:`SelectionPlan`, the one
  record of this stage;
* **pass 2** (:func:`load_selected`, driven by the pipeline) reloads
  only the selected heaviest refs, each in the worker that categorizes
  it.

The batch :func:`preprocess_corpus` API is a thin wrapper running both
passes over an in-memory source.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from ..darshan.repair import repair_trace
from ..darshan.source import (
    InMemorySource,
    RecordBatch,
    TraceRef,
    TraceSource,
    segment_sums,
)
from ..darshan.trace import Trace
from ..darshan.validate import (
    VIOLATION_COLUMNS,
    Violation,
    validate_trace,
    violation_matrix,
)

__all__ = [
    "SelectedRef",
    "SelectionPlan",
    "preprocess_corpus",
    "scan_corpus",
    "load_selected",
]


@dataclass(slots=True, frozen=True)
class SelectedRef:
    """Pass-1 selection decision: the heaviest run of one application.

    Carries everything pass 2 needs to reload and trust the trace —
    the source ref, identity, the keep-heaviest weight it won with, and
    whether repair must be re-applied after reloading.  Equality
    ignores :attr:`ref`, the trace's locator in one source.
    """

    ref: TraceRef = field(compare=False)
    job_id: int
    app_key: tuple[int, str]
    io_weight: float
    repaired: bool = False


@dataclass(slots=True)
class SelectionPlan:
    """Outcome of workflow step ① over a corpus: the Fig. 3 funnel
    counters plus the heaviest run of each application.

    The one pass-① record on every route.  The scans
    (:func:`scan_corpus`, :func:`repro.columnar.scan.scan_store`) fill
    :attr:`refs` and leave :attr:`selected` empty, so no ``Trace``
    survives them; the batch APIs (:func:`preprocess_corpus`,
    :func:`repro.core.pipeline.run_pipeline`) also materialize the
    winners on :attr:`selected`.  Equality compares the selection
    decisions and counters, not where a source keeps its traces, so
    plans of one corpus compare equal whichever route built them.
    """

    #: Winning refs, one per application, sorted by job id.
    refs: list[SelectedRef]
    #: Number of valid runs per application key, for all-runs statistics.
    runs_per_app: dict[tuple[int, str], int]
    n_input: int
    n_corrupted: int
    #: Histogram of corruption causes (a trace may count several).
    corruption_histogram: Counter = field(default_factory=Counter)
    #: Traces recovered by repair heuristics (0 unless ``repair=True``).
    n_repaired: int = 0
    #: Refs whose payload could not even be decoded (counted in
    #: :attr:`n_corrupted` under ``Violation.UNREADABLE``).
    n_unreadable: int = 0
    #: The winners as traces, in :attr:`refs` order; batch APIs only.
    selected: list[Trace] = field(default_factory=list, compare=False)

    @property
    def n_valid(self) -> int:
        return self.n_input - self.n_corrupted

    @property
    def n_selected(self) -> int:
        return len(self.refs)

    @property
    def corrupted_fraction(self) -> float:
        return self.n_corrupted / self.n_input if self.n_input else 0.0

    @property
    def unique_fraction(self) -> float:
        """Share of valid traces that are unique executions — the paper's
        "8% of unique executions in the set of remaining valid traces"."""
        return self.n_selected / self.n_valid if self.n_valid else 0.0

    def funnel(self) -> list[tuple[str, int]]:
        """(stage, count) rows of the Fig. 3 funnel."""
        return [
            ("input_traces", self.n_input),
            ("valid_traces", self.n_valid),
            ("selected_for_categorization", self.n_selected),
        ]


def scan_corpus(source: TraceSource, *, repair: bool = False) -> SelectionPlan:
    """Pass ①: validate every trace and pick the heaviest run per app.

    Folds over the source's :meth:`~TraceSource.record_batches` in ref
    order; state is bounded by the number of *applications* (one
    :class:`SelectedRef` each) plus one batch, not by the number of
    traces.  Each batch is validated as one array
    (:func:`~repro.darshan.validate.violation_matrix`, which flags what
    :func:`~repro.darshan.validate.validate_trace` would).  The heaviest
    trace is the one with the largest
    :meth:`~repro.darshan.trace.Trace.io_weight` (bytes moved plus
    metadata operations); ties break on job id, then on the first seen.
    A batch's valid runs are ranked by that rule with one sort, and only
    each application's best run is weighed against the runs before it.

    Unreadable payloads (``TraceFormatError`` from the source) are
    counted as corrupted under :attr:`Violation.UNREADABLE` rather than
    aborting the scan — at corpus scale truncated files are data, not
    exceptions.

    ``repair=True`` enables the eviction alternative: corrupted traces
    are first passed through the conservative repair heuristics
    (:mod:`repro.darshan.repair`) and only counted as corrupted when
    repair fails.  The batch keeps what it read, so a repaired trace is
    rebuilt without a second read.  The paper evicts outright; the
    REPAIR experiment quantifies the difference.
    """
    fold = _Fold()
    for batch in source.record_batches(retain_traces=repair):
        fold.add(batch, repair)
    return SelectionPlan(
        refs=sorted(fold.best.values(), key=lambda e: e.job_id),
        runs_per_app=fold.runs_per_app,
        n_input=fold.n_input,
        n_corrupted=fold.n_corrupted,
        corruption_histogram=fold.corruption,
        n_repaired=fold.n_repaired,
        n_unreadable=fold.n_unreadable,
    )


class _Fold:
    """The state :func:`scan_corpus` folds its batches into."""

    def __init__(self) -> None:
        self.corruption: Counter = Counter()
        self.n_input = 0
        self.n_corrupted = 0
        self.n_repaired = 0
        self.n_unreadable = 0
        self.best: dict[tuple[int, str], SelectedRef] = {}
        self.runs_per_app: dict[tuple[int, str], int] = {}

    def add(self, batch: RecordBatch, repair: bool) -> None:
        """Count one batch's corrupted runs and fold in its valid ones."""
        n = len(batch)
        self.n_input += n
        unreadable = batch.unreadable
        flags = violation_matrix(
            batch.records, batch.run_time, batch.nprocs, batch.counts
        )
        flagged = flags.any(axis=1) & ~unreadable
        # rows validated (and repaired) as traces, as validate_trace does
        by_trace = np.zeros(n, dtype=bool)
        by_trace[list(batch.scalar)] = True
        if repair:
            by_trace |= flagged
        evicted = flagged & ~by_trace
        valid = ~(unreadable | flagged | by_trace)

        # corruption counts, added in the order each cause first occurs
        # (row, then the cause's place in the row), as a per-row loop would
        events: list[tuple[int, int, Violation, int]] = []
        n_unreadable = int(np.count_nonzero(unreadable))
        if n_unreadable:
            events.append((int(np.argmax(unreadable)), 0, Violation.UNREADABLE, n_unreadable))
        hits = flags & evicted[:, None]
        for column in np.flatnonzero(hits.any(axis=0)).tolist():
            first = int(np.argmax(hits[:, column]))
            total = int(np.count_nonzero(hits[:, column]))
            events.append((first, column, VIOLATION_COLUMNS[column], total))
        self.n_unreadable += n_unreadable
        self.n_corrupted += n_unreadable + int(np.count_nonzero(evicted))

        weights = _io_weights(batch)
        job_ids = batch.job_id
        keys = list(zip(batch.uid, batch.exe))
        repaired: set[int] = set()
        for i in np.flatnonzero(by_trace).tolist():
            trace = batch.trace(i)
            report = validate_trace(trace)
            if not report.valid and repair:
                outcome = repair_trace(trace)
                if outcome.repaired:
                    trace = outcome.trace
                    report = validate_trace(trace)
                    self.n_repaired += 1
                    repaired.add(i)
            if not report.valid:
                self.n_corrupted += 1
                for rank, violation in enumerate(report.categories()):
                    events.append((i, rank, violation, 1))
                continue
            if job_ids is batch.job_id:
                job_ids = list(job_ids)
            valid[i] = True
            job_ids[i], keys[i] = trace.meta.job_id, trace.meta.app_key
            weights[i] = trace.io_weight()
        for _, _, violation, count in sorted(events, key=lambda e: e[:2]):
            self.corruption[violation] += count
        self._keep_heaviest(batch, valid, keys, job_ids, weights, repaired)

    def _keep_heaviest(
        self,
        batch: RecordBatch,
        valid: np.ndarray,
        keys: list[tuple[int, str]],
        job_ids: list[int],
        weights: np.ndarray,
        repaired: set[int],
    ) -> None:
        """Fold the valid rows of ``batch`` into :attr:`best` and
        :attr:`runs_per_app`.

        One sort ranks each application's rows by weight (heaviest
        first), then job id, then position, and only each application's
        first-ranked row is weighed against the runs before the batch.
        A NaN weight never wins against a run seen before it, and once
        it is the first run seen of its application nothing replaces it:
        it is the application's best run only when it is its first.
        """
        mask = valid.tolist()
        rows = np.flatnonzero(valid)
        run_keys = list(compress(keys, mask))
        apps = dict.fromkeys(run_keys)  # first-seen order
        ids = dict(zip(apps, range(len(apps))))
        app = np.fromiter(map(ids.__getitem__, run_keys), np.int64, len(run_keys))
        job = np.array(list(compress(job_ids, mask)))
        weight = weights[rows]
        order = np.lexsort((rows, job, -weight, app))
        ranked = app[order]
        leads = np.flatnonzero(np.diff(ranked, prepend=-1))
        wins = rows[order[leads]]
        firsts = wins
        if np.isnan(weight).any():
            firsts = rows[np.unique(app, return_index=True)[1]]
        runs = np.diff(leads, append=len(ranked)).tolist()
        w = weights.tolist()
        for key, row, first, count in zip(apps, wins.tolist(), firsts.tolist(), runs):
            self.runs_per_app[key] = self.runs_per_app.get(key, 0) + count
            current = self.best.get(key)
            if current is None:
                if math.isnan(w[first]):
                    row = first
            elif not (
                w[row] > current.io_weight
                or (w[row] == current.io_weight and job_ids[row] < current.job_id)
            ):
                continue
            self.best[key] = SelectedRef(
                ref=batch.ref(row),
                job_id=job_ids[row],
                app_key=key,
                io_weight=w[row],
                repaired=row in repaired,
            )


#: ``io_weight``'s two integer sums, as record field groups.
_WEIGHT_TERMS = (("bytes_read", "bytes_written"), ("opens", "closes", "seeks"))


def _io_weights(batch: RecordBatch) -> np.ndarray:
    """``Trace.io_weight()`` of every trace whose records ``batch``
    holds: ``float(total bytes) + float(total metadata ops)``, each
    total an exact integer (:func:`~repro.darshan.source.segment_sums`).
    """
    totals = [segment_sums(batch.records, batch.counts, f) for f in _WEIGHT_TERMS]
    return np.array(totals[0], dtype=np.float64) + np.array(totals[1], dtype=np.float64)


def load_selected(source: TraceSource, entry: SelectedRef) -> Trace:
    """Pass ②: reload one selected trace, re-applying repair if the scan
    selected its repaired form."""
    trace = source.load(entry.ref)
    if entry.repaired:
        trace = repair_trace(trace).trace
    return trace


def preprocess_corpus(
    traces: list[Trace], *, repair: bool = False
) -> SelectionPlan:
    """Validate every trace and keep the heaviest run per application.

    Batch wrapper over the streaming two-pass implementation: scan an
    in-memory source, then materialize the winning traces.  Semantics
    (keep-heaviest, tie-breaks, repair accounting) are exactly those of
    :func:`scan_corpus`.
    """
    source = InMemorySource(traces)
    plan = scan_corpus(source, repair=repair)
    plan.selected = [load_selected(source, entry) for entry in plan.refs]
    return plan
