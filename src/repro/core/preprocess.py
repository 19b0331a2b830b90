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

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from ..darshan.repair import repair_trace
from ..darshan.source import (
    CheckedBatch,
    InMemorySource,
    RecordBatch,
    TraceRef,
    TraceSource,
    check_batch,
    segment_sums,
)
from ..darshan.trace import Trace
from ..darshan.validate import VIOLATION_COLUMNS, Violation

# Bound by perfbench/tracer.py's per-layer spans (ROADMAP item 1 retires
# that tracer); pass ① itself no longer calls it.
from ..darshan.validate import validate_trace  # noqa: F401

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

    Folds over the source's record batches in ref order, as
    :func:`~repro.darshan.source.check_batch` (the step
    :func:`~repro.columnar.compile_corpus` also applies) validates
    them; state is bounded by the number of *applications* (one
    :class:`SelectedRef` each) plus one batch, not by the number of
    traces.  Each batch is validated as one array
    (:func:`~repro.darshan.validate.violation_matrix`, which flags what
    :func:`~repro.darshan.validate.validate_trace` would).  The heaviest
    trace is the one with the largest
    :meth:`~repro.darshan.trace.Trace.io_weight` (bytes moved plus
    metadata operations); ties break on job id, then on the first seen.
    A batch's valid runs are ranked by that rule with one sort, and only
    each application's best run is weighed against the runs before it.

    Unreadable payloads (``TraceFormatError`` from the source, or a
    counter, id or rank count its int64 column cannot hold exactly) are
    counted as corrupted under :attr:`Violation.UNREADABLE` rather than
    aborting the scan — at corpus scale truncated files are data, not
    exceptions.

    ``repair=True`` enables the eviction alternative: corrupted traces
    are first passed through the conservative repair heuristics
    (:mod:`repro.darshan.repair`) and only counted as corrupted when
    repair fails.  The batch keeps what it read, so a repaired trace is
    rebuilt without a second read; it is weighed from its repaired rows.
    The paper evicts outright; the REPAIR experiment quantifies the
    difference.
    """
    fold = _Fold()
    for batch in source.record_batches(retain_traces=repair):
        # bound to no name: the next batch is checked once this one is freed
        fold.add(check_batch(batch, repair=repair))
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

    def add(self, checked: CheckedBatch) -> None:
        """Count one batch's corrupted runs and fold in its valid ones."""
        batch, flags, repaired = checked.batch, checked.flags, checked.repaired
        self.n_input += len(batch)
        unreadable = batch.unreadable
        evicted = flags.any(axis=1) & ~unreadable
        evicted[repaired] = False
        valid = ~(unreadable | evicted)

        # corruption counts, added in the order each cause first occurs
        # (row, then the cause's column), as a per-row loop would
        hits = flags & evicted[:, None]
        # a column violation_matrix never sets
        hits[:, VIOLATION_COLUMNS.index(Violation.UNREADABLE)] = unreadable
        columns = np.flatnonzero(hits.any(axis=0))
        firsts = hits[:, columns].argmax(axis=0)
        totals = np.count_nonzero(hits[:, columns], axis=0)
        for k in np.lexsort((columns, firsts)).tolist():
            self.corruption[VIOLATION_COLUMNS[columns[k]]] += int(totals[k])
        n_unreadable = int(np.count_nonzero(unreadable))
        self.n_unreadable += n_unreadable
        self.n_corrupted += n_unreadable + int(np.count_nonzero(evicted))
        self.n_repaired += len(repaired)

        weights = _io_weights(batch)
        job_ids = batch.job_id
        keys = list(zip(batch.uid, batch.exe))
        if checked.fixed is not None:
            # repaired runs weigh, and are keyed, as their repaired rows
            fixed = checked.fixed.batch
            weights[repaired] = _io_weights(fixed)
            job_ids = list(job_ids)
            for i, job_id, key in zip(repaired, fixed.job_id, zip(fixed.uid, fixed.exe)):
                job_ids[i], keys[i] = job_id, key

        # one sort ranks each application's valid rows by weight
        # (heaviest first), then job id, then position; only each
        # application's first-ranked row is weighed against the runs
        # before the batch
        mask = valid.tolist()
        rows = np.flatnonzero(valid)
        run_keys = list(compress(keys, mask))
        apps = dict.fromkeys(run_keys)  # first-seen order
        ids = dict(zip(apps, range(len(apps))))
        app = np.fromiter(map(ids.__getitem__, run_keys), np.int64, len(run_keys))
        job = np.array(list(compress(job_ids, mask)))
        order = np.lexsort((rows, job, -weights[rows], app))
        ranked = app[order]
        leads = np.flatnonzero(np.diff(ranked, prepend=-1))
        wins = rows[order[leads]]
        runs = np.diff(leads, append=len(ranked)).tolist()
        w = weights.tolist()
        for key, row, count in zip(apps, wins.tolist(), runs):
            self.runs_per_app[key] = self.runs_per_app.get(key, 0) + count
            current = self.best.get(key)
            if current is not None and not (
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
