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
* **pass 2** (:func:`read_selected`, driven by the pipeline) reads
  only the selected heaviest refs, a unit of them at a time, in the
  worker that categorizes them, through the source's batch reader, and
  repairs again the rows pass 1 selected in their repaired form.

The batch :func:`preprocess_corpus` API is a thin wrapper running both
passes over an in-memory source.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..darshan.errors import TraceFormatError
from ..darshan.repair import repair_rows
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
    "read_selected",
    "selected_traces",
]


@dataclass(slots=True, frozen=True)
class SelectedRef:
    """Pass-1 selection decision: the heaviest run of one application.

    Carries everything pass 2 needs to reload and trust the trace —
    the source ref, identity, the keep-heaviest weight it won with, and
    whether repair must be applied again after reloading.  Equality
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
    Selection and counting are :class:`_Fold`'s, the fold
    :func:`~repro.columnar.scan.scan_store` feeds a store's index to,
    so both routes rank, count and list corruption causes (in
    ``VIOLATION_COLUMNS`` order) alike.

    Unreadable payloads (``TraceFormatError`` from the source, or a
    counter, id or rank count its int64 column cannot hold exactly) are
    counted as corrupted under :attr:`Violation.UNREADABLE` rather than
    aborting the scan — at corpus scale truncated files are data, not
    exceptions.

    ``repair=True`` enables the eviction alternative: corrupted traces
    are first passed through the conservative repair heuristics
    (:func:`~repro.darshan.repair.repair_rows`, over the batch's
    columns) and only counted as corrupted when repair fails; a
    repaired trace is weighed as its repaired row.
    The paper evicts outright; the REPAIR experiment quantifies the
    difference.
    """
    fold = _Fold()
    for batch in source.record_batches():
        # bound to no name: the next batch is checked once this one is freed
        _fold_batch(fold, check_batch(batch, repair=repair))
    return fold.plan()


#: The ``VIOLATION_COLUMNS`` column of an unreadable ref.
_UNREADABLE = VIOLATION_COLUMNS.index(Violation.UNREADABLE)


class _Fold:
    """Pass ①'s one selection and count, on every route: the funnel
    counters, per-cause counts and keep-heaviest winners of the rows
    added, plus ``n_unreadable`` refs that never became rows."""

    def __init__(self, n_unreadable: int = 0) -> None:
        self.causes = np.zeros(len(VIOLATION_COLUMNS), dtype=np.int64)
        self.causes[_UNREADABLE] = n_unreadable
        self.n_input = self.n_corrupted = n_unreadable
        self.n_repaired = 0
        self.best: dict[tuple[int, str], SelectedRef] = {}
        self.runs_per_app: dict[tuple[int, str], int] = {}

    def add(
        self,
        hits: np.ndarray,
        repaired: np.ndarray | Sequence[int],
        weights: np.ndarray,
        job_ids: np.ndarray,
        apps: np.ndarray,
        app_key: Callable[[int], tuple[int, str]],
        ref: Callable[[int], TraceRef],
    ) -> None:
        """Count one run of rows and fold in its valid ones.

        ``hits`` is the rows' cause matrix over ``VIOLATION_COLUMNS``
        (a row with no hit is valid), ``repaired`` the positions repair
        recovered; rows of one application share an int64 code in
        ``apps``, named by ``app_key(row)``.  One sort ranks each
        application's valid rows (heaviest, then lowest job id, then
        first seen); applications enter in first-seen order, and only
        each one's best row is weighed against earlier calls' rows.
        """
        self.n_input += len(hits)
        self.causes += np.count_nonzero(hits, axis=0)
        rows = np.flatnonzero(~hits.any(axis=1))
        self.n_corrupted += len(hits) - len(rows)
        self.n_repaired += len(repaired)
        is_repaired = np.zeros(len(hits), dtype=bool)
        is_repaired[repaired] = True

        app = apps[rows]
        order = np.lexsort((rows, job_ids[rows], -weights[rows], app))
        ranked = app[order]
        leads = np.flatnonzero(np.diff(ranked, prepend=ranked[:1] - 1))
        wins = rows[order[leads]]
        runs = np.diff(leads, append=len(ranked)).tolist()
        first_seen = np.minimum.reduceat(rows[order], leads) if len(leads) else leads
        w, job = weights[wins].tolist(), job_ids[wins].tolist()
        fixed, win_rows = is_repaired[wins].tolist(), wins.tolist()
        for g in np.argsort(first_seen, kind="stable").tolist():
            key = app_key(win_rows[g])
            self.runs_per_app[key] = self.runs_per_app.get(key, 0) + runs[g]
            current = self.best.get(key)
            if current is None or w[g] > current.io_weight or (
                w[g] == current.io_weight and job[g] < current.job_id
            ):
                self.best[key] = SelectedRef(ref(win_rows[g]), job[g], key, w[g], fixed[g])

    def plan(self) -> SelectionPlan:
        """The plan of every row added, causes in ``VIOLATION_COLUMNS``
        order."""
        counts = self.causes.tolist()
        return SelectionPlan(
            refs=sorted(self.best.values(), key=lambda e: e.job_id),
            runs_per_app=self.runs_per_app,
            n_input=self.n_input,
            n_corrupted=self.n_corrupted,
            corruption_histogram=Counter({v: n for v, n in zip(VIOLATION_COLUMNS, counts) if n}),
            n_repaired=self.n_repaired,
            n_unreadable=counts[_UNREADABLE],
        )


def _fold_batch(fold: _Fold, checked: CheckedBatch) -> None:
    """Add a checked batch to ``fold``: causes (the flags
    ``compile_corpus`` stores), weight, job id and key of each row."""
    batch = checked.batch
    job_ids = np.array(batch.job_id, dtype=np.int64)
    keys = list(zip(batch.uid, batch.exe))
    codes = dict(zip(dict.fromkeys(keys), range(len(keys))))
    apps = np.fromiter(map(codes.__getitem__, keys), np.int64, len(keys))
    weights = _io_weights(batch)
    fold.add(checked.flags, checked.repaired, weights, job_ids, apps, keys.__getitem__, batch.ref)


#: ``io_weight``'s two integer sums, as record field groups.
_WEIGHT_TERMS = (("bytes_read", "bytes_written"), ("opens", "closes", "seeks"))


def _io_weights(batch: RecordBatch) -> np.ndarray:
    """``Trace.io_weight()`` of every trace whose records ``batch``
    holds: ``float(total bytes) + float(total metadata ops)``, each
    total an exact integer (:func:`~repro.darshan.source.segment_sums`).
    """
    totals = [segment_sums(batch.records, batch.counts, f) for f in _WEIGHT_TERMS]
    return np.array(totals[0], dtype=np.float64) + np.array(totals[1], dtype=np.float64)


def read_selected(
    source: TraceSource, entries: Sequence[SelectedRef]
) -> list[RecordBatch]:
    """Pass ②: read selected traces, in order, as record batches.

    Every ref goes through the source's batch reader
    (:meth:`~repro.darshan.source.TraceSource.read_batches`); the rows
    selected in their repaired form are validated and repaired again
    (:func:`~repro.darshan.repair.repair_rows`).  A trace that does not
    read raises its own load error, or ``TraceFormatError`` when it
    loads on its own but not as a row.
    """
    repaired = np.array([entry.repaired for entry in entries], dtype=bool)
    batches: list[RecordBatch] = []
    done = 0
    for batch in source.read_batches([entry.ref for entry in entries]):
        for i in np.flatnonzero(batch.unreadable).tolist():
            ref = entries[done + i].ref
            source.load(ref)
            raise TraceFormatError(f"trace {ref.key!r} does not read as a row")
        rows = repaired[done : done + len(batch)]
        done += len(batch)
        if rows.any():
            # as pass ① did, repair only what validation flags
            batch = repair_rows(batch, rows & check_batch(batch).flags.any(axis=1))[0]
        batches.append(batch)
    return batches


def selected_traces(source: TraceSource, entries: Sequence[SelectedRef]) -> list[Trace]:
    """The traces of ``entries``, in order: each as ``source`` loads it,
    or, when selected in its repaired form, built from its repaired row
    (:func:`read_selected`)."""
    batches = read_selected(source, [entry for entry in entries if entry.repaired])
    fixed = iter([batch.trace(i) for batch in batches for i in range(len(batch))])
    return [next(fixed) if entry.repaired else source.load(entry.ref) for entry in entries]


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
    plan.selected = selected_traces(source, plan.refs)
    return plan
