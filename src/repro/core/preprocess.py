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
  traces themselves;
* **pass 2** (:func:`load_selected`, driven by the pipeline) reloads
  only the selected heaviest refs, one at a time.

The batch :func:`preprocess_corpus` API is a thin wrapper running both
passes over an in-memory source.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

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
    "PreprocessResult",
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
    whether repair must be re-applied after reloading.
    """

    ref: TraceRef
    job_id: int
    app_key: tuple[int, str]
    io_weight: float
    repaired: bool = False


@dataclass(slots=True)
class SelectionPlan:
    """Bounded-memory outcome of scan pass ① over a lazy source.

    Holds per-application refs and funnel counters only; no ``Trace``
    survives the scan.
    """

    #: Winning refs, one per application, sorted by job id.
    selected: list[SelectedRef]
    #: Number of valid runs per application key, for all-runs statistics.
    runs_per_app: dict[tuple[int, str], int]
    n_input: int
    n_corrupted: int
    corruption_histogram: Counter = field(default_factory=Counter)
    n_repaired: int = 0
    #: Refs whose payload could not even be decoded (counted in
    #: :attr:`n_corrupted` under ``Violation.UNREADABLE``).
    n_unreadable: int = 0

    @property
    def n_valid(self) -> int:
        return self.n_input - self.n_corrupted

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def to_result(self, selected_traces: list[Trace] | None = None) -> "PreprocessResult":
        """Convert to the reporting-layer :class:`PreprocessResult`.

        Pass the materialized traces for the batch API; leave ``None``
        for the streaming pipeline, where ``selected`` stays empty and
        only the count is carried.
        """
        return PreprocessResult(
            selected=selected_traces if selected_traces is not None else [],
            runs_per_app=self.runs_per_app,
            n_input=self.n_input,
            n_corrupted=self.n_corrupted,
            corruption_histogram=self.corruption_histogram,
            n_repaired=self.n_repaired,
            n_selected_streamed=None if selected_traces is not None else self.n_selected,
        )


@dataclass(slots=True)
class PreprocessResult:
    """Outcome of workflow step ① over a corpus."""

    #: Traces selected for categorization (heaviest per application).
    #: Empty in streaming mode, where materializing them would defeat
    #: the bounded-memory design — :attr:`n_selected` stays correct.
    selected: list[Trace]
    #: Number of valid runs per application key, for all-runs statistics.
    runs_per_app: dict[tuple[int, str], int]
    n_input: int
    n_corrupted: int
    #: Histogram of corruption causes (a trace may count several).
    corruption_histogram: Counter = field(default_factory=Counter)
    #: Traces recovered by repair heuristics (0 unless ``repair=True``).
    n_repaired: int = 0
    #: Selected-trace count when ``selected`` was not materialized.
    n_selected_streamed: int | None = None

    @property
    def n_valid(self) -> int:
        return self.n_input - self.n_corrupted

    @property
    def n_selected(self) -> int:
        if self.n_selected_streamed is not None:
            return self.n_selected_streamed
        return len(self.selected)

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
    from ..darshan.repair import repair_trace

    corruption: Counter = Counter()
    n_input = 0
    n_corrupted = 0
    n_repaired = 0
    n_unreadable = 0
    best: dict[tuple[int, str], SelectedRef] = {}
    runs_per_app: dict[tuple[int, str], int] = {}

    for batch in source.record_batches(retain_traces=repair):
        n_input += len(batch)
        flags = violation_matrix(
            batch.records, batch.run_time, batch.nprocs, batch.counts
        )
        weights = _io_weights(batch)
        # each flagged trace's violations, in column order
        flagged: dict[int, list[Violation]] = {}
        for row, column in zip(*(a.tolist() for a in np.nonzero(flags))):
            flagged.setdefault(row, []).append(VIOLATION_COLUMNS[column])
        rows = zip(batch.refs, batch.unreadable.tolist(), batch.job_id, weights)
        for i, (ref, unreadable, job_id, weight) in enumerate(rows):
            if unreadable:
                n_corrupted += 1
                n_unreadable += 1
                corruption[Violation.UNREADABLE] += 1
                continue
            repaired = False
            violations = flagged.get(i)
            if i in batch.scalar or (violations and repair):
                trace = batch.trace(i)
                report = validate_trace(trace)
                if not report.valid and repair:
                    outcome = repair_trace(trace)
                    if outcome.repaired:
                        trace = outcome.trace
                        report = validate_trace(trace)
                        n_repaired += 1
                        repaired = True
                if not report.valid:
                    n_corrupted += 1
                    for violation in report.categories():
                        corruption[violation] += 1
                    continue
                job_id, key = trace.meta.job_id, trace.meta.app_key
                weight = trace.io_weight()
            elif violations:
                n_corrupted += 1
                for violation in violations:
                    corruption[violation] += 1
                continue
            else:
                key = batch.app_key(i)
            runs_per_app[key] = runs_per_app.get(key, 0) + 1
            current = best.get(key)
            if (
                current is None
                or weight > current.io_weight
                or (weight == current.io_weight and job_id < current.job_id)
            ):
                best[key] = SelectedRef(
                    ref=ref,
                    job_id=job_id,
                    app_key=key,
                    io_weight=weight,
                    repaired=repaired,
                )

    selected = sorted(best.values(), key=lambda e: e.job_id)
    return SelectionPlan(
        selected=selected,
        runs_per_app=runs_per_app,
        n_input=n_input,
        n_corrupted=n_corrupted,
        corruption_histogram=corruption,
        n_repaired=n_repaired,
        n_unreadable=n_unreadable,
    )


#: ``io_weight``'s two integer sums, as record field groups.
_WEIGHT_TERMS = (("bytes_read", "bytes_written"), ("opens", "closes", "seeks"))


def _io_weights(batch: RecordBatch) -> list[float]:
    """``Trace.io_weight()`` of every trace whose records ``batch``
    holds: ``float(total bytes) + float(total metadata ops)``, each
    total an exact integer (:func:`~repro.darshan.source.segment_sums`).
    """
    totals = [segment_sums(batch.records, batch.counts, f) for f in _WEIGHT_TERMS]
    return [float(b) + float(m) for b, m in zip(*totals)]


def load_selected(source: TraceSource, entry: SelectedRef) -> Trace:
    """Pass ②: reload one selected trace, re-applying repair if the scan
    selected its repaired form."""
    trace = source.load(entry.ref)
    if entry.repaired:
        from ..darshan.repair import repair_trace

        trace = repair_trace(trace).trace
    return trace


def preprocess_corpus(
    traces: list[Trace], *, repair: bool = False
) -> PreprocessResult:
    """Validate every trace and keep the heaviest run per application.

    Batch wrapper over the streaming two-pass implementation: scan an
    in-memory source, then materialize the winning traces.  Semantics
    (keep-heaviest, tie-breaks, repair accounting) are exactly those of
    :func:`scan_corpus`.
    """
    source = InMemorySource(traces)
    plan = scan_corpus(source, repair=repair)
    selected = [load_selected(source, entry) for entry in plan.selected]
    return plan.to_result(selected)
