"""Trace validity checking (workflow step ① of Fig. 1).

The paper reports that 32% of the Blue Waters 2019 traces were corrupted
and evicted before categorization, citing as an example records whose
resources are deallocated before the end of the application's execution.
This module defines the corruption taxonomy the validator detects and two
checkers over it: :func:`validate_trace`, the scalar, detail-producing
one for a ``Trace``, and :func:`violation_matrix`, which flags the same
categories for a whole batch of record arrays at once (pass ①'s only
validator on every route; ``validate_trace`` is its oracle, and
``repro.testing.repair_trace`` uses it).

Every check is pure structural invariant checking — a *valid* trace may
still be I/O-insignificant; that is a categorization outcome, not a
validity failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .records import FileRecord
from .trace import Trace

__all__ = [
    "Violation",
    "ValidationReport",
    "validate_trace",
    "is_valid",
    "violation_matrix",
]

#: Slack (seconds) allowed past the nominal job end: Darshan flushes its
#: log during MPI_Finalize, so the last timestamps can slightly exceed the
#: scheduler-reported end time.
END_SLACK = 1.0


class Violation(str, Enum):
    """Machine-readable corruption categories."""

    NEGATIVE_RUNTIME = "negative_runtime"
    BAD_NPROCS = "bad_nprocs"
    TIMESTAMP_BEFORE_START = "timestamp_before_start"
    TIMESTAMP_AFTER_END = "timestamp_after_end"
    #: The paper's example: deallocation (close) recorded before the
    #: matching activity window finished.
    DEALLOC_BEFORE_END = "dealloc_before_end"
    INVERTED_WINDOW = "inverted_window"
    NEGATIVE_COUNTER = "negative_counter"
    BYTES_WITHOUT_WINDOW = "bytes_without_window"
    OPENS_WITHOUT_CLOSE_WINDOW = "opens_without_close_window"
    #: The trace could not be decoded at all (bad magic, truncation,
    #: malformed JSON), or holds a counter, id or rank count its column
    #: cannot hold exactly (a fraction, NaN, a value past int64;
    #: :func:`~repro.darshan.records.exact_int`), from any source, an
    #: in-memory ``Trace`` included.  Only the scans report this class.
    UNREADABLE = "unreadable"
    #: The trace decoded but exceeded the per-trace resource budget so
    #: far that no categorization axis could run (the FLAGGED rung of
    #: the degradation ladder — see :mod:`repro.core.governor`).  Unlike
    #: the other classes this is not corruption: the trace is valid,
    #: merely ungovernably large for the configured budget.
    RESOURCE_BUDGET = "resource_budget"


@dataclass(slots=True)
class ValidationReport:
    """Outcome of validating a single trace."""

    valid: bool
    violations: list[tuple[Violation, str]] = field(default_factory=list)

    def reasons(self) -> list[str]:
        return [f"{v.value}: {detail}" for v, detail in self.violations]

    def categories(self) -> set[Violation]:
        return {v for v, _ in self.violations}


def _check_record(rec: FileRecord, run_time: float, out: list[tuple[Violation, str]]) -> None:
    hi = run_time + END_SLACK
    name = f"record file_id={rec.file_id} rank={rec.rank}"

    for label, value in (
        ("opens", rec.opens),
        ("closes", rec.closes),
        ("seeks", rec.seeks),
        ("stats", rec.stats),
        ("reads", rec.reads),
        ("writes", rec.writes),
        ("bytes_read", rec.bytes_read),
        ("bytes_written", rec.bytes_written),
    ):
        if value < 0:
            out.append((Violation.NEGATIVE_COUNTER, f"{name}: {label}={value}"))

    windows = (
        ("read", rec.read_start, rec.read_end, rec.bytes_read),
        ("write", rec.write_start, rec.write_end, rec.bytes_written),
    )
    for label, lo_ts, hi_ts, nbytes in windows:
        present = lo_ts >= 0.0 or hi_ts >= 0.0
        if nbytes > 0 and not present:
            out.append(
                (Violation.BYTES_WITHOUT_WINDOW, f"{name}: {nbytes} {label} bytes, no window")
            )
            continue
        if not present:
            continue
        if lo_ts < 0.0 or hi_ts < 0.0:
            out.append((Violation.TIMESTAMP_BEFORE_START, f"{name}: half-open {label} window"))
            continue
        if hi_ts < lo_ts:
            out.append(
                (Violation.INVERTED_WINDOW, f"{name}: {label} window [{lo_ts}, {hi_ts}]")
            )
        if lo_ts > hi or hi_ts > hi:
            out.append(
                (Violation.TIMESTAMP_AFTER_END, f"{name}: {label} window beyond runtime {run_time}")
            )

    # metadata window
    if rec.open_start >= 0.0 or rec.close_end >= 0.0:
        if rec.open_start >= 0.0 and rec.close_end >= 0.0:
            if rec.close_end < rec.open_start:
                out.append(
                    (Violation.INVERTED_WINDOW, f"{name}: close {rec.close_end} < open {rec.open_start}")
                )
            # the paper's flagship corruption: the file was deallocated
            # (closed) while its recorded data window still extends past it
            last_activity = max(rec.read_end, rec.write_end)
            if last_activity >= 0.0 and rec.close_end + 1e-9 < last_activity:
                out.append(
                    (
                        Violation.DEALLOC_BEFORE_END,
                        f"{name}: closed at {rec.close_end} before activity end {last_activity}",
                    )
                )
        if max(rec.open_start, rec.close_end) > hi:
            out.append(
                (Violation.TIMESTAMP_AFTER_END, f"{name}: metadata window beyond runtime")
            )
    elif rec.opens > 0:
        out.append(
            (Violation.OPENS_WITHOUT_CLOSE_WINDOW, f"{name}: {rec.opens} opens, no open/close timestamps")
        )


def validate_trace(trace: Trace) -> ValidationReport:
    """Check every structural invariant of ``trace``.

    Returns a report carrying all violations found (not just the first),
    so the funnel analysis can histogram corruption causes.
    """
    violations: list[tuple[Violation, str]] = []

    run_time = trace.meta.run_time
    if run_time <= 0.0:
        violations.append(
            (Violation.NEGATIVE_RUNTIME, f"run_time={run_time}")
        )
    if trace.meta.nprocs <= 0:
        violations.append((Violation.BAD_NPROCS, f"nprocs={trace.meta.nprocs}"))

    if run_time > 0.0:
        for rec in trace.records:
            _check_record(rec, run_time, violations)

    return ValidationReport(valid=not violations, violations=violations)


def is_valid(trace: Trace) -> bool:
    """Fast boolean form of :func:`validate_trace`."""
    return validate_trace(trace).valid


#: Column of each category in :func:`violation_matrix`'s result.
VIOLATION_COLUMNS: tuple[Violation, ...] = tuple(Violation)
_COL = {v: i for i, v in enumerate(VIOLATION_COLUMNS)}

_COUNTERS = (
    "opens", "closes", "seeks", "stats", "reads", "writes",
    "bytes_read", "bytes_written",
)


def _py_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise Python ``max(a, b)``: ``b if b > a else a``.

    Unlike ``np.maximum`` this keeps ``a`` whenever the comparison is
    False, so a NaN in ``a`` survives and a NaN in ``b`` is skipped.
    """
    return np.where(b > a, b, a)


def _record_flags(records: np.ndarray, hi: np.ndarray) -> dict[Violation, np.ndarray]:
    """Per-record flags of :func:`_check_record`, one array per category.

    ``hi`` is each record's ``run_time + END_SLACK``.  The ``continue``
    branches of the window checks become masks: a window that raises
    ``BYTES_WITHOUT_WINDOW`` or a half-open ``TIMESTAMP_BEFORE_START``
    is not checked further.
    """
    negative = np.zeros(len(records), dtype=bool)
    for label in _COUNTERS:
        negative |= records[label] < 0
    bytes_without = np.zeros(len(records), dtype=bool)
    half_open = np.zeros(len(records), dtype=bool)
    inverted = np.zeros(len(records), dtype=bool)
    after_end = np.zeros(len(records), dtype=bool)
    for lo_f, hi_f, n_f in (
        ("read_start", "read_end", "bytes_read"),
        ("write_start", "write_end", "bytes_written"),
    ):
        lo_ts, hi_ts = records[lo_f], records[hi_f]
        present = (lo_ts >= 0.0) | (hi_ts >= 0.0)
        bytes_without |= (records[n_f] > 0) & ~present
        negative_ts = present & ((lo_ts < 0.0) | (hi_ts < 0.0))
        half_open |= negative_ts
        whole = present & ~negative_ts
        inverted |= whole & (hi_ts < lo_ts)
        after_end |= whole & ((lo_ts > hi) | (hi_ts > hi))

    open_start, close_end = records["open_start"], records["close_end"]
    has_open = open_start >= 0.0
    has_close = close_end >= 0.0
    meta_window = has_open | has_close
    both = has_open & has_close
    inverted |= both & (close_end < open_start)
    last_activity = _py_max(records["read_end"], records["write_end"])
    dealloc = both & (last_activity >= 0.0) & (close_end + 1e-9 < last_activity)
    after_end |= meta_window & (_py_max(open_start, close_end) > hi)
    return {
        Violation.NEGATIVE_COUNTER: negative,
        Violation.BYTES_WITHOUT_WINDOW: bytes_without,
        Violation.TIMESTAMP_BEFORE_START: half_open,
        Violation.INVERTED_WINDOW: inverted,
        Violation.TIMESTAMP_AFTER_END: after_end,
        Violation.DEALLOC_BEFORE_END: dealloc,
        Violation.OPENS_WITHOUT_CLOSE_WINDOW: ~meta_window & (records["opens"] > 0),
    }


def violation_matrix(
    records: np.ndarray,
    run_time: np.ndarray,
    nprocs: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Flag every trace of a batch the way :func:`validate_trace` would.

    ``records`` holds the traces' records back to back (a structured
    array with ``FileRecord``'s field names, such as
    :data:`repro.darshan.io_binary.RECORD_DTYPE`); trace ``t`` owns the
    next ``counts[t]`` of them.  Returns a ``(len(counts),
    len(VIOLATION_COLUMNS))`` boolean matrix whose row ``t`` flags
    exactly ``validate_trace(trace_t).categories()``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    run_time = np.asarray(run_time, dtype=np.float64)
    out = np.zeros((len(counts), len(VIOLATION_COLUMNS)), dtype=bool)
    out[:, _COL[Violation.NEGATIVE_RUNTIME]] = run_time <= 0.0
    out[:, _COL[Violation.BAD_NPROCS]] = np.asarray(nprocs) <= 0
    if not len(records):
        return out
    owner = np.repeat(np.arange(len(counts)), counts)
    flags = _record_flags(records, (run_time + END_SLACK)[owner])
    # record checks run only under `if run_time > 0.0` (False for NaN)
    checked = (run_time > 0.0)[owner]
    columns = [_COL[v] for v in flags]
    hits = np.stack(list(flags.values()), axis=1) & checked[:, None]
    # per-trace "any" through a cumulative count, so that traces with
    # no records get an empty (all False) window
    cum = np.zeros((len(hits) + 1, len(columns)), dtype=np.int64)
    np.cumsum(hits, axis=0, out=cum[1:])
    ends = np.cumsum(counts)
    out[:, columns] = (cum[ends] - cum[ends - counts]) > 0
    return out
