"""Fuzz execution harness: run mutated payloads against the readers.

The contract under test (docs/ROBUSTNESS.md): for any byte string a
reader must either return a :class:`~repro.darshan.trace.Trace` or raise
:class:`~repro.darshan.errors.TraceFormatError`.  Any other exception is
a **crash** finding; exceeding the per-case wall-clock deadline is a
**hang** finding; a ``tracemalloc`` peak beyond the allocation budget is
an **over-budget** finding.  The harness never dies on a finding — it
records the reproducer and keeps fuzzing.

Deadlines use ``signal.setitimer`` (real interruption) when running on
the main thread; elsewhere they degrade to after-the-fact wall-clock
classification, which still catches hangs shorter than the case budget
allows but cannot abort a truly unbounded loop.
"""

from __future__ import annotations

import functools
import signal
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..darshan.errors import TraceFormatError
from ..darshan.io_binary import _pack_record, loads_binary, parse_binary
from ..darshan.source import RecordBatch, batch_payloads
from ..darshan.validate import VIOLATION_COLUMNS, validate_trace, violation_matrix
from ..darshan.io_json import loads
from ..darshan.io_text import loads_text
from .mutators import FuzzCase, generate_cases, seed_payloads

__all__ = [
    "FORMATS",
    "FuzzFinding",
    "FuzzReport",
    "ReaderMismatch",
    "run_case",
    "run_fuzz",
    "replay_corpus",
]

MB = 1024 * 1024

#: Default per-case wall-clock deadline (seconds).  Generous: a decode
#: of a few-KB payload takes microseconds; anything near a second is a
#: hang in all but name.
DEFAULT_DEADLINE_S = 5.0
#: Default per-case allocation budget: decode working set for the small
#: mutated payloads the fuzzer feeds is well under a megabyte, so a
#: 64 MB peak means a length field was believed.
DEFAULT_ALLOC_BUDGET = 64 * MB


def _entry_text(data: bytes) -> None:
    # mirror load_text: undecodable bytes are a format error, not a crash
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"cannot decode trace: {exc}") from exc
    loads_text(text)


class ReaderMismatch(Exception):
    """The two MOSD readers decoded one payload differently."""


def _row(batch: RecordBatch, i: int) -> tuple[object, ...]:
    """Everything a scan batch says about its ``i``-th payload."""
    end = int(batch.counts[: i + 1].sum())
    records = batch.records[end - int(batch.counts[i]) : end]
    return (
        bool(batch.unreadable[i]),
        repr(batch.metas[i]),
        batch.job_id[i],
        batch.uid[i],
        batch.exe[i],
        int(batch.nprocs[i]),
        float(batch.run_time[i]),
        records.tobytes(),
        batch.file_names(i),
    )


@functools.cache
def _neighbours() -> tuple[tuple[bytes, tuple[object, ...]], ...]:
    """Two valid payloads, each with the row :func:`_row` must give it."""
    seeds = seed_payloads("binary", 0)
    out = []
    for payload in (seeds[0], seeds[-1]):
        meta, _, records = parse_binary(payload)
        row = (
            False,
            repr(meta),
            meta.job_id,
            meta.uid,
            meta.exe,
            meta.nprocs,
            meta.run_time,
            records.tobytes(),
            [r.file_name for r in loads_binary(payload).records],
        )
        out.append((payload, row))
    return tuple(out)


def _check_neighbours(data: bytes, alone: RecordBatch) -> None:
    """Between two valid payloads in one batch, ``data`` parses as it
    does alone and leaves both neighbours as they are."""
    (left, left_row), (right, right_row) = _neighbours()
    batch = batch_payloads([left, data, right])
    if _row(batch, 1) != _row(alone, 0):
        raise ReaderMismatch("the payload parsed differently between neighbours")
    if (_row(batch, 0), _row(batch, 2)) != (left_row, right_row):
        raise ReaderMismatch("the payload changed a neighbour's header or records")


def _entry_binary(data: bytes) -> None:
    """``loads_binary``, cross-checked against the scan's batch reader,
    alone and between two valid neighbours."""
    batch = batch_payloads([data])
    try:
        trace = loads_binary(data)
    except TraceFormatError:
        if not batch.unreadable[0]:
            raise ReaderMismatch("only the batch reader accepted the payload")
        _check_neighbours(data, batch)
        raise
    if batch.unreadable[0]:
        raise ReaderMismatch("only loads_binary accepted the payload")
    if repr(batch.metas[0]) != repr(trace.meta):
        raise ReaderMismatch("the readers decoded different job headers")
    if batch.records.tobytes() != b"".join(_pack_record(r) for r in trace.records):
        raise ReaderMismatch("the readers decoded different records")
    if batch.file_names(0) != [r.file_name for r in trace.records]:
        raise ReaderMismatch("the readers decoded different file names")
    row = violation_matrix(batch.records, batch.run_time, batch.nprocs, batch.counts)[0]
    flagged = {VIOLATION_COLUMNS[i] for i in row.nonzero()[0]}
    if flagged != validate_trace(trace).categories():
        raise ReaderMismatch("the validators flagged different violations")
    _check_neighbours(data, batch)


def _entry_json(data: bytes) -> None:
    loads(data)


#: format name → payload-level reader entry point.
FORMATS: dict[str, Callable[[bytes], None]] = {
    "binary": _entry_binary,
    "json": _entry_json,
    "text": _entry_text,
}


class _DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; BaseException so no reader's
    ``except Exception`` can swallow it."""


def _alarm_handler(signum: int, frame: object) -> None:  # pragma: no cover
    raise _DeadlineExceeded()


@dataclass(slots=True, frozen=True)
class FuzzFinding:
    """One contract violation, with everything needed to reproduce it."""

    fmt: str
    #: "crash" | "mismatch" | "hang" | "alloc"
    kind: str
    mutation: str
    seed: int
    error_type: str
    message: str
    data: bytes

    @property
    def label(self) -> str:
        return f"{self.fmt}/{self.mutation}#{self.seed}: {self.kind} ({self.error_type})"


@dataclass(slots=True)
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    n_cases: int = 0
    #: Cases that decoded to a Trace (mutation happened to stay valid).
    n_parsed: int = 0
    #: Cases cleanly refused with TraceFormatError — the common outcome.
    n_rejected: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)
    elapsed_s: float = 0.0
    by_format: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        lines = [
            f"{self.n_cases} cases in {self.elapsed_s:.1f}s: "
            f"{self.n_parsed} parsed, {self.n_rejected} rejected, "
            f"{len(self.findings)} findings"
        ]
        for f in self.findings:
            lines.append(f"  FINDING {f.label}: {f.message[:120]}")
        return "\n".join(lines)


def _run_guarded(
    entry: Callable[[bytes], None],
    data: bytes,
    deadline_s: float,
    alloc_budget: int,
) -> tuple[str, str, str]:
    """Execute one payload; returns (outcome, error_type, message).

    outcome: "parsed" | "rejected" | "crash" | "mismatch" | "hang" |
    "alloc".
    """
    use_alarm = (
        deadline_s > 0
        and threading.current_thread() is threading.main_thread()
        and hasattr(signal, "setitimer")
    )
    tracking = alloc_budget > 0
    started_tracing = False
    if tracking:
        if not tracemalloc.is_tracing():
            tracemalloc.start(1)
            started_tracing = True
        tracemalloc.reset_peak()
    if use_alarm:
        prev = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
    t0 = time.perf_counter()
    peak = 0
    settled = False
    try:
        try:
            entry(data)
            outcome, etype, msg = "parsed", "", ""
        except TraceFormatError as exc:
            outcome, etype, msg = "rejected", type(exc).__name__, str(exc)
        except ReaderMismatch as exc:
            settled = True
            outcome, etype, msg = "mismatch", type(exc).__name__, str(exc)
        except _DeadlineExceeded:
            settled = True
            outcome, etype, msg = "hang", "DeadlineExceeded", (
                f"decode exceeded the {deadline_s}s deadline"
            )
        except Exception as exc:  # the finding class the fuzzer exists for
            settled = True
            outcome, etype, msg = "crash", type(exc).__name__, str(exc)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, prev)
        if tracking:
            _, peak = tracemalloc.get_traced_memory()
            # Leaving tracemalloc enabled would slow every allocation in
            # this process (and, via fork, any worker pool) for the rest
            # of its life — only keep it if someone else turned it on.
            if started_tracing:
                tracemalloc.stop()
    if settled:
        return outcome, etype, msg
    elapsed = time.perf_counter() - t0
    if deadline_s > 0 and not use_alarm and elapsed > deadline_s:
        return "hang", "DeadlineExceeded", (
            f"decode took {elapsed:.2f}s against a {deadline_s}s deadline"
        )
    if tracking and peak > alloc_budget:
        return "alloc", "AllocationBudget", (
            f"decode peaked at {peak} bytes against a "
            f"{alloc_budget}-byte budget"
        )
    return outcome, etype, msg


def run_case(
    case: FuzzCase,
    *,
    deadline_s: float = DEFAULT_DEADLINE_S,
    alloc_budget: int = DEFAULT_ALLOC_BUDGET,
) -> FuzzFinding | None:
    """Run one case; returns a finding or ``None`` when the contract held."""
    entry = FORMATS[case.fmt]
    outcome, etype, msg = _run_guarded(entry, case.data, deadline_s, alloc_budget)
    if outcome in ("parsed", "rejected"):
        return None
    return FuzzFinding(
        fmt=case.fmt,
        kind=outcome,
        mutation=case.mutation,
        seed=case.seed,
        error_type=etype,
        message=msg,
        data=case.data,
    )


def run_fuzz(
    formats: Sequence[str] = ("binary", "json", "text"),
    n_cases: int = 1000,
    seed: int = 0,
    *,
    deadline_s: float = DEFAULT_DEADLINE_S,
    alloc_budget: int = DEFAULT_ALLOC_BUDGET,
    on_progress: Callable[[str, int], None] | None = None,
) -> FuzzReport:
    """Fuzz each reader with ``n_cases`` deterministic mutated payloads."""
    report = FuzzReport()
    t0 = time.perf_counter()
    for fmt in formats:
        if fmt not in FORMATS:
            raise ValueError(f"unknown fuzz format: {fmt!r}")
        entry = FORMATS[fmt]
        for case in generate_cases(fmt, n_cases, seed):
            outcome, etype, msg = _run_guarded(
                entry, case.data, deadline_s, alloc_budget
            )
            report.n_cases += 1
            report.by_format[fmt] = report.by_format.get(fmt, 0) + 1
            if outcome == "parsed":
                report.n_parsed += 1
            elif outcome == "rejected":
                report.n_rejected += 1
            else:
                report.findings.append(
                    FuzzFinding(
                        fmt=fmt,
                        kind=outcome,
                        mutation=case.mutation,
                        seed=case.seed,
                        error_type=etype,
                        message=msg,
                        data=case.data,
                    )
                )
            if on_progress is not None and report.n_cases % 500 == 0:
                on_progress(fmt, report.n_cases)
    report.elapsed_s = time.perf_counter() - t0
    return report


def replay_corpus(
    cases: Iterable[tuple[str, str, bytes]],
    *,
    deadline_s: float = DEFAULT_DEADLINE_S,
    alloc_budget: int = DEFAULT_ALLOC_BUDGET,
) -> FuzzReport:
    """Replay saved regression cases (``(fmt, name, data)`` triples).

    Used by CI against ``tests/fuzz/corpus/``: every committed
    reproducer must stay parsed-or-rejected forever.
    """
    report = FuzzReport()
    t0 = time.perf_counter()
    for fmt, name, data in cases:
        entry = FORMATS[fmt]
        outcome, etype, msg = _run_guarded(entry, data, deadline_s, alloc_budget)
        report.n_cases += 1
        report.by_format[fmt] = report.by_format.get(fmt, 0) + 1
        if outcome == "parsed":
            report.n_parsed += 1
        elif outcome == "rejected":
            report.n_rejected += 1
        else:
            report.findings.append(
                FuzzFinding(
                    fmt=fmt,
                    kind=outcome,
                    mutation=name,
                    seed=-1,
                    error_type=etype,
                    message=msg,
                    data=data,
                )
            )
    report.elapsed_s = time.perf_counter() - t0
    return report
