"""The full MOSAIC corpus workflow (Fig. 1: ① validity & dedup →
② merging → ③ categorization → ④ output).

Every run goes through one driver, :func:`_run_pipeline_plan`, over a
*plan*: the scan result of pass ① plus the work units of pass ②.  The
entry points only build plans: :func:`run_pipeline_stream` ships the
refs of a unit of selected traces, which the worker reads in one batch
(corpora larger than RAM are categorizable), :func:`run_pipeline_store`
ships ``(store_path, rows)`` slices of a compiled ``.mosc`` store, and
:func:`run_pipeline` streams an in-memory corpus and materializes the
selected traces.

The driver alone owns resume, the journal, the result cache, error
policy, the settle loop and the closing counters, so byte-identity
across the routes rests on one loop.  Pass ② runs on the resilient
executor (:func:`~repro.parallel.resilient.resilient_imap`): worker
crashes rebuild the pool, hung units are quarantined as TIMEOUT,
transient errors (a failed reload among them) are retried with
backoff, and inputs that repeatedly kill workers are quarantined as
POISON.  A unit of several traces that fails is split, and its traces
run again one per unit, so a failure is only ever settled against one
trace.  With a ``journal_path``, every per-trace outcome is appended
to a JSONL journal as it settles and committed (fsynced) once per unit,
so a killed run resumes (``resume=True``) exactly where it died, on
either route.  See docs/ROBUSTNESS.md.

A :class:`PipelineContext` threads configuration, error policy, and
observability (per-stage wall-clock timings plus counters: traces
scanned, bytes read, peak in-flight traces, failures, retries, pool
rebuilds) through the run; both surface on :class:`PipelineResult`.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from ..darshan.source import InMemorySource, TraceSource, budgeted
from ..darshan.trace import Trace
from ..parallel.executor import ParallelConfig, TaskFailure
from ..parallel.jobstore import JobStore
from ..parallel.resilient import resilient_imap
from ..parallel.retry import FailureKind
from .categorizer import MAX_SLICE_TRACES, categorize_records
from .governor import DegradationLevel
from .preprocess import (
    SelectedRef,
    SelectionPlan,
    read_selected,
    scan_corpus,
    selected_traces,
)
from .result import CategorizationResult
from .stream import ResultLine
from .thresholds import DEFAULT_CONFIG, MosaicConfig

# Bound by perfbench/tracer.py's per-layer spans (ROADMAP item 1 retires
# that tracer); pass ② itself no longer calls it.
from .categorizer import categorize_trace  # noqa: F401

__all__ = [
    "PipelineContext",
    "PipelineResult",
    "run_pipeline",
    "run_pipeline_store",
    "run_pipeline_stream",
]

#: Worker-function decorator slot type (chaos injection, tracing, ...).
WorkerWrapper = Callable[[Callable[[Any], Any]], Callable[[Any], Any]]


def _default_parallel() -> ParallelConfig:
    return ParallelConfig(max_workers=0)


@dataclass(slots=True)
class PipelineContext:
    """Everything a pipeline run carries besides the corpus itself.

    One context per run: configuration in, per-stage observability out.
    A per-trace categorization failure is counted and the run keeps
    going (the paper's behaviour).  ``wrap_worker`` optionally decorates
    the picklable worker function before it ships to the pool — the
    chaos harness's injection point.
    """

    config: MosaicConfig = DEFAULT_CONFIG
    parallel: ParallelConfig = field(default_factory=_default_parallel)
    repair: bool = False
    wrap_worker: WorkerWrapper | None = None
    #: Wall-clock seconds per stage, keyed ``<stage>_s``.
    timings: dict[str, float] = field(default_factory=dict)
    #: Monotonic counters: traces_scanned, bytes_read, n_unreadable,
    #: peak_inflight_traces, dedup_state_size, failures, n_retries,
    #: n_pool_rebuilds, n_timeouts, n_poisoned, n_quarantined,
    #: n_split_units, ...
    counters: dict[str, int] = field(default_factory=dict)
    #: Optional content-addressed result cache (duck-typed to keep core
    #: independent of :mod:`repro.service`; see
    #: :class:`repro.service.cache.ResultCache`): ``trace_key(crc,
    #: job_id)`` derives the cache key of one store row from its CRC
    #: chain and job id, ``get(key)`` returns a saved result line
    #: (:meth:`CategorizationResult.json_line`) or ``None``, ``put(key,
    #: line)`` stores one, ``commit()`` makes the puts so far durable
    #: and ``close()`` ends the run's use of it.  Consulted only for
    #: store runs — the per-trace CRC that addresses it exists only in
    #: ``.mosc`` v2.
    result_cache: Any | None = None
    #: Optional commit hook passed to the journal-backed
    #: :class:`~repro.parallel.jobstore.JobStore`: called once per
    #: journal commit that made settles durable — after each unit —
    #: with their ``(kind, job_id, seq)`` in order (``kind`` is
    #: ``"result"`` or ``"failure"``; ``seq`` is the journal settle
    #: sequence number, stable across resumes).  The service's SSE live
    #: stream; no effect without ``journal_path``.
    on_commit: Any | None = None

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a pipeline stage; accumulates into :attr:`timings`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            key = f"{name}_s"
            self.timings[key] = self.timings.get(key, 0.0) + (
                time.perf_counter() - t0
            )

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: int) -> None:
        """Record a high-water mark."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value


@dataclass(slots=True)
class PipelineResult:
    """Everything produced by one corpus run."""

    #: Pass ① outcome: the funnel counters and the selected refs.
    preprocess: SelectionPlan
    #: One result per selected (unique-application) trace; a result-cache
    #: hit is the :class:`~repro.core.stream.ResultLine` of its saved line.
    results: list[CategorizationResult | ResultLine]
    #: Failures captured during categorization (never aborts the corpus).
    n_failures: int
    #: Wall-clock seconds spent per stage.
    timings: dict[str, float] = field(default_factory=dict)
    #: Per-stage counters from the run's :class:`PipelineContext`.
    metrics: dict[str, int] = field(default_factory=dict)

    def run_weights(self) -> list[int]:
        """Valid-run count of each result's application, aligned with
        :attr:`results` — the all-runs weighting of the paper's tables."""
        per_app = self.preprocess.runs_per_app
        return [per_app.get(r.app_key, 1) for r in self.results]

    @property
    def n_categorized(self) -> int:
        return len(self.results)


# ----------------------------------------------------------------------
# Plans.  A member is one selected trace: its slot in the scan's
# selection order plus its ref.  A unit is what ships to a worker: a
# payload and the members it settles, one result per member in order.

_Member = tuple[int, SelectedRef]
_Unit = tuple[list[_Member], Any]


@dataclass(slots=True)
class _Plan:
    """What one run categorizes, and how its work ships."""

    #: Pass ① outcome: the selected refs, in slot order, plus counters.
    scan: SelectionPlan
    #: Picklable worker: ``(payload, config=...)`` → one result per
    #: member of the unit the payload came from.
    worker: Callable[..., list[CategorizationResult]]
    #: Packs the members still to run into units, lazily, as the
    #: executor draws them.
    units: Callable[[list[_Member]], Iterator[_Unit]]
    #: Journal ``trace_key`` of one member's failure record.
    failure_key: Callable[[SelectedRef], str]
    #: Per-row content CRCs keying the result cache (store plans only).
    trace_crcs: Sequence[int] | None = None
    #: Whether pass ② reads each member's payload (stream plans): the
    #: run then counts ``categorize_bytes_read``.
    reads_payloads: bool = False


def _scan_stage(
    ctx: PipelineContext,
    scan: Callable[[], SelectionPlan],
    source: TraceSource | None = None,
) -> SelectionPlan:
    """Pass ① plus its bookkeeping."""
    bytes_before = source.bytes_read if source is not None else 0
    with ctx.stage("scan"):
        plan = scan()
    ctx.count("traces_scanned", plan.n_input)
    ctx.count("n_corrupted", plan.n_corrupted)
    ctx.count("n_unreadable", plan.n_unreadable)
    ctx.count("n_repaired", plan.n_repaired)
    if source is not None:
        ctx.count("scan_bytes_read", source.bytes_read - bytes_before)
    # the scan's only retained state: one small ref per application
    ctx.gauge("dedup_state_size", plan.n_selected)
    return plan


def _count_degradation(
    ctx: PipelineContext, results: list[CategorizationResult | ResultLine]
) -> None:
    """Surface the degradation ladder in the run metrics: one counter
    per non-FULL rung (``n_degraded_<level>``) plus the total, so a
    governed run is auditable from its metrics alone."""
    total = 0
    for r in results:
        if r.degradation is not DegradationLevel.FULL:
            total += 1
            ctx.count(f"n_degraded_{r.degradation.value}")
    if total:
        ctx.count("n_degraded", total)


# ----------------------------------------------------------------------
# Stream units: each ships the refs of consecutive selected traces, at
# most BATCH_BYTES of them by size and MAX_SLICE_TRACES in number, and
# the worker reads them in one batch.  A read that fails (file
# mid-rewrite, I/O hiccup) is a transient failure of its unit, retried
# by the executor like any other.


def _categorize_refs(
    source: TraceSource, entries: list[SelectedRef], config: MosaicConfig
) -> list[CategorizationResult]:
    """Worker-side entry of a stream unit: read its traces as record
    batches, then categorize them in one call."""
    return categorize_records(read_selected(source, entries), config)


def _stream_units(pending: list[_Member]) -> Iterator[_Unit]:
    """``pending`` in units, in order, packed by the members' sizes."""
    for members in budgeted(pending, lambda m: m[1].ref.size_bytes, MAX_SLICE_TRACES):
        yield members, [entry for _slot, entry in members]


def _stream_plan(source: TraceSource, ctx: PipelineContext) -> _Plan:
    """Scan ``source``; units of selected traces, shipped as their refs.

    The source is bound into the worker function, which reaches each
    pool worker once (inherited under ``fork``): on a pool the parent
    reads nothing in pass ②.
    """
    return _Plan(
        scan=_scan_stage(
            ctx, lambda: scan_corpus(source, repair=ctx.repair), source
        ),
        worker=functools.partial(_categorize_refs, source),
        units=_stream_units,
        failure_key=lambda entry: str(entry.ref.key),
        reads_payloads=True,
    )


# ----------------------------------------------------------------------
# The driver.


def _run_pipeline_plan(
    plan: _Plan,
    ctx: PipelineContext,
    started: float,
    journal_path: str | os.PathLike[str] | None,
    resume: bool,
) -> PipelineResult:
    """Pass ② of every run: resume, cache, execute, settle, count.

    Members already settled in a resumed journal keep their saved
    outcome; with a result cache and per-row CRCs, members whose
    content was categorized before are served their saved line as a
    :class:`~repro.core.stream.ResultLine`, never rehydrated (and
    still journaled, so resume and byte-identity hold regardless of
    cache state).  A result is encoded once, as it settles; the
    journal, the cache and ``results.jsonl`` all write that line
    (:meth:`CategorizationResult.json_line`).  The rest ship in units
    through :func:`~repro.parallel.resilient.resilient_imap`; a
    result settles every member of its unit.  A failure settles only a
    unit of one: a unit of several that exhausts its retries, crashes
    or times out is split, and its members run again, one per unit,
    through one more executor pass, so each failure record names the
    one trace that failed.  Journal records stay per trace however the
    work ships, so a journal started on one route resumes on another.
    Persistence is group-committed: one journal commit (and one cache
    commit) after the cache-served block and after each settled unit.
    """
    scan = plan.scan
    jobstore: JobStore | None = None
    resumed: dict[int, CategorizationResult] = {}
    quarantined: set[int] = set()
    if journal_path is not None:
        jobstore = JobStore(journal_path, resume=resume, on_commit=ctx.on_commit)
        state = jobstore.open(n_selected=scan.n_selected)
        if jobstore.resuming:
            resumed = {
                job_id: CategorizationResult.from_dict(payload)
                for job_id, payload in state.completed.items()
            }
            quarantined = set(state.quarantined)
            ctx.count("n_journal_malformed", state.n_malformed)

    cache = ctx.result_cache
    n_failures = 0
    bytes_read = 0
    slots: list[CategorizationResult | ResultLine | None] = [None] * len(scan.refs)
    inflight = 0
    peak = 0
    try:
        with ctx.stage("categorize"):
            pending: list[_Member] = []
            for slot, entry in enumerate(scan.refs):
                if entry.job_id in resumed:
                    slots[slot] = resumed[entry.job_id]
                elif entry.job_id in quarantined:
                    n_failures += 1
                else:
                    pending.append((slot, entry))
            ctx.count("n_resumed", len(scan.refs) - len(pending))

            # -- content-addressed result cache: the key mixes the row's
            # CRC chain with its job id (plus the config/repair
            # namespace baked into the cache), so two traces whose
            # 32-bit CRCs collide never share an entry.
            crcs = plan.trace_crcs
            cache_keys: dict[int, str] = {}
            if cache is not None and crcs is not None:
                uncached: list[_Member] = []
                for slot, entry in pending:
                    key = cache.trace_key(
                        int(crcs[int(entry.ref.key)]), entry.job_id
                    )
                    cache_keys[slot] = key
                    saved = cache.get(key)
                    if saved is None:
                        ctx.count("n_cache_misses")
                        uncached.append((slot, entry))
                        continue
                    ctx.count("n_cache_hits")
                    slots[slot] = ResultLine(saved)  # mosaic: disable=MOS016 (the line of an already-governed result)
                    if jobstore is not None:
                        jobstore.settle_result(entry.job_id, saved)
                # group commit: one fsync for the whole cache-served block
                cache.commit()
                if jobstore is not None and jobstore.commit():
                    ctx.count("n_journal_commits")
                pending = uncached

            fn: Callable[[Any], Any] = functools.partial(
                plan.worker, config=ctx.config
            )
            if ctx.wrap_worker is not None:
                fn = ctx.wrap_worker(fn)

            def execute(units: Iterator[_Unit]) -> list[_Member]:
                """Run ``units`` and settle their outcomes; returns the
                members of each failed unit of several, unsettled."""
                nonlocal n_failures, bytes_read, inflight, peak
                shipped: list[list[_Member]] = []
                split: list[_Member] = []

                def feed() -> Iterator[Any]:
                    nonlocal inflight, peak
                    for members, payload in units:
                        shipped.append(members)
                        inflight += len(members)
                        peak = max(peak, inflight)
                        yield payload

                for index, outcome in resilient_imap(
                    fn, feed(), ctx.parallel, on_count=ctx.count
                ):
                    members = shipped[index]
                    inflight -= len(members)
                    if isinstance(outcome, TaskFailure) and len(members) > 1:
                        ctx.count("n_split_units")
                        split += members
                        continue
                    if isinstance(outcome, TaskFailure):
                        [(_slot, entry)] = members
                        n_failures += 1
                        if outcome.kind in (FailureKind.TIMEOUT, FailureKind.POISON):
                            ctx.count("n_quarantined")
                        if jobstore is not None:
                            jobstore.settle_failure(
                                entry.job_id,
                                failure_kind=outcome.kind.value,
                                error_type=outcome.error_type,
                                message=outcome.message,
                                trace_key=plan.failure_key(entry),
                                attempts=outcome.attempts,
                            )
                    else:
                        for (slot, entry), result in zip(members, outcome):
                            slots[slot] = result
                            bytes_read += entry.ref.size_bytes
                            if jobstore is None and slot not in cache_keys:
                                continue
                            line = result.json_line()
                            if jobstore is not None:
                                jobstore.settle_result(entry.job_id, line)
                            if cache is not None and slot in cache_keys:
                                cache.put(cache_keys[slot], line)
                    # group commit: one fsync per settled unit
                    if cache is not None:
                        cache.commit()
                    if jobstore is not None and jobstore.commit():
                        ctx.count("n_journal_commits")
                return split

            # a failed unit of several traces settles nothing: its
            # members run again, one per unit, and settle their own
            # outcomes
            split = execute(plan.units(pending))
            if split:
                execute(unit for member in split for unit in plan.units([member]))
    finally:
        try:
            if cache is not None:
                cache.close()
        finally:
            if jobstore is not None:
                jobstore.close()

    results = [r for r in slots if r is not None]
    ctx.count("n_selected", scan.n_selected)
    ctx.count("n_failures", n_failures)
    _count_degradation(ctx, results)
    if plan.reads_payloads:
        ctx.count("categorize_bytes_read", bytes_read)
    ctx.gauge("peak_inflight_traces", peak)
    ctx.timings["total_s"] = time.perf_counter() - started
    # historical stage names, kept for dashboards and the benchmarks
    ctx.timings.setdefault("preprocess_s", ctx.timings.get("scan_s", 0.0))

    return PipelineResult(
        preprocess=scan,
        results=results,
        n_failures=n_failures,
        timings=dict(ctx.timings),
        metrics=dict(ctx.counters),
    )


# ----------------------------------------------------------------------
# Entry points: build a plan, hand it to the driver.


def _context(
    context: PipelineContext | None,
    config: MosaicConfig,
    parallel: ParallelConfig | None,
    repair: bool,
) -> PipelineContext:
    """``context``, or one built from the arguments; an argument given
    with ``context`` must agree with it, or ``ValueError`` is raised."""
    if context is None:
        return PipelineContext(
            config=config,
            parallel=parallel or _default_parallel(),
            repair=repair,
        )
    for name, given, default in (
        ("config", config, DEFAULT_CONFIG),
        ("parallel", parallel, None),
        ("repair", repair, False),
    ):
        if given != default and given != getattr(context, name):
            raise ValueError(
                f"{name}={given!r} conflicts with the context's {name}; "
                "set it on the context instead"
            )
    return context


def run_pipeline_stream(
    source: TraceSource,
    config: MosaicConfig = DEFAULT_CONFIG,
    parallel: ParallelConfig | None = None,
    *,
    repair: bool = False,
    context: PipelineContext | None = None,
    journal_path: str | os.PathLike[str] | None = None,
    resume: bool = False,
) -> PipelineResult:
    """Run MOSAIC end to end over a lazy trace source, out of core.

    Memory model: pass ① holds one record batch at a time plus
    per-application dedup refs; pass ② ships refs, at most
    :meth:`~repro.parallel.executor.ParallelConfig.resolved_pending` in
    flight, and each worker reloads its own trace, so the parent holds
    no trace at all (one, in process, when serial).  The full corpus is
    never resident, so corpus size is bounded by disk, not RAM.  A
    selected trace that fails to reload is retried by the executor like
    any transient failure, then journaled as that trace's failure.

    ``journal_path`` checkpoints every per-trace outcome as it completes
    (append-only JSONL); ``resume=True`` reloads an existing journal at
    that path first and skips traces it already settled — completed ones
    contribute their saved results, quarantined (TIMEOUT/POISON) ones
    stay quarantined.  ``context`` may be passed to override error
    policy, inject a worker wrapper, or share one metrics sink across
    runs; otherwise one is built from the arguments.  With ``context``,
    ``config``, ``parallel`` and ``repair`` must be left at their
    defaults or agree with it (``ValueError`` otherwise).
    """
    ctx = _context(context, config, parallel, repair)
    started = time.perf_counter()
    plan = _stream_plan(source, ctx)
    return _run_pipeline_plan(plan, ctx, started, journal_path, resume)


def run_pipeline_store(
    store_path: str | os.PathLike[str],
    config: MosaicConfig = DEFAULT_CONFIG,
    parallel: ParallelConfig | None = None,
    *,
    repair: bool = False,
    context: PipelineContext | None = None,
    journal_path: str | os.PathLike[str] | None = None,
    resume: bool = False,
    slice_ops: int | None = None,
) -> PipelineResult:
    """Run MOSAIC over a compiled columnar store (``repro compile``).

    The store-backed fast path: pass ① replays the eviction funnel from
    the trace index without decoding anything
    (:func:`repro.columnar.scan.scan_store`), once per attachment of the
    store in this process (a compiled store is immutable; each run gets
    its own copy of the plan's mutable containers), and pass ② ships tiny
    ``(store_path, rows)`` descriptors to the pool instead of pickled
    traces — each worker reattaches the store read-only via mmap and
    categorizes whole slices through the segmented batch kernels
    (:func:`repro.columnar.batch.categorize_slice`), which are
    bitwise-equivalent to the per-trace pipeline.

    Journal semantics are *per trace*, through the same driver as
    :func:`run_pipeline_stream`: a journal started on one path can be
    resumed on the other.  The per-trace ``ResourceBudget`` is enforced
    per slice: the planner bounds each slice's working set by the
    budget, and each member trace still walks its own degradation
    ladder inside the worker.

    ``repair`` must match how the store was compiled (repair is baked in
    at compile time); a mismatch raises ``ValueError``.
    """
    # Imported lazily: repro.columnar imports from repro.core, so a
    # module-level import would cycle.
    from ..columnar.batch import categorize_slice, plan_slices
    from ..columnar.scan import scan_store
    from ..columnar.store import StoreSlice, attach

    ctx = _context(context, config, parallel, repair)
    started = time.perf_counter()
    # Attached via the per-process cache: repeat runs and resumed
    # runs reuse one verified read-only mapping, and its memoized
    # pass ①, instead of paying open + CRC sweep + scan per
    # invocation; workers reattach the same way.
    store = attach(store_path, verify=True)

    planned = False

    def units(pending: list[_Member]) -> Iterator[_Unit]:
        nonlocal planned
        by_row = {int(entry.ref.key): (slot, entry) for slot, entry in pending}
        slices: list[StoreSlice] = plan_slices(
            store,
            list(by_row),
            budget=ctx.config.budget,
            **({"target_ops": slice_ops} if slice_ops is not None else {}),
        )
        # the first plan only: the one-row units a failed slice is split
        # into are counted by n_split_units
        if not planned:
            planned = True
            ctx.count("n_slices", len(slices))
        for task in slices:
            yield [by_row[row] for row in task.rows], task

    def scan() -> SelectionPlan:
        # pass ① once per attachment; a repair mismatch still raises
        memo = store.scan_memo
        if memo is None or ctx.repair != store.compiled_with_repair:
            memo = store.scan_memo = scan_store(store, repair=ctx.repair)
        return dataclasses.replace(
            memo,
            refs=list(memo.refs),
            runs_per_app=dict(memo.runs_per_app),
            corruption_histogram=Counter(memo.corruption_histogram),
            selected=[],
        )

    plan = _Plan(
        scan=_scan_stage(ctx, scan),
        worker=categorize_slice,
        units=units,
        failure_key=lambda entry: f"{store.path}#{int(entry.ref.key)}",
        trace_crcs=getattr(store, "trace_crcs", None),
    )
    return _run_pipeline_plan(plan, ctx, started, journal_path, resume)


def run_pipeline(
    traces: list[Trace],
    config: MosaicConfig = DEFAULT_CONFIG,
    parallel: ParallelConfig | None = None,
    *,
    repair: bool = False,
) -> PipelineResult:
    """Run MOSAIC end to end over an in-memory corpus of traces.

    Thin batch wrapper over the streaming route: the corpus is wrapped
    in an :class:`~repro.darshan.source.InMemorySource`, and the
    selected traces are materialized on ``preprocess.selected`` (they
    are already resident).

    ``parallel`` defaults to serial execution (``max_workers=0``), the
    right choice for small corpora and tests; pass
    ``ParallelConfig(max_workers=None)`` to use every core like the
    paper's Dispy deployment.
    """
    source = InMemorySource(traces)
    ctx = _context(None, config, parallel, repair)
    started = time.perf_counter()
    plan = _stream_plan(source, ctx)
    result = _run_pipeline_plan(plan, ctx, started, None, False)
    plan.scan.selected = selected_traces(source, plan.scan.refs)
    return result
