"""The full MOSAIC corpus workflow (Fig. 1: ① validity & dedup →
② merging → ③ categorization → ④ output).

Every run goes through one driver, :func:`_run_pipeline_plan`, over a
*plan*: the scan result of pass ① plus the work units of pass ②.  The
entry points only build plans: :func:`run_pipeline_stream` ships one
lazily loaded trace per unit (corpora larger than RAM are
categorizable), :func:`run_pipeline_store` ships ``(store_path, rows)``
slices of a compiled ``.mosc`` store, and :func:`run_pipeline` streams
an in-memory corpus and materializes the selected traces.

The driver alone owns resume, the journal, the result cache, error
policy, the settle loop and the closing counters, so byte-identity
across the routes rests on one loop.  Pass ② runs on the resilient
executor (:func:`~repro.parallel.resilient.resilient_imap`): worker
crashes rebuild the pool, hung units are quarantined as TIMEOUT,
transient errors are retried with backoff, and inputs that repeatedly
kill workers are quarantined as POISON.  With a ``journal_path``, every
per-trace outcome is appended to a JSONL journal as it settles and
committed (fsynced) once per unit, so a killed run resumes
(``resume=True``) exactly where it died, on either route.  See
docs/ROBUSTNESS.md.

A :class:`PipelineContext` threads configuration, error policy, and
observability (per-stage wall-clock timings plus counters: traces
scanned, bytes read, peak in-flight traces, failures, retries, pool
rebuilds) through the run; both surface on :class:`PipelineResult`.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence, Union

from ..darshan.errors import (
    TraceFormatError,
    TraceReadError,
    TraceUnavailableError,
)
from ..darshan.source import InMemorySource, TraceSource
from ..darshan.trace import Trace
from ..parallel.executor import ParallelConfig, TaskFailure
from ..parallel.jobstore import JobStore
from ..parallel.resilient import resilient_imap
from ..parallel.retry import FailureKind, RetryPolicy
from .categorizer import categorize_trace
from .governor import DegradationLevel
from .preprocess import (
    PreprocessResult,
    SelectedRef,
    SelectionPlan,
    load_selected,
    scan_corpus,
)
from .result import CategorizationResult
from .thresholds import DEFAULT_CONFIG, MosaicConfig

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
    #: n_pool_rebuilds, n_timeouts, n_poisoned, n_quarantined, ...
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

    preprocess: PreprocessResult
    #: One result per selected (unique-application) trace.
    results: list[CategorizationResult]
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
    #: Packs the members still to run into units, lazily: a stream
    #: loads each trace only when the executor draws its unit.
    units: Callable[[list[_Member]], Iterator[_Unit]]
    #: Journal ``trace_key`` of one member's failure record.
    failure_key: Callable[[SelectedRef], str]
    #: Per-row content CRCs keying the result cache (store plans only).
    trace_crcs: Sequence[int] | None = None
    #: Source whose pass-② reads are counted (stream plans only).
    source: TraceSource | None = None


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
    ctx: PipelineContext, results: list[CategorizationResult]
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
# Stream units.  A selected trace that stays unreadable after the
# parent-side retry budget travels to the worker as a _LoadFailure
# sentinel (keeping unit indexes aligned), where it raises a permanent,
# per-trace error instead of aborting the corpus.


@dataclass(slots=True, frozen=True)
class _LoadFailure:
    """A selected trace whose reload failed even with retries."""

    job_id: int
    error_type: str
    message: str


_Payload = Union[Trace, _LoadFailure]


def _categorize_payload(
    payload: _Payload, config: MosaicConfig
) -> list[CategorizationResult]:
    """Worker-side entry of a one-trace unit: categorize the trace, or
    surface its load error."""
    if isinstance(payload, _LoadFailure):
        raise TraceUnavailableError(
            f"trace {payload.job_id} unreadable after retries: "
            f"{payload.error_type}: {payload.message}"
        )
    return [categorize_trace(payload, config)]


def _load_with_retry(
    source: TraceSource,
    entry: SelectedRef,
    policy: RetryPolicy,
    ctx: PipelineContext,
) -> _Payload:
    """Reload one selected trace, retrying transient read failures.

    The scan already decoded this trace once, so a failure here is
    environmental (file mid-rewrite, I/O hiccup) until proven
    persistent — exactly the ``TraceFormatError``-on-reread class the
    retry policy covers.
    """
    backoff = policy.backoff
    attempts = 0
    while True:
        attempts += 1
        try:
            return load_selected(source, entry)
        except (TraceFormatError, TraceReadError, OSError) as exc:
            if attempts >= backoff.attempts:
                return _LoadFailure(
                    job_id=entry.job_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
            ctx.count("n_reload_retries")
            delay = backoff.backoff_s(attempts - 1, key=entry.job_id)
            if delay > 0:
                time.sleep(delay)


def _stream_plan(source: TraceSource, ctx: PipelineContext) -> _Plan:
    """Scan ``source``; one unit per selected trace."""

    def units(pending: list[_Member]) -> Iterator[_Unit]:
        for member in pending:
            payload = _load_with_retry(
                source, member[1], ctx.parallel.retry, ctx
            )
            yield [member], payload

    return _Plan(
        scan=_scan_stage(
            ctx, lambda: scan_corpus(source, repair=ctx.repair), source
        ),
        worker=_categorize_payload,
        units=units,
        failure_key=lambda entry: str(entry.ref.key),
        source=source,
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
    content was categorized before are served their saved line (and
    still journaled, so resume and byte-identity hold regardless of
    cache state).  A result is encoded once, as it settles; the
    journal, the cache and ``results.jsonl`` all write that line
    (:meth:`CategorizationResult.json_line`).  The rest ship in units
    through :func:`~repro.parallel.resilient.resilient_imap`; each
    outcome settles every member of its unit — a failed unit journals
    one failure per member.  Journal records stay per trace however the
    work ships, so a journal started on one route resumes on another.
    Persistence is group-committed: one journal commit (and one cache
    commit) after the cache-served block and after each unit.
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
    source = plan.source
    bytes_before = source.bytes_read if source is not None else 0
    n_failures = 0
    slots: list[CategorizationResult | None] = [None] * len(scan.selected)
    inflight = 0
    peak = 0
    try:
        with ctx.stage("categorize"):
            pending: list[_Member] = []
            for slot, entry in enumerate(scan.selected):
                if entry.job_id in resumed:
                    slots[slot] = resumed[entry.job_id]
                elif entry.job_id in quarantined:
                    n_failures += 1
                else:
                    pending.append((slot, entry))
            ctx.count("n_resumed", len(scan.selected) - len(pending))

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
                    slots[slot] = CategorizationResult.from_json_line(  # mosaic: disable=MOS016 (rehydration of an already-governed result)
                        saved
                    )
                    if jobstore is not None:
                        jobstore.settle_result(entry.job_id, saved)
                # group commit: one fsync for the whole cache-served block
                cache.commit()
                if jobstore is not None and jobstore.commit():
                    ctx.count("n_journal_commits")
                pending = uncached

            shipped: list[list[_Member]] = []

            def feed() -> Iterator[Any]:
                nonlocal inflight, peak
                for members, payload in plan.units(pending):
                    shipped.append(members)
                    inflight += len(members)
                    peak = max(peak, inflight)
                    yield payload

            fn: Callable[[Any], Any] = functools.partial(
                plan.worker, config=ctx.config
            )
            if ctx.wrap_worker is not None:
                fn = ctx.wrap_worker(fn)

            for index, outcome in resilient_imap(
                fn, feed(), ctx.parallel, on_count=ctx.count
            ):
                members = shipped[index]
                inflight -= len(members)
                if isinstance(outcome, TaskFailure):
                    for _slot, entry in members:
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
                        if jobstore is None and slot not in cache_keys:
                            continue
                        line = result.json_line()
                        if jobstore is not None:
                            jobstore.settle_result(entry.job_id, line)
                        if cache is not None and slot in cache_keys:
                            cache.put(cache_keys[slot], line)
                # group commit: one fsync per unit, whatever its outcome
                if cache is not None:
                    cache.commit()
                if jobstore is not None and jobstore.commit():
                    ctx.count("n_journal_commits")
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
    if source is not None:
        ctx.count("categorize_bytes_read", source.bytes_read - bytes_before)
    ctx.gauge("peak_inflight_traces", peak)
    ctx.timings["total_s"] = time.perf_counter() - started
    # historical stage names, kept for dashboards and the benchmarks
    ctx.timings.setdefault("preprocess_s", ctx.timings.get("scan_s", 0.0))

    return PipelineResult(
        preprocess=scan.to_result(None),
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
    return context or PipelineContext(
        config=config,
        parallel=parallel or _default_parallel(),
        repair=repair,
    )


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

    Memory model: pass ① holds one trace at a time plus per-application
    dedup refs; pass ② holds at most
    :meth:`~repro.parallel.executor.ParallelConfig.resolved_pending`
    selected traces in flight (1 when serial).  The full corpus is never
    resident, so corpus size is bounded by disk, not RAM.

    ``journal_path`` checkpoints every per-trace outcome as it completes
    (append-only JSONL); ``resume=True`` reloads an existing journal at
    that path first and skips traces it already settled — completed ones
    contribute their saved results, quarantined (TIMEOUT/POISON) ones
    stay quarantined.  ``context`` may be passed to override error
    policy, inject a worker wrapper, or share one metrics sink across
    runs; otherwise one is built from the arguments.
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
    (:func:`repro.columnar.scan.scan_store`), and pass ② ships tiny
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
    # runs reuse one verified read-only mapping instead of paying
    # open + CRC sweep per invocation; workers reattach the same way.
    store = attach(store_path, verify=True)

    def units(pending: list[_Member]) -> Iterator[_Unit]:
        by_row = {int(entry.ref.key): (slot, entry) for slot, entry in pending}
        slices: list[StoreSlice] = plan_slices(
            store,
            list(by_row),
            budget=ctx.config.budget,
            **({"target_ops": slice_ops} if slice_ops is not None else {}),
        )
        ctx.count("n_slices", len(slices))
        for task in slices:
            yield [by_row[row] for row in task.rows], task

    plan = _Plan(
        scan=_scan_stage(ctx, lambda: scan_store(store, repair=ctx.repair)),
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
    result.preprocess = plan.scan.to_result(
        [load_selected(source, entry) for entry in plan.scan.selected]
    )
    return result
