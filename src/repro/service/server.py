"""Mosaic-as-a-service: the async categorization server.

``mosaic serve`` turns the batch pipeline into a long-lived daemon
co-located with the trace drop-box: clients POST jobs naming a
server-visible compiled store (``.mosc``) or trace directory, receive a
job id immediately, and either poll ``/jobs/<id>`` or stream settle
events over SSE.  Results are the byte-identical JSONL the batch CLI
writes — the server *is* :func:`~repro.core.pipeline.run_pipeline_store`
behind HTTP, not a reimplementation.

Stdlib only: one asyncio accept loop speaking minimal HTTP/1.1
(``Connection: close`` per request), with every blocking step —
registry appends, pipeline runs, result-file reads — pushed through
``loop.run_in_executor`` so the event loop never touches disk.  That
contract is linted (MOS019: no blocking I/O in ``repro.service``
coroutines), and every awaited socket read carries a deadline (MOS020)
so a slow-loris client cannot pin a coroutine.

The server is built to stay correct *under* overload and restarts:

* **admission control** (:mod:`.admission`) — the job queue, the
  concurrent-request count, and the summed in-flight body bytes are all
  bounded; beyond them the server sheds with ``429``/``503`` +
  ``Retry-After`` instead of queueing unboundedly, and every shed is
  accounted at ``/metrics``;
* **graceful drain** — SIGTERM flips ``/readyz`` to 503, refuses new
  submissions, lets the running job finish (queued jobs stay durably
  registered for the next incarnation), sends every SSE subscriber a
  terminal ``drain`` event, and exits.  A hard deadline
  (``drain_timeout_s``) escalates to the kill-9-safe resume path: the
  journal has committed every finished unit of work, so abandoning the
  in-flight job costs only the unit in flight (one trace, or one store
  slice);
* **durability** — the job registry (``<data>/jobs.jsonl``) is a
  :class:`~repro.io.DurableAppender` log replayed at startup; each
  job's per-trace outcomes live in its own
  :class:`~repro.parallel.jobstore.JobStore` journal, so restart
  resumes exactly where the previous incarnation died; idempotency
  keys persisted with submissions make client resubmission safe.

Routes::

    GET  /healthz             liveness (503 once the job worker died)
    GET  /readyz              readiness (503 while draining/degraded)
    GET  /metrics             queue depth, cache hit rate, catalog
                              counters, admission/shed counters,
                              pipeline counters
    GET  /catalog             per-application categories, runs and
                              stability, in application-key order
    POST /jobs                {"store": path} | {"traces": path}
                              [+ "repair", "budget", "idempotency_key"]
                              -> 202 {job_id} | 200 (deduplicated)
    GET  /jobs                all jobs (registry order)
    GET  /jobs/<id>           one job's status
    GET  /jobs/<id>/results   JSONL (chunked) | 202 pending | 404 |
                              500 failed | 507 storage-failed
    GET  /jobs/<id>/events    SSE settle stream until terminal; settle
                              events carry ``id:`` so ``Last-Event-ID``
                              resumes from the journal; a settle event
                              goes out only after the journal commit
                              that made it durable

A job that dies with :class:`~repro.io.StorageError` (disk full, torn
device) is reported as HTTP 507 Insufficient Storage, matching the
batch CLI's dedicated exit code 3.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..core.governor import ResourceBudget
from ..core.pipeline import (
    PipelineContext,
    PipelineResult,
    run_pipeline_store,
    run_pipeline_stream,
)
from ..core.result import CategorizationResult, save_results_jsonl
from ..core.stream import ApplicationCatalog
from ..core.thresholds import DEFAULT_CONFIG, MosaicConfig
from ..darshan.errors import TraceFormatError
from ..darshan.source import DirectorySource
from ..io import DurableAppender, StorageError, atomic_write_text
from ..parallel.executor import ParallelConfig
from ..parallel.jobstore import replay_settles
from .admission import AdmissionControl, AdmissionLimits
from .cache import ResultCache, config_namespace

__all__ = ["JobRecord", "MosaicServer", "result_weight"]

#: Largest request body accepted by the default limits (submissions are
#: tiny JSON documents).  Kept as a module constant for callers that
#: sized payloads against the pre-admission-control server.
MAX_BODY_BYTES = AdmissionLimits().max_body_bytes

#: Job states.  queued/running are non-terminal; the rest are terminal.
_TERMINAL = frozenset({"done", "failed", "storage-failed"})

#: SSE event names that end a subscription.
_SSE_TERMINAL = frozenset({"finished", "drain"})

#: Exit status of a drain that hit its hard deadline: the process
#: abandons the in-flight executor thread (the journal already holds
#: every settled trace) and the supervisor restarts into journal resume.
DRAIN_ESCALATION_EXIT = 75  # EX_TEMPFAIL: transient, retry (restart) works

#: Budget for writing a refusal to a client that may itself be stalled.
_REJECT_SEND_TIMEOUT_S = 5.0

#: Most bytes read-and-dropped to let a rejected client finish sending,
#: so the refusal arrives instead of a connection reset.  Beyond this
#: the connection is simply closed.
_MAX_DISCARD_BYTES = 8 << 20


def result_weight(result: Any) -> float:
    """Catalog keep-heaviest weight of one categorization result.

    Approximates :meth:`~repro.darshan.trace.Trace.io_weight`
    (``total_bytes + total_metadata_ops``) from what the result retains:
    significant directions' chunk volumes plus metadata requests.
    """
    total = float(result.metadata_total)
    for vols in result.chunk_volumes.values():
        if vols:
            total += float(sum(vols))
    return total


class _SlowWorker:
    """Test-only worker wrapper: stretch each task by a fixed delay.

    Enabled via ``MOSAIC_SERVE_TEST_DELAY_S`` so crash tests can land a
    ``kill -9`` mid-journal deterministically.  Module-level and
    state-free, hence picklable for pool workers.
    """

    def __init__(self, fn: Any, delay_s: float) -> None:
        self.fn = fn
        self.delay_s = delay_s

    def __call__(self, item: Any) -> Any:
        time.sleep(self.delay_s)
        return self.fn(item)


class _Reject(Exception):
    """A request refused at the front door (status + payload)."""

    def __init__(
        self, status: int, reason: str, message: str, *, retry_after: bool = False
    ) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message
        self.retry_after = retry_after


@dataclass(slots=True)
class _Request:
    """One parsed HTTP request plus its body-budget reservation."""

    method: str
    target: str
    headers: dict[str, str]
    body: bytes
    reserved: int


@dataclass(slots=True)
class JobRecord:
    """One submitted categorization job."""

    job_id: str
    kind: str  # "store" | "traces"
    path: str
    repair: bool = False
    budget: dict[str, Any] | None = None
    idempotency_key: str = ""
    status: str = "queued"
    error: str = ""
    n_results: int = -1
    n_failures: int = -1
    metrics: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "path": self.path,
            "repair": self.repair,
            "status": self.status,
        }
        if self.budget:
            out["budget"] = self.budget
        if self.idempotency_key:
            out["idempotency_key"] = self.idempotency_key
        if self.error:
            out["error"] = self.error
        if self.n_results >= 0:
            out["n_results"] = self.n_results
            out["n_failures"] = self.n_failures
            out["metrics"] = self.metrics
        return out


class MosaicServer:
    """The service: job queue, registry, cache, catalog, HTTP front."""

    def __init__(
        self,
        data_dir: str | os.PathLike[str],
        *,
        config: MosaicConfig = DEFAULT_CONFIG,
        workers: int = 0,
        host: str = "127.0.0.1",
        port: int = 8377,
        limits: AdmissionLimits | None = None,
        sse_keepalive_s: float = 15.0,
    ) -> None:
        self.data_dir = os.fspath(data_dir)
        self.config = config
        self.workers = workers
        self.host = host
        self.port = port
        self.admission = AdmissionControl(limits)
        self.sse_keepalive_s = sse_keepalive_s
        self.jobs_dir = os.path.join(self.data_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        #: One catalog, folded only on the single job thread; the lock
        #: keeps ``/metrics`` and ``/catalog`` readers off a half-done fold.
        self.catalog = ApplicationCatalog(config=config)
        self._catalog_lock = threading.Lock()
        self._caches: dict[str, ResultCache] = {}
        self.jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._seq = 0
        #: idempotency key -> job_id (rebuilt from the registry).
        self._idem_keys: dict[str, str] = {}
        #: Aggregated PipelineResult.metrics across finished jobs.
        self.pipeline_metrics: dict[str, int] = {}
        self._metrics_lock = threading.Lock()
        self._registry_path = os.path.join(self.data_dir, "jobs.jsonl")
        resumed = self._replay_registry()
        self._registry = DurableAppender(
            self._registry_path,
            append=os.path.exists(self._registry_path),
        )
        self._queue: asyncio.Queue[JobRecord] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._drain: asyncio.Event | None = None
        #: True from the moment drain is requested; flips /readyz.
        self.draining = False
        #: True when the drain hard deadline passed with a job still
        #: running — ``serve_forever`` then exits without waiting for
        #: the abandoned executor thread (journal resume covers it).
        self.drain_escalated = False
        self._worker_task: asyncio.Task | None = None
        self._worker_exited_clean = False
        #: In-flight connection handler tasks, for clean teardown.
        self._conn_tasks: set[asyncio.Task] = set()
        #: job_id -> SSE subscriber queues.
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        #: job_id -> seq of the last committed settle published this
        #: incarnation (loop side): the replay bound of a live job.
        self._committed_seq: dict[str, int] = {}
        #: Jobs run on a dedicated executor so an abandoned (escalated)
        #: job never blocks ``loop.shutdown_default_executor``.
        self._job_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="mosaic-job"
        )
        self._resumed_at_start = resumed
        delay = os.environ.get("MOSAIC_SERVE_TEST_DELAY_S")
        self._test_delay_s = float(delay) if delay else 0.0

    # -- registry ------------------------------------------------------
    def _replay_registry(self) -> list[JobRecord]:
        """Rebuild job state from the append-only registry.

        Returns the non-terminal jobs (submitted, never finished) — the
        ones a previous incarnation died holding, to be re-queued.
        """
        try:
            with open(self._registry_path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crashed append
            if event.get("event") == "submitted":
                job = JobRecord(
                    job_id=str(event["job_id"]),
                    kind=str(event["kind"]),
                    path=str(event["path"]),
                    repair=bool(event.get("repair", False)),
                    budget=event.get("budget"),
                    idempotency_key=str(event.get("idempotency_key", "")),
                )
                self.jobs[job.job_id] = job
                self._order.append(job.job_id)
                if job.idempotency_key:
                    self._idem_keys[job.idempotency_key] = job.job_id
                num = job.job_id.rsplit("-", 1)[-1]
                if num.isdigit():
                    self._seq = max(self._seq, int(num))
            elif event.get("event") == "finished":
                job = self.jobs.get(str(event.get("job_id", "")))
                if job is not None:
                    job.status = str(event.get("status", "failed"))
                    job.error = str(event.get("error", ""))
                    job.n_results = int(event.get("n_results", -1))
                    job.n_failures = int(event.get("n_failures", -1))
        return [j for j in self.jobs.values() if j.status not in _TERMINAL]

    def _register(self, event: dict[str, Any]) -> None:
        """Durably append one registry event (executor thread only)."""
        self._registry.append_line(json.dumps(event, separators=(",", ":")))

    # -- jobs ----------------------------------------------------------
    def cache_for(self, repair: bool) -> ResultCache:
        """The (config, repair)-namespaced result cache, memoized so hit
        counters survive across jobs."""
        ns = config_namespace(self.config, repair)
        if ns not in self._caches:
            self._caches[ns] = ResultCache(
                os.path.join(self.data_dir, "cache"), namespace=ns
            )
        return self._caches[ns]

    def _job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def _job_config(self, job: JobRecord) -> MosaicConfig:
        if not job.budget:
            return self.config
        budget = ResourceBudget(**job.budget)
        return self.config.with_overrides(budget=budget)

    def _execute(self, job: JobRecord) -> PipelineResult:
        """Run one job's pipeline to completion (executor thread).

        The journal makes this restartable: when a journal already
        exists at the job's path, a previous incarnation died mid-job
        and the run resumes from its settled outcomes.
        """
        job_dir = self._job_dir(job.job_id)
        os.makedirs(job_dir, exist_ok=True)
        journal = os.path.join(job_dir, "journal.jsonl")
        resume = os.path.exists(journal)
        config = self._job_config(job)

        def on_commit(events: list[tuple[str, int, int]]) -> None:
            settles = [{"event": k, "trace_job_id": j, "seq": s} for k, j, s in events]
            self._publish(job.job_id, *settles)

        ctx = PipelineContext(
            config=config,
            parallel=ParallelConfig(max_workers=self.workers),
            repair=job.repair,
            result_cache=self.cache_for(job.repair) if job.kind == "store" else None,
            on_commit=on_commit,
        )
        if self._test_delay_s > 0:
            delay = self._test_delay_s
            ctx.wrap_worker = lambda fn: _SlowWorker(fn, delay)
        try:
            if job.kind == "store":
                result = run_pipeline_store(
                    job.path,
                    context=ctx,
                    journal_path=journal,
                    resume=resume,
                )
            else:
                result = run_pipeline_stream(
                    DirectorySource(job.path),
                    context=ctx,
                    journal_path=journal,
                    resume=resume,
                )
        except TraceFormatError as exc:
            # an unreadable/corrupt submission is this job's failure,
            # re-raised as the typed error the job worker reports
            raise ValueError(f"unreadable {job.kind}: {exc}") from exc
        self._fold_into_catalog(result.results)
        save_results_jsonl(
            result.results, os.path.join(job_dir, "results.jsonl")
        )
        job.n_results = result.n_categorized
        job.n_failures = result.n_failures
        job.metrics = dict(result.metrics)
        with self._metrics_lock:
            for key, value in result.metrics.items():
                self.pipeline_metrics[key] = (
                    self.pipeline_metrics.get(key, 0) + value
                )
        return result

    def _fold_into_catalog(self, results: list[CategorizationResult]) -> None:
        """Fold one finished job's results into the catalog (job thread)."""
        with self._catalog_lock:
            for r in results:
                self.catalog.fold(r, result_weight(r))

    # -- SSE plumbing --------------------------------------------------
    def _publish(self, job_id: str, *events: dict[str, Any]) -> None:
        """Push events to a job's SSE subscribers, in order, with one
        event-loop wakeup (any thread)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._publish_on_loop, job_id, events)

    def _publish_on_loop(self, job_id: str, events: tuple[dict[str, Any], ...]) -> None:
        queues = self._subscribers.get(job_id, [])
        for event in events:
            if "seq" in event:
                self._committed_seq[job_id] = event["seq"]
            for queue in queues:
                queue.put_nowait(event)

    def _publish_all_on_loop(self, event: dict[str, Any]) -> None:
        """Broadcast one event to every SSE subscriber (loop side)."""
        for queues in self._subscribers.values():
            for queue in queues:
                queue.put_nowait(event)

    # -- async job machinery -------------------------------------------
    def _admit(self, job: JobRecord) -> None:
        """Make one admitted job visible and queued — synchronous, so
        the caller's admit-check and this insertion are one atomic step
        from the event loop's point of view."""
        assert self._queue is not None
        self.jobs[job.job_id] = job
        self._order.append(job.job_id)
        if job.idempotency_key:
            self._idem_keys[job.idempotency_key] = job.job_id
        self._queue.put_nowait(job)

    async def _register_submission(self, job: JobRecord) -> None:
        """Durably append the submitted event (event-loop side)."""
        assert self._loop is not None
        await self._loop.run_in_executor(
            None,
            self._register,
            {
                "event": "submitted",
                "job_id": job.job_id,
                "kind": job.kind,
                "path": job.path,
                "repair": job.repair,
                **(
                    {"idempotency_key": job.idempotency_key}
                    if job.idempotency_key
                    else {}
                ),
                **({"budget": job.budget} if job.budget else {}),
            },
        )

    async def _job_worker(self) -> None:
        """Drain the queue: one pipeline at a time per worker task."""
        assert self._loop is not None and self._queue is not None
        while True:
            job = await self._queue.get()
            if self.draining:
                # Not picked up: the job stays durably registered as
                # submitted-but-unfinished, so the next incarnation
                # re-queues it — "checkpointed", not lost.
                self._queue.task_done()
                continue
            job.status = "running"
            self._publish(job.job_id, {"event": "running"})
            status = "done"
            try:
                await self._loop.run_in_executor(
                    self._job_executor, self._execute, job
                )
            except StorageError as exc:
                status = "storage-failed"
                job.error = str(exc)
            except Exception as exc:  # noqa: BLE001 - job isolation
                status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
            try:
                await self._loop.run_in_executor(
                    None,
                    self._register,
                    {
                        "event": "finished",
                        "job_id": job.job_id,
                        "status": status,
                        "error": job.error,
                        "n_results": job.n_results,
                        "n_failures": job.n_failures,
                    },
                )
            finally:
                # the job leaves "running" only once its end is recorded:
                # a drain waits on "running", and tearing down before
                # this append lets the next incarnation re-run the job
                job.status = status
            self._publish(
                job.job_id, {"event": "finished", "status": job.status}
            )
            self._queue.task_done()

    # -- health ---------------------------------------------------------
    def worker_alive(self) -> bool:
        """True while the queue consumer task is running."""
        task = self._worker_task
        return task is not None and not task.done()

    def _worker_died(self) -> bool:
        """True when the queue consumer died *unexpectedly* — a done
        worker task during normal teardown is not a death."""
        task = self._worker_task
        return (
            task is not None
            and task.done()
            and not self._worker_exited_clean
            and not (self._stop is not None and self._stop.is_set())
        )

    # -- metrics -------------------------------------------------------
    def queue_depth(self) -> int:
        return sum(
            1 for j in self.jobs.values() if j.status in ("queued", "running")
        )

    def metrics(self) -> dict[str, Any]:
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        caches = [c.stats() for c in self._caches.values()]
        totals = {
            name: sum(c[name] for c in caches)
            for name in (
                "hits", "misses", "entries", "segments", "bytes",
                "truncated_bytes",
            )
        }
        hits, misses = totals["hits"], totals["misses"]
        with self._metrics_lock:
            pipeline = dict(self.pipeline_metrics)
        with self._catalog_lock:
            catalog = self.catalog.stats()
        return {
            "queue_depth": self.queue_depth(),
            "draining": self.draining,
            "worker_alive": self.worker_alive(),
            "jobs": by_status,
            "admission": self.admission.snapshot(),
            "cache": {
                **totals,
                "hit_rate": round(hits / (hits + misses), 4)
                if hits + misses
                else 0.0,
                "namespaces": caches,
            },
            "catalog": catalog,
            "pipeline": pipeline,
        }

    # -- HTTP ----------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _Request | None:
        """Parse one request under the admission deadlines and bounds.

        Returns ``None`` when the client hung up or sent garbage;
        raises :class:`_Reject` for every refusal the client should see
        (431 oversized headers, 413 oversized body, 503 body budget,
        408 slow-loris deadline).
        """
        limits = self.admission.limits
        loop = asyncio.get_running_loop()
        deadline = loop.time() + limits.header_timeout_s
        header_bytes = 0
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), limits.header_timeout_s
            )
        except asyncio.TimeoutError:
            self.admission.header_timeouts += 1
            raise _Reject(
                408, "Request Timeout", "header read deadline exceeded"
            ) from None
        except ValueError:
            # the StreamReader line limit tripped: an unbounded request
            # line was refused at the transport buffer, not accumulated
            self.admission.shed_oversized_headers += 1
            raise _Reject(
                431,
                "Request Header Fields Too Large",
                f"request line exceeds {limits.max_header_bytes} bytes",
            ) from None
        if not request_line:
            return None
        header_bytes += len(request_line)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                self.admission.header_timeouts += 1
                raise _Reject(
                    408, "Request Timeout", "header read deadline exceeded"
                )
            try:
                line = await asyncio.wait_for(reader.readline(), remaining)
            except asyncio.TimeoutError:
                self.admission.header_timeouts += 1
                raise _Reject(
                    408, "Request Timeout", "header read deadline exceeded"
                ) from None
            except ValueError:
                self.admission.shed_oversized_headers += 1
                raise _Reject(
                    431,
                    "Request Header Fields Too Large",
                    f"header line exceeds {limits.max_header_bytes} bytes",
                ) from None
            if line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(line)
            if header_bytes > limits.max_header_bytes:
                self.admission.shed_oversized_headers += 1
                raise _Reject(
                    431,
                    "Request Header Fields Too Large",
                    f"header section exceeds {limits.max_header_bytes} bytes",
                )
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = 0
        if length > limits.max_body_bytes:
            self.admission.shed_oversized_body += 1
            await self._discard_body(reader, length)
            raise _Reject(
                413,
                "Payload Too Large",
                f"body exceeds {limits.max_body_bytes} bytes",
            )
        body = b""
        reserved = 0
        if length > 0:
            if not self.admission.try_reserve_body(length):
                await self._discard_body(reader, length)
                raise _Reject(
                    503,
                    "Service Unavailable",
                    "in-flight request body budget exhausted; retry shortly",
                    retry_after=True,
                )
            reserved = length
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), limits.body_timeout_s
                )
            except asyncio.TimeoutError:
                self.admission.body_timeouts += 1
                self.admission.release_body(reserved)
                raise _Reject(
                    408, "Request Timeout", "body read deadline exceeded"
                ) from None
            except asyncio.IncompleteReadError:
                self.admission.release_body(reserved)
                return None
        return _Request(method, target, headers, body, reserved)

    async def _discard_body(
        self, reader: asyncio.StreamReader, length: int
    ) -> None:
        """Read and drop a rejected body (bounded, never buffered whole).

        Closing with the client mid-send would reset the connection
        before the refusal arrives; draining its bytes — chunked, under
        the body deadline — lets the status code land.
        """
        assert self._loop is not None
        budget = min(length, _MAX_DISCARD_BYTES)
        deadline = self._loop.time() + self.admission.limits.body_timeout_s
        while budget > 0:
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                return
            try:
                chunk = await asyncio.wait_for(
                    reader.read(min(budget, 64 * 1024)), remaining
                )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                return
            if not chunk:
                return
            budget -= len(chunk)

    @staticmethod
    def _response(
        status: int,
        reason: str,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        reason: str,
        payload: dict[str, Any],
        *,
        retry_after: bool = False,
    ) -> None:
        body = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        extra: tuple[tuple[str, str], ...] = ()
        if retry_after:
            extra = (
                ("Retry-After", str(self.admission.limits.retry_after_s)),
            )
        writer.write(self._response(status, reason, body, extra_headers=extra))
        await writer.drain()

    async def _send_reject(
        self, writer: asyncio.StreamWriter, reject: _Reject
    ) -> None:
        """Best-effort refusal to a client that may itself be stalled."""
        try:
            await asyncio.wait_for(
                self._send_json(
                    writer,
                    reject.status,
                    reject.reason,
                    {"error": reject.message},
                    retry_after=reject.retry_after,
                ),
                _REJECT_SEND_TIMEOUT_S,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        if not self.admission.try_acquire_request():
            # shed without reading: the listener stays responsive while
            # refusing to buffer what it cannot serve
            try:
                await self._send_reject(
                    writer,
                    _Reject(
                        503,
                        "Service Unavailable",
                        "too many in-flight requests; retry shortly",
                        retry_after=True,
                    ),
                )
            finally:
                if task is not None:
                    self._conn_tasks.discard(task)
                await self._close_writer(writer)
            return
        request: _Request | None = None
        try:
            try:
                request = await self._read_request(reader)
            except _Reject as reject:
                await self._send_reject(writer, reject)
                return
            if request is None:
                return
            await self._route(request, writer)
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        except asyncio.CancelledError:
            # Teardown cancelled us mid-stream. Finish cleanly instead
            # of re-raising: on 3.11 the stream protocol's done-callback
            # calls task.exception() on a cancelled task, which would
            # re-raise into the loop's exception handler.
            pass
        finally:
            if request is not None and request.reserved:
                self.admission.release_body(request.reserved)
            self.admission.release_request()
            if task is not None:
                self._conn_tasks.discard(task)
            await self._close_writer(writer)

    async def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        """Close one connection without ever blocking teardown.

        Normal path: close and flush, bounded — a peer that stops
        reading cannot pin the handler on its own unflushed bytes.
        Stop path: abort outright; the loop is exiting and a flush
        against a dead or idle peer would hang the teardown gather.
        """
        if self._stop is not None and self._stop.is_set():
            try:
                writer.transport.abort()
            except (ConnectionError, OSError):
                pass
            return
        try:
            writer.close()
            await asyncio.wait_for(writer.wait_closed(), 5.0)
        except (asyncio.TimeoutError, asyncio.CancelledError) as exc:
            try:
                writer.transport.abort()
            except (ConnectionError, OSError):
                pass
            if isinstance(exc, asyncio.CancelledError):
                raise
        except (ConnectionError, OSError):
            pass

    async def _route(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        method, target = request.method, request.target
        body = request.body
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            if self._worker_died():
                await self._send_json(
                    writer,
                    503,
                    "Service Unavailable",
                    {
                        "status": "degraded",
                        "error": "job worker task has died; "
                        "queued jobs will not run",
                    },
                )
            else:
                await self._send_json(writer, 200, "OK", {"status": "ok"})
        elif method == "GET" and path == "/readyz":
            if self.draining:
                await self._send_json(
                    writer,
                    503,
                    "Service Unavailable",
                    {"status": "draining"},
                    retry_after=True,
                )
            elif self._worker_died():
                await self._send_json(
                    writer,
                    503,
                    "Service Unavailable",
                    {"status": "degraded", "error": "job worker task has died"},
                )
            else:
                await self._send_json(writer, 200, "OK", {"status": "ready"})
        elif method == "GET" and path == "/metrics":
            await self._send_json(writer, 200, "OK", self.metrics())
        elif method == "GET" and path == "/catalog":
            await self._send_json(writer, 200, "OK", self._catalog_payload())
        elif method == "POST" and path == "/jobs":
            await self._handle_submit(body, writer)
        elif method == "GET" and path == "/jobs":
            await self._send_json(
                writer,
                200,
                "OK",
                {"jobs": [self.jobs[j].to_dict() for j in self._order]},
            )
        elif method == "GET" and path.startswith("/jobs/"):
            rest = path[len("/jobs/") :]
            if rest.endswith("/results"):
                await self._handle_results(rest[: -len("/results")], writer)
            elif rest.endswith("/events"):
                await self._handle_events(
                    rest[: -len("/events")], request.headers, writer
                )
            else:
                job = self.jobs.get(rest)
                if job is None:
                    await self._send_json(
                        writer, 404, "Not Found", {"error": f"no job {rest!r}"}
                    )
                elif job.status == "storage-failed":
                    await self._send_json(
                        writer, 507, "Insufficient Storage", job.to_dict()
                    )
                else:
                    await self._send_json(writer, 200, "OK", job.to_dict())
        else:
            await self._send_json(
                writer,
                404,
                "Not Found",
                {"error": f"no route {method} {path}"},
            )

    def _catalog_payload(self) -> dict[str, Any]:
        with self._catalog_lock:
            apps = [
                {
                    "uid": e.result.uid,
                    "exe": e.result.exe,
                    "categories": sorted(c.value for c in e.result.categories),
                    "n_runs": e.n_runs,
                    "stability": round(e.stability, 4),
                }
                for e in self.catalog.entries()
            ]
        return {"n_apps": len(apps), "apps": apps}

    async def _handle_submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            await self._send_json(
                writer, 400, "Bad Request", {"error": "body is not JSON"}
            )
            return
        store = payload.get("store")
        traces = payload.get("traces")
        if bool(store) == bool(traces):
            await self._send_json(
                writer,
                400,
                "Bad Request",
                {"error": "exactly one of 'store' or 'traces' is required"},
            )
            return
        idem_key = payload.get("idempotency_key", "")
        if not isinstance(idem_key, str) or len(idem_key) > 200:
            await self._send_json(
                writer,
                400,
                "Bad Request",
                {"error": "idempotency_key must be a string of <= 200 chars"},
            )
            return
        if idem_key:
            # a resubmission of work this server already holds is served
            # from the existing job — never shed, never duplicated
            existing_id = self._idem_keys.get(idem_key)
            existing = self.jobs.get(existing_id) if existing_id else None
            if existing is not None and existing.status not in (
                "failed",
                "storage-failed",
            ):
                await self._send_json(
                    writer,
                    200,
                    "OK",
                    {
                        "job_id": existing.job_id,
                        "status": existing.status,
                        "deduplicated": True,
                    },
                )
                return
        if self.draining:
            self.admission.shed_draining += 1
            await self._send_json(
                writer,
                503,
                "Service Unavailable",
                {"error": "server is draining; resubmit after restart"},
                retry_after=True,
            )
            return
        assert self._loop is not None
        kind = "store" if store else "traces"
        source = str(store or traces)
        probe = os.path.isfile if kind == "store" else os.path.isdir
        exists = await self._loop.run_in_executor(None, probe, source)
        if not exists:
            await self._send_json(
                writer,
                400,
                "Bad Request",
                {"error": f"no {kind} at {source!r} on the server"},
            )
            return
        budget = payload.get("budget")
        if budget is not None:
            try:
                ResourceBudget(**budget)
            except (TypeError, ValueError) as exc:
                await self._send_json(
                    writer, 400, "Bad Request", {"error": f"bad budget: {exc}"}
                )
                return
        # admit-check and job insertion with no await in between, so
        # concurrent submissions cannot all observe the pre-burst depth
        if not self.admission.admit_job(self.queue_depth()):
            await self._send_json(
                writer,
                429,
                "Too Many Requests",
                {
                    "error": "job queue is full "
                    f"({self.admission.limits.max_queue_depth} pending); "
                    "retry shortly",
                },
                retry_after=True,
            )
            return
        self._seq += 1
        job = JobRecord(
            job_id=f"job-{self._seq:06d}",
            kind=kind,
            path=source,
            repair=bool(payload.get("repair", False)),
            budget=budget,
            idempotency_key=idem_key,
        )
        self._admit(job)
        await self._register_submission(job)
        await self._send_json(
            writer, 202, "Accepted", {"job_id": job.job_id, "status": "queued"}
        )

    async def _handle_results(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        assert self._loop is not None
        job = self.jobs.get(job_id)
        if job is None:
            await self._send_json(
                writer, 404, "Not Found", {"error": f"no job {job_id!r}"}
            )
            return
        if job.status in ("queued", "running"):
            await self._send_json(writer, 202, "Accepted", job.to_dict())
            return
        if job.status == "storage-failed":
            await self._send_json(
                writer, 507, "Insufficient Storage", job.to_dict()
            )
            return
        if job.status == "failed":
            await self._send_json(
                writer, 500, "Internal Server Error", job.to_dict()
            )
            return
        results_path = os.path.join(self._job_dir(job_id), "results.jsonl")
        data = await self._loop.run_in_executor(
            None, self._read_results, results_path
        )
        if data is None:
            await self._send_json(
                writer,
                500,
                "Internal Server Error",
                {"error": f"results for {job_id!r} are missing on disk"},
            )
            return
        # Chunked JSONL: clients see lines as they are flushed.
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/jsonl\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        for start in range(0, len(data), 64 * 1024):
            chunk = data[start : start + 64 * 1024]
            writer.write(f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    def _read_results(path: str) -> bytes | None:
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except OSError:
            return None

    # -- SSE -------------------------------------------------------------
    @staticmethod
    def _sse_frame(event: dict[str, Any]) -> bytes:
        """One SSE frame; settle events carry their journal seq as ``id:``
        so clients can resume with ``Last-Event-ID``."""
        data = json.dumps(event, separators=(",", ":"))
        if "seq" in event:
            return f"id: {event['seq']}\ndata: {data}\n\n".encode()
        return f"data: {data}\n\n".encode()

    async def _replay(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        after: int,
        upto: int | None,
    ) -> int:
        """Send the journaled settle events with ``after < seq <= upto``;
        returns the last seq sent (``after`` when none)."""
        assert self._loop is not None
        journal = os.path.join(self._job_dir(job_id), "journal.jsonl")
        replayed = await self._loop.run_in_executor(
            None,
            functools.partial(replay_settles, journal, after=after, upto=upto),
        )
        for seq, kind, entry in replayed:
            writer.write(
                self._sse_frame(
                    {
                        "event": kind,
                        "trace_job_id": int(entry["job_id"]),
                        "seq": seq,
                    }
                )
            )
            after = seq
        await writer.drain()
        return after

    async def _handle_events(
        self,
        job_id: str,
        headers: dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self._loop is not None
        job = self.jobs.get(job_id)
        if job is None:
            await self._send_json(
                writer, 404, "Not Found", {"error": f"no job {job_id!r}"}
            )
            return
        after: int | None = None
        raw_last = headers.get("last-event-id")
        if raw_last is not None:
            try:
                after = max(0, int(raw_last))
            except ValueError:
                after = 0
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = after or 0
        queue: asyncio.Queue | None = None
        if job.status not in _TERMINAL and not self.draining:
            # subscribe *before* replaying the journal so nothing
            # settles unseen in the gap; the live loop drops events
            # whose seq the replay already delivered
            queue = asyncio.Queue()
            self._subscribers.setdefault(job_id, []).append(queue)
        try:
            if queue is not None:
                writer.write(
                    self._sse_frame(
                        {"event": "subscribed", "status": job.status}
                    )
                )
                await writer.drain()
            if after is not None:
                # a job still in flight replays only what its commits
                # made durable; later settles arrive as live events
                upto = (
                    None
                    if job.status in _TERMINAL
                    else self._committed_seq.get(job_id, 0)
                )
                sent = await self._replay(writer, job_id, sent, upto)
            if queue is None:
                # terminal (or draining) at subscribe time: replay above
                # is all there is — finish with the terminal event
                terminal = (
                    {"event": "finished", "status": job.status}
                    if job.status in _TERMINAL
                    else {"event": "drain"}
                )
                writer.write(self._sse_frame(terminal))
                await writer.drain()
                return
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=self.sse_keepalive_s
                    )
                except asyncio.TimeoutError:
                    # heartbeat: keeps idle proxies from severing the
                    # stream and lets dead peers surface as write errors
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                seq = event.get("seq")
                if seq is not None and seq <= sent:
                    continue  # already delivered by the journal replay
                if after is not None and (
                    event.get("event") == "finished"
                    or (seq is not None and seq > sent + 1)
                ):
                    # a committed event covers every settle before it:
                    # fill the gap from the journal (a resumed job's
                    # inherited settles are never published live)
                    sent = await self._replay(
                        writer, job_id, sent, None if seq is None else seq - 1
                    )
                writer.write(self._sse_frame(event))
                await writer.drain()
                if seq is not None:
                    sent = seq
                if event.get("event") in _SSE_TERMINAL:
                    return
        finally:
            if queue is not None:
                self._subscribers[job_id].remove(queue)
                if not self._subscribers[job_id]:
                    del self._subscribers[job_id]

    # -- lifecycle -----------------------------------------------------
    def _write_endpoint_file(self, host: str, port: int) -> None:
        """Publish the bound endpoint (``--port 0`` discovery)."""
        atomic_write_text(
            os.path.join(self.data_dir, "server.json"),
            json.dumps({"host": host, "port": port, "pid": os.getpid()}) + "\n",
        )

    def request_stop(self) -> None:
        """Immediate stop (second SIGTERM, SIGINT, tests)."""
        if self._stop is not None:
            self._stop.set()

    def request_drain(self) -> None:
        """Enter the draining state (first SIGTERM).

        Repeated calls escalate to an immediate stop — a second SIGTERM
        is the operator saying "now", and the journal makes that safe.
        """
        if self._drain is None:
            return
        if self.draining:
            self.request_stop()
            return
        self.draining = True
        self._drain.set()

    async def _graceful_drain(self) -> None:
        """Let in-flight work finish under the drain hard deadline."""
        assert self._loop is not None
        self.draining = True
        # every SSE subscriber gets a terminal drain event: consumers
        # reconnect after restart and resume via Last-Event-ID
        self._publish_all_on_loop({"event": "drain"})
        deadline = self._loop.time() + self.admission.limits.drain_timeout_s
        while any(j.status == "running" for j in self.jobs.values()):
            if self._stop is not None and self._stop.is_set():
                return
            if self._loop.time() >= deadline:
                # hard-deadline escalation: abandon the executor thread;
                # the job's journal holds every settled trace, so the
                # restart resumes it (the kill-9-safe path)
                self.drain_escalated = True
                return
            await asyncio.sleep(0.05)
        # the running job (if any) finished; give open streams a moment
        # to flush their terminal events before teardown cancels them
        while self._conn_tasks:
            if (
                (self._stop is not None and self._stop.is_set())
                or self._loop.time() >= deadline
            ):
                return
            await asyncio.sleep(0.02)

    async def run(self) -> None:
        """Serve until stop/drain (:meth:`request_stop`,
        :meth:`request_drain`, or a signal handler) fires."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stop = asyncio.Event()
        self._drain = asyncio.Event()
        for job in self._resumed_at_start:
            job.status = "queued"
            await self._queue.put(job)
        self._worker_exited_clean = False
        self._worker_task = asyncio.ensure_future(self._job_worker())
        server = await asyncio.start_server(
            self._handle_client,
            self.host,
            self.port,
            limit=self.admission.limits.max_header_bytes,
        )
        host, port = server.sockets[0].getsockname()[:2]
        await self._loop.run_in_executor(
            None, self._write_endpoint_file, host, port
        )
        stop_wait = asyncio.ensure_future(self._stop.wait())
        drain_wait = asyncio.ensure_future(self._drain.wait())
        try:
            async with server:
                await asyncio.wait(
                    {stop_wait, drain_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if self._drain.is_set() and not self._stop.is_set():
                    await self._graceful_drain()
        finally:
            for waiter in (stop_wait, drain_wait):
                waiter.cancel()
            await asyncio.gather(stop_wait, drain_wait, return_exceptions=True)
        # teardown: the queue consumer and every in-flight connection
        # are cancelled and awaited, so writers close cleanly and no
        # ConnectionResetError leaks into the loop's exception handler
        self._worker_exited_clean = True
        self._worker_task.cancel()
        conn_tasks = [t for t in self._conn_tasks if not t.done()]
        for task in conn_tasks:
            task.cancel()
        await asyncio.gather(
            self._worker_task, *conn_tasks, return_exceptions=True
        )
        try:
            await self._loop.run_in_executor(None, self._registry.close)
        except RuntimeError:
            # the executor pool is gone (interpreter finalizing under a
            # late teardown): close inline rather than skip the fsync
            self._registry.close()
        # never wait for an in-flight job here: a stop is the kill-like
        # path and the journal resumes whatever was abandoned.  (On a
        # normal process exit the interpreter still joins the executor
        # thread; an escalated drain bypasses that via serve_forever.)
        self._job_executor.shutdown(wait=False, cancel_futures=True)

    def serve_forever(self) -> None:
        """Blocking entry point used by ``mosaic serve``.

        SIGTERM drains gracefully (a second SIGTERM, or SIGINT, stops
        immediately).  A drain that exceeds its hard deadline exits with
        :data:`DRAIN_ESCALATION_EXIT` without waiting for the abandoned
        job — its journal resumes it on restart.
        """
        import signal

        async def _main() -> None:
            loop = asyncio.get_running_loop()
            try:
                loop.add_signal_handler(signal.SIGTERM, self.request_drain)
                loop.add_signal_handler(signal.SIGINT, self.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                # no signal support here (non-main thread, exotic
                # loop): Ctrl-C still lands as KeyboardInterrupt
                pass
            await self.run()

        asyncio.run(_main())
        if self.drain_escalated:
            # the abandoned executor thread would otherwise keep the
            # interpreter alive past the hard deadline it just enforced
            os._exit(DRAIN_ESCALATION_EXIT)
