"""Crash-surviving streaming map: the corpus execution engine.

:func:`resilient_imap` is the reproduction's one executor (its Dispy
substitute).  It consumes an *iterable* lazily with a bounded in-flight
window — at most :meth:`ParallelConfig.resolved_pending
<repro.parallel.executor.ParallelConfig.resolved_pending>` items drawn
and unfinished at once, so a generator that loads traces from disk
never races ahead of the workers — and yields ``(index,
result_or_failure)`` pairs: in input order when serial
(``max_workers`` 0 or 1: in process, which also means the mapped
function need not be picklable), in completion order with a pool of
at least 2 workers.

A mapped function that raises becomes a
:class:`~repro.parallel.executor.TaskFailure`, never an abort.  At fleet
scale the impolite failures dominate too: a worker killed by the OOM
killer or a segfault raises ``BrokenProcessPool``, and a hung decode
stalls a naive pool forever.  The executor survives all four failure
classes of the :class:`~repro.parallel.retry.FailureKind` taxonomy:

* **EXCEPTION** — transient error classes (see
  :func:`~repro.parallel.retry.is_transient`) are re-executed with
  exponential backoff and deterministic jitter, up to
  ``max_retries``; everything else fails the item immediately.
* **TIMEOUT** — items exceeding the per-task deadline are quarantined
  and the pool is recycled (kill + rebuild), because a hung worker
  cannot be cancelled politely.
* **CRASH / POISON** — ``BrokenProcessPool`` rebuilds the pool and
  replays the implicated items *one at a time* (isolation replay), so
  blame lands precisely: an item that crashes a worker while alone in
  flight is the culprit.  ``max_item_crashes`` implications quarantine
  it as POISON; innocent bystanders complete on replay.

The pool is rebuilt at most ``max_pool_rebuilds`` times per run; beyond
that the run itself is declared unhealthy and :class:`PoolRebuildLimit`
is raised — a circuit breaker, not fault isolation.

Every recovery event is reported through the optional ``on_count``
callback (``n_retries``, ``n_timeouts``, ``n_crash_events``,
``n_pool_rebuilds``, ``n_poisoned``), which the pipeline binds to its
:class:`~repro.core.pipeline.PipelineContext` counters.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .executor import ParallelConfig, TaskFailure, _guarded, _pool, _run_bound
from .retry import FailureKind, RetryPolicy, is_transient

__all__ = ["PoolRebuildLimit", "resilient_imap"]

T = TypeVar("T")
R = TypeVar("R")

#: Counter callback signature: (counter name, increment).
CountFn = Callable[[str, int], None]


class PoolRebuildLimit(RuntimeError):
    """The process pool died more often than the policy tolerates."""


@dataclass(slots=True)
class _InFlight:
    """Parent-side state of one submitted item."""

    index: int
    item: Any
    submitted_at: float = 0.0
    #: Executions spent so far (the in-flight one included).
    attempts: int = 1
    #: Pool-fatal events this item was in flight for.
    crashes: int = 0


def _noop_count(name: str, value: int) -> None:
    return None


def _synthetic_failure(
    info: _InFlight, kind: FailureKind, error_type: str, message: str
) -> TaskFailure:
    """A failure manufactured parent-side (no exception ever reached us)."""
    return TaskFailure(
        index=info.index,
        error_type=error_type,
        message=message,
        traceback_text="",
        kind=kind,
        qualname=error_type,
        attempts=info.attempts,
    )


def _kill_pool(pool: Any) -> None:
    """Forcibly terminate a pool, hung workers included.

    ``shutdown(wait=False)`` merely stops feeding a pool; a worker stuck
    in a hung decode would survive it forever.  Killing the worker
    processes first makes the subsequent join prompt and marks every
    pending future broken.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except (OSError, AttributeError):
            pass  # already gone
    pool.shutdown(wait=True, cancel_futures=True)


def _serial_resilient(
    fn: Callable[[T], R],
    items: Iterable[T],
    policy: RetryPolicy,
    count: CountFn,
) -> Iterator[tuple[int, R | TaskFailure]]:
    """In-process mode: classified retry with backoff, no deadlines.

    Serial execution cannot preempt a hung call or survive a crash of
    its own process, so only the EXCEPTION leg of the taxonomy applies.
    """
    for index, item in enumerate(items):
        attempts = 0
        while True:
            attempts += 1
            _i, result, failure = _guarded(fn, index, item)
            if failure is None:
                yield (index, result)  # type: ignore[misc]
                break
            if (
                is_transient(failure.qualname or failure.error_type)
                and attempts <= policy.max_retries
            ):
                count("n_retries", 1)
                delay = policy.backoff.backoff_s(attempts - 1, key=index)
                if delay > 0:
                    time.sleep(delay)
                continue
            yield (index, replace(failure, attempts=attempts))
            break


def resilient_imap(
    fn: Callable[[T], R],
    items: Iterable[T],
    config: ParallelConfig | None = None,
    *,
    on_count: CountFn | None = None,
) -> Iterator[tuple[int, R | TaskFailure]]:
    """Streaming fault-isolated map that survives crashes and hangs.

    Lazy consumption with backpressure, ``(index, result_or_failure)``
    pairs, and the recovery behaviour described in the module
    docstring, budgeted by ``config.retry``; ``on_count`` receives
    recovery counters.
    """
    cfg = config or ParallelConfig()
    pol = cfg.retry
    count = on_count if on_count is not None else _noop_count
    workers = cfg.resolved_workers()

    if workers <= 1:
        yield from _serial_resilient(fn, items, pol, count)
        return

    window = cfg.resolved_pending()
    deadline = pol.deadline_s
    it = iter(items)
    pool = _pool(fn, workers)
    rebuilds = 0
    #: (ready_at, tiebreak, info) — items sleeping out a backoff.
    retry_heap: list[tuple[float, int, _InFlight]] = []
    tiebreak = itertools.count()
    #: Items implicated in a crash, replayed one at a time.
    suspects: deque[_InFlight] = deque()
    #: Blame-free items awaiting (re)submission — recycle collateral,
    #: and items whose submission itself hit a broken pool.
    backlog: deque[_InFlight] = deque()
    inflight: dict[Future, _InFlight] = {}
    next_index = 0
    exhausted = False
    finished = False

    def try_submit(info: _InFlight, requeue: deque[_InFlight]) -> bool:
        """Submit one item; False when the pool is (already) broken.

        A crash lands asynchronously, so ``submit`` itself can raise
        ``BrokenProcessPool`` while the feeder is topping up the window.
        The item never ran, so it is requeued blame-free (or back onto
        ``suspects``, keeping its suspect status) and the caller runs
        crash recovery.
        """
        info.submitted_at = time.monotonic()
        try:
            fut = pool.submit(_run_bound, (info.index, info.item))
        except BrokenProcessPool:
            requeue.appendleft(info)
            return False
        inflight[fut] = info
        return True

    def rebuild_pool(reason: str) -> None:
        nonlocal pool, rebuilds
        _kill_pool(pool)
        rebuilds += 1
        if rebuilds > pol.max_pool_rebuilds:
            raise PoolRebuildLimit(
                f"process pool rebuilt {rebuilds} times "
                f"(limit {pol.max_pool_rebuilds}); last cause: {reason}"
            )
        count("n_pool_rebuilds", 1)
        pool = _pool(fn, workers)

    def classify_completed(
        info: _InFlight, failure: TaskFailure | None, result: Any
    ) -> tuple[int, Any] | None:
        """Outcome pair to yield, or None when the item was re-queued."""
        if failure is None:
            return (info.index, result)
        if (
            is_transient(failure.qualname or failure.error_type)
            and info.attempts <= pol.max_retries
        ):
            count("n_retries", 1)
            info.attempts += 1
            ready = time.monotonic() + pol.backoff.backoff_s(
                info.attempts - 1, key=info.index
            )
            heapq.heappush(retry_heap, (ready, next(tiebreak), info))
            return None
        return (info.index, replace(failure, attempts=info.attempts))

    def drain_broken() -> list[tuple[int, Any]]:
        """Crash recovery: salvage finished in-flight futures, implicate
        the broken ones, rebuild the pool.  Returns pairs to yield."""
        count("n_crash_events", 1)
        pairs: list[tuple[int, Any]] = []
        rest, straggling = wait(set(inflight), timeout=5.0)
        for fut in rest:
            info = inflight.pop(fut)
            try:
                _i, result, failure = fut.result(timeout=0)
            except BrokenProcessPool:
                outcome = _implicate(info, pol, count)
                if outcome is not None:
                    pairs.append(outcome)
                else:
                    suspects.append(info)
                continue
            pair = classify_completed(info, failure, result)
            if pair is not None:
                pairs.append(pair)
        for fut in straggling:  # pragma: no cover - defensive
            suspects.append(inflight.pop(fut))
        rebuild_pool("worker crash (BrokenProcessPool)")
        return pairs

    try:
        while True:
            now = time.monotonic()
            # Feed the window.  During isolation replay nothing but the
            # lone suspect is submitted, keeping crash blame precise.
            broken_on_submit = False
            if not suspects:
                while backlog and len(inflight) < window:
                    if not try_submit(backlog.popleft(), backlog):
                        broken_on_submit = True
                        break
                while (
                    not broken_on_submit
                    and retry_heap
                    and retry_heap[0][0] <= now
                    and len(inflight) < window
                ):
                    _ready, _tb, info = heapq.heappop(retry_heap)
                    if not try_submit(info, backlog):
                        broken_on_submit = True
                while (
                    not broken_on_submit
                    and not exhausted
                    and len(inflight) < window
                ):
                    try:
                        item = next(it)
                    except StopIteration:
                        exhausted = True
                        break
                    info = _InFlight(index=next_index, item=item)
                    next_index += 1
                    if not try_submit(info, backlog):
                        broken_on_submit = True
            elif not inflight:
                broken_on_submit = not try_submit(suspects.popleft(), suspects)

            if broken_on_submit:
                for pair in drain_broken():
                    yield pair
                continue

            if not inflight:
                if suspects or backlog:
                    continue
                if retry_heap:
                    pause = retry_heap[0][0] - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                    continue
                break

            timeout = None
            if deadline is not None:
                earliest = min(i.submitted_at for i in inflight.values())
                timeout = max(0.0, earliest + deadline - time.monotonic())
            if retry_heap:
                until_retry = max(0.0, retry_heap[0][0] - time.monotonic())
                timeout = (
                    until_retry if timeout is None else min(timeout, until_retry)
                )
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )

            crashed = False
            for fut in done:
                info = inflight.pop(fut)
                try:
                    _i, result, failure = fut.result(timeout=0)
                except BrokenProcessPool:
                    crashed = True
                    outcome = _implicate(info, pol, count)
                    if outcome is not None:
                        yield outcome
                    else:
                        suspects.append(info)
                    continue
                pair = classify_completed(info, failure, result)
                if pair is not None:
                    yield pair

            if crashed:
                for pair in drain_broken():
                    yield pair
                continue

            if deadline is not None:
                now = time.monotonic()
                expired = [
                    (fut, info)
                    for fut, info in inflight.items()
                    if not fut.done() and now - info.submitted_at > deadline
                ]
                if expired:
                    for fut, info in expired:
                        inflight.pop(fut)
                        count("n_timeouts", 1)
                        yield (
                            info.index,
                            _synthetic_failure(
                                info,
                                FailureKind.TIMEOUT,
                                "TaskTimeout",
                                f"exceeded {deadline:.3g}s wall-clock "
                                "deadline; worker recycled",
                            ),
                        )
                    # Remaining in-flight items are collateral of the
                    # recycle: requeued without blame.
                    backlog.extend(inflight.values())
                    inflight.clear()
                    rebuild_pool("task deadline exceeded")
        finished = True
    finally:
        if finished:
            pool.shutdown(wait=True, cancel_futures=True)
        else:
            # Abandoned mid-run (consumer broke out, raised, or the
            # rebuild limit tripped): a graceful shutdown could block on
            # a hung worker forever, so reclaim the processes by force.
            _kill_pool(pool)


def _implicate(
    info: _InFlight, policy: RetryPolicy, count: CountFn
) -> tuple[int, TaskFailure] | None:
    """Blame one crash event on an item.

    Returns the POISON failure pair once the item exhausts its crash
    budget, ``None`` while it still deserves an isolation replay.
    """
    info.crashes += 1
    if info.crashes >= policy.max_item_crashes:
        count("n_poisoned", 1)
        return (
            info.index,
            _synthetic_failure(
                info,
                FailureKind.POISON,
                "WorkerCrash",
                f"killed a worker {info.crashes} time(s); quarantined",
            ),
        )
    return None
