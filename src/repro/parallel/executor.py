"""Process-pool plumbing of the resilient executor.

The paper runs per-trace categorization in parallel across a 64-core
node using the Dispy library; offline and single-node here, the
reproduction provides the same contract on top of
:mod:`concurrent.futures` through one executor,
:func:`~repro.parallel.resilient.resilient_imap`.  This module holds
what it is built from:

* :class:`ParallelConfig` — worker count, the bounded in-flight window,
  and the run's :class:`~repro.parallel.retry.RetryPolicy` (the one
  home of every retry/timeout knob);
* :class:`TaskFailure` — the captured failure of one work item, so one
  failing trace never aborts the corpus run;
* the worker-side binding: the mapped function must be a module-level
  picklable callable, the usual multiprocessing constraint.  It is
  shipped to each worker exactly once (via the pool initializer), never
  re-pickled per work item.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from .retry import FailureKind, RetryPolicy

__all__ = [
    "TaskFailure",
    "ParallelConfig",
]

T = TypeVar("T")
R = TypeVar("R")


def _exc_qualname(exc: BaseException) -> str:
    """Module-qualified exception class name (bare for builtins)."""
    cls = type(exc)
    module = getattr(cls, "__module__", "") or ""
    if module in ("builtins", "__main__"):
        return cls.__qualname__
    return f"{module}.{cls.__qualname__}"


@dataclass(slots=True, frozen=True)
class TaskFailure:
    """Captured failure of one work item.

    ``error_type`` keeps the historical bare class name; ``qualname``
    carries the module-qualified name so callers can distinguish
    ``repro.darshan.errors.TraceReadError`` from any other
    ``TraceReadError``.  ``kind`` places the failure in the
    :class:`~repro.parallel.retry.FailureKind` taxonomy and ``attempts``
    records how many executions were spent on the item (1 = no retry).
    """

    index: int
    error_type: str
    message: str
    traceback_text: str
    kind: FailureKind = FailureKind.EXCEPTION
    qualname: str = ""
    attempts: int = 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        retried = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return (
            f"item {self.index}: [{self.kind.value}] "
            f"{self.error_type}: {self.message}{retried}"
        )


#: Submitted-but-unfinished items per worker: the in-flight window is
#: ``workers * PENDING_PER_WORKER`` — enough to keep every worker fed
#: while bounding how many loaded items exist at once.
PENDING_PER_WORKER = 8


@dataclass(slots=True, frozen=True)
class ParallelConfig:
    """Execution knobs for :func:`~repro.parallel.resilient.resilient_imap`."""

    #: 0 or 1 = serial in process (a pool needs at least 2);
    #: None = os.cpu_count().
    max_workers: int | None = None
    #: Retry, deadline, and crash-quarantine budget of the run.
    retry: RetryPolicy = RetryPolicy()

    def resolved_workers(self) -> int:
        if self.max_workers is None:
            return os.cpu_count() or 1
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        return self.max_workers

    def resolved_pending(self) -> int:
        """The in-flight window: at most this many items drawn and
        unfinished at once."""
        return max(1, self.resolved_workers()) * PENDING_PER_WORKER


# ----------------------------------------------------------------------
# Worker-side function binding.  ``fn`` is pickled once per worker via
# the pool initializer instead of once per task tuple: task payloads are
# just ``(index, item)``, which matters when ``fn`` is a closure-heavy
# partial and items number in the hundreds of thousands.
_WORKER_FN: Callable[..., Any] | None = None


def _bind_worker_fn(fn: Callable[[T], R]) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _guarded(
    fn: Callable[[T], R], index: int, item: T
) -> tuple[int, R | None, TaskFailure | None]:
    try:
        return index, fn(item), None
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        return (
            index,
            None,
            TaskFailure(
                index=index,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback_text=traceback.format_exc(),
                kind=FailureKind.EXCEPTION,
                qualname=_exc_qualname(exc),
            ),
        )


def _run_bound(task: tuple[int, T]) -> tuple[int, Any, TaskFailure | None]:
    index, item = task
    assert _WORKER_FN is not None, "worker initializer did not run"
    return _guarded(_WORKER_FN, index, item)


def _pool(fn: Callable[[T], R], workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_bind_worker_fn,
        initargs=(fn,),
    )
