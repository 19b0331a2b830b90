"""Failure taxonomy and retry/backoff policy for corpus execution.

At fleet scale, failures are not one thing: a raised exception, a hung
decode, a worker killed by the OS, and an input that *repeatedly* kills
workers all demand different treatment.  :class:`FailureKind` names the
four classes; :class:`RetryPolicy` carries the knobs that decide how
many second chances each class gets, and its :attr:`RetryPolicy.backoff`
schedule (a :class:`repro.io.Backoff`) spaces the chances out with
exponential backoff and *deterministic* jitter, so a retried corpus run
is reproducible down to its sleep schedule.

Transience is classified by exception type name (:func:`is_transient`)
rather than by instance, because failures cross the process boundary as
captured strings, never as live exception objects.  Matching is exact:
builtins by bare name, repro-internal classes by module-qualified name —
a third-party exception merely *named* ``ConnectionError`` or
``TraceReadError`` is not silently retried.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..io import Backoff

__all__ = [
    "FailureKind",
    "RetryPolicy",
    "TRANSIENT_BUILTIN_TYPES",
    "TRANSIENT_ERROR_TYPES",
    "TRANSIENT_QUALIFIED_TYPES",
    "is_transient",
]


class FailureKind(Enum):
    """How one work item failed — decides retry/quarantine treatment.

    * ``EXCEPTION`` — the mapped function raised; retried only when the
      exception class is transient (:func:`is_transient`).
    * ``TIMEOUT`` — the item exceeded its wall-clock deadline; the
      worker is recycled and the item quarantined (a hung decode does
      not get to hang twice).
    * ``CRASH`` — a worker died (OOM kill, segfault) while this item
      was in flight; the item is replayed in isolation to assign blame.
    * ``POISON`` — the item repeatedly killed workers and is quarantined
      instead of being retried forever.
    """

    EXCEPTION = "exception"
    TIMEOUT = "timeout"
    CRASH = "crash"
    POISON = "poison"


#: Builtin exception names considered transient: worth re-executing
#: after a backoff because the failure is plausibly environmental (I/O
#: hiccup, interrupted syscall) rather than deterministic.  Builtins are
#: the only names matched bare — :func:`_exc_qualname
#: <repro.parallel.executor._exc_qualname>` leaves them unqualified.
TRANSIENT_BUILTIN_TYPES = frozenset(
    {
        "OSError",
        "IOError",
        "TimeoutError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionRefusedError",
        "BrokenPipeError",
        "BlockingIOError",
        "InterruptedError",
    }
)

#: Repro-internal transient classes, matched *only* by module-qualified
#: name so a third-party class that merely shares the bare name is not
#: silently retried.  ``TraceFormatError``/``TraceReadError`` are here
#: for the re-read path: a trace that *scanned* clean but fails on
#: reload is being touched by something external, not structurally
#: corrupt.
TRANSIENT_QUALIFIED_TYPES = frozenset(
    {
        "repro.darshan.errors.TraceFormatError",
        "repro.darshan.errors.TraceReadError",
    }
)

#: Every transient name, for introspection/docs (the union the old
#: single suffix-matched table used to hold).
TRANSIENT_ERROR_TYPES = TRANSIENT_BUILTIN_TYPES | TRANSIENT_QUALIFIED_TYPES


def is_transient(error_type: str) -> bool:
    """True when an exception type name names a retryable failure class.

    Callers should pass the module-qualified name when they have one
    (:attr:`TaskFailure.qualname <repro.parallel.executor.TaskFailure>`),
    falling back to the bare ``error_type``.  Matching is deliberately
    exact, not suffix-based:

    * a qualified name matches only :data:`TRANSIENT_QUALIFIED_TYPES`
      (plus a ``builtins.``-qualified spelling of a builtin);
    * a bare name matches only :data:`TRANSIENT_BUILTIN_TYPES` — so
      ``somepkg.errors.ConnectionError`` or a user-defined
      ``TraceReadError`` never borrows the transient treatment of the
      class it shadows.
    """
    if error_type in TRANSIENT_QUALIFIED_TYPES:
        return True
    prefix, _, name = error_type.rpartition(".")
    if prefix and prefix != "builtins":
        return False
    return name in TRANSIENT_BUILTIN_TYPES


@dataclass(slots=True, frozen=True)
class RetryPolicy:
    """Second-chance budget of a resilient corpus run.

    All fields are validated at construction; the zero values are
    meaningful (``task_timeout_s=0`` disables deadlines,
    ``max_retries=0`` disables retry, ``backoff_base_s=0`` retries
    immediately — useful in tests).
    """

    #: Per-task wall-clock deadline in seconds; 0 disables deadlines.
    task_timeout_s: float = 0.0
    #: Re-executions granted to a transiently-failing item.
    max_retries: int = 2
    #: First backoff delay; doubles per retry (exponential).
    backoff_base_s: float = 0.05
    #: Ceiling on any single backoff delay.
    backoff_cap_s: float = 2.0
    #: Pool rebuilds (crash or timeout recycles) tolerated per run
    #: before the run itself is declared unhealthy and aborted.
    max_pool_rebuilds: int = 3
    #: Crash events an item may be implicated in before it is
    #: quarantined as :attr:`FailureKind.POISON`.  The first event may
    #: be a group crash; subsequent ones are isolation replays, so 2
    #: means "crashed once alone after crashing once in company".
    max_item_crashes: int = 2

    def __post_init__(self) -> None:
        if self.task_timeout_s < 0:
            raise ValueError("task_timeout_s must be >= 0 (0 disables)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.max_item_crashes < 1:
            raise ValueError("max_item_crashes must be >= 1")

    @property
    def deadline_s(self) -> float | None:
        """The task deadline, or ``None`` when deadlines are disabled."""
        return self.task_timeout_s if self.task_timeout_s > 0 else None

    @property
    def backoff(self) -> Backoff:
        """The retry sleep schedule: exponential from
        ``backoff_base_s``, capped at ``backoff_cap_s``, with
        deterministic jitter keyed by the retried item."""
        return Backoff(
            base_s=self.backoff_base_s,
            cap_s=self.backoff_cap_s,
            attempts=self.max_retries + 1,
            jitter=True,
        )
