"""Single-node parallel execution engine — the reproduction's Dispy
substitute: one crash-surviving streaming executor
(:func:`resilient_imap`: bounded in-flight window, retry/timeout/backoff,
poison quarantine), its :class:`ParallelConfig` (whose ``retry`` field is
the one home of every retry knob), and an append-only run journal for
checkpoint/resume."""

from .executor import ParallelConfig, TaskFailure
from .jobstore import JobStore, replay_settles
from .journal import (
    JOURNAL_VERSION,
    QUARANTINE_KINDS,
    JournalLockHeld,
    JournalState,
    JournalWriter,
    write_quarantine_manifest,
)
from .resilient import PoolRebuildLimit, resilient_imap
from .retry import (
    FailureKind,
    RetryPolicy,
    TRANSIENT_ERROR_TYPES,
    is_transient,
)

__all__ = [
    "ParallelConfig",
    "TaskFailure",
    "JOURNAL_VERSION",
    "JobStore",
    "replay_settles",
    "JournalLockHeld",
    "JournalState",
    "JournalWriter",
    "QUARANTINE_KINDS",
    "write_quarantine_manifest",
    "PoolRebuildLimit",
    "resilient_imap",
    "FailureKind",
    "RetryPolicy",
    "TRANSIENT_ERROR_TYPES",
    "is_transient",
]
