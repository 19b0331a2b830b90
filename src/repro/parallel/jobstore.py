"""JobStore: the submit → settle → resume contract over one journal.

Both batch pipelines (:func:`~repro.core.pipeline.run_pipeline_stream`,
:func:`~repro.core.pipeline.run_pipeline_store`) and the categorization
service (:mod:`repro.service`) need the same bookkeeping around a
checkpoint journal: load prior state when resuming, refuse a journal
written for a different corpus, open the writer (taking the exclusive
lock sidecar), journal every per-trace outcome as it settles, track
which failures are quarantined, and publish the quarantine manifest on
close.  Before this module each caller re-implemented that dance;
:class:`JobStore` is the one shared implementation, so a job started by
the CLI can be resumed by the server (and vice versa) byte-identically.

Like :mod:`repro.parallel.journal` underneath it, this layer traffics in
JSON text — never :class:`~repro.core.result.CategorizationResult` —
so the parallel package stays independent of the core package.

Lifecycle::

    store = JobStore(path, resume=True)
    state = store.open(n_selected=plan.n_selected)  # lock + header
    ...                                             # state.completed /
    store.settle_result(job_id, line)               # state.quarantined
    store.settle_failure(job_id, failure_kind=..., ...)
    store.commit()                                  # one fsync per unit
    store.close()                                   # manifest + unlock

Settles are group-committed: each one appends and flushes its journal
line (a ``kill -9`` loses nothing), and :meth:`JobStore.commit` fsyncs
every line since the previous commit at once — the driver commits once
per unit of work.  ``on_commit`` (optional) is handed each commit's
settles, once, only after the commit that made them durable — the
service's live-stream hook, so a client never sees a result a power
cut could lose.  Every settle carries a 1-based sequence number
(:attr:`JobStore.seq`) that counts journal settle lines, so a resumed
store continues exactly where the dead incarnation's numbering
stopped; :attr:`JobStore.committed_seq` is the last durable one.
:func:`replay_settles` re-reads a journal and reproduces the same
``(seq, event)`` stream, which is what backs SSE ``Last-Event-ID``
resume on the server.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable

from .journal import (
    QUARANTINE_KINDS,
    JournalState,
    JournalWriter,
    iter_settle_events,
    write_quarantine_manifest,
)

__all__ = ["JobStore", "replay_settles"]

#: Commit callback: the ``(kind, job_id, seq)`` settles one commit made
#: durable, in order; ``seq`` is the 1-based journal settle-event
#: sequence number, stable across resumes.
CommitFn = Callable[[list[tuple[str, int, int]]], None]


def replay_settles(
    path: str | os.PathLike[str], *, after: int = 0, upto: int | None = None
) -> list[tuple[int, str, dict[str, Any]]]:
    """Settle events journaled at ``path`` with ``after < seq <= upto``.

    Returns ``(seq, kind, record)`` triples in journal order, where
    ``record`` is the journal entry (``result`` lines carry the payload
    under ``"result"``; ``failure`` lines are the failure record).
    ``upto`` (default: no bound) caps the replay at a live store's
    :attr:`JobStore.committed_seq`, so lines written but not yet
    committed are never replayed.  A missing or unreadable journal
    replays as empty — the caller treats that as "nothing settled
    yet", the same answer a fresh job gives.
    """
    out: list[tuple[int, str, dict[str, Any]]] = []
    try:
        for seq, kind, entry in iter_settle_events(path):
            if upto is not None and seq > upto:
                break
            if seq > after:
                out.append((seq, kind, entry))
    except OSError:
        return []
    return out


class JobStore:
    """Journal-backed outcome store for one categorization job.

    ``resume=True`` only takes effect when a journal already exists at
    ``path`` (a fresh path degrades to a fresh run, matching the CLI's
    ``--resume`` ergonomics).  :attr:`resuming` reports which mode was
    actually taken.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        resume: bool = False,
        on_commit: CommitFn | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.resuming = resume and os.path.exists(self.path)
        self.on_commit = on_commit
        self._writer: JournalWriter | None = None
        #: Failure records quarantined this run *or* inherited from the
        #: resumed journal — the manifest content.
        self.quarantine_records: list[dict[str, Any]] = []
        #: Settle-event cursor: the sequence number of the last settled
        #: outcome.  Initialized from the resumed journal's settle-line
        #: count in :meth:`open`, so event numbering is stable across
        #: kill/restart cycles.
        self.seq = 0
        #: Sequence number of the last settle made durable by
        #: :meth:`commit` (or inherited, fsynced, on resume).
        self.committed_seq = 0
        #: Settle events waiting for the next commit to be published.
        self._unpublished: list[tuple[str, int, int]] = []
        self._closed = False

    # ------------------------------------------------------------------
    def open(self, *, n_selected: int) -> JournalState:
        """Load prior state, take the lock, write the header if fresh.

        A resumed journal is fsynced before its lines count as settled:
        a line that survived a ``kill -9`` only in the page cache is
        durable before any client is told about it.

        Raises :class:`ValueError` when a resumed journal was written
        for a corpus with a different selected-trace count, and
        :class:`~repro.io.StorageError` (via the writer) when the
        journal is locked by a live process or cannot be opened.
        """
        if self._writer is not None:
            raise ValueError(f"job store {self.path!r} is already open")
        state = JournalState()
        if self.resuming:
            state = JournalState.load(self.path)
            if (
                state.n_selected is not None
                and state.n_selected != n_selected
            ):
                raise ValueError(
                    f"journal {self.path!r} was written for a corpus with "
                    f"{state.n_selected} selected traces; this corpus "
                    f"selects {n_selected} — refusing to resume"
                )
            self.quarantine_records.extend(state.quarantined.values())
        writer = JournalWriter(self.path, append=self.resuming)
        try:
            if self.resuming:
                writer.checkpoint()
            else:
                writer.write_header(n_selected=n_selected)
        except BaseException:
            with contextlib.suppress(OSError):
                writer.close()
            raise
        self._writer = writer
        self.seq = self.committed_seq = state.n_settle_events
        return state

    def _require_writer(self) -> JournalWriter:
        if self._writer is None:
            raise ValueError(
                f"job store {self.path!r} is not open (call open() first)"
            )
        return self._writer

    def _settled(self, kind: str, job_id: int) -> None:
        self.seq += 1
        if self.on_commit is not None:
            self._unpublished.append((kind, job_id, self.seq))

    # ------------------------------------------------------------------
    def settle_result(self, job_id: int, line: str) -> None:
        """Journal one completed categorization, given as its canonical
        line (durable at the next :meth:`commit`)."""
        self._require_writer().record_result(job_id, line)
        self._settled("result", job_id)

    def settle_failure(
        self,
        job_id: int,
        *,
        failure_kind: str,
        error_type: str,
        message: str,
        trace_key: str = "",
        attempts: int = 1,
    ) -> bool:
        """Journal one failure (durable at the next :meth:`commit`);
        True when it was quarantined."""
        record = {
            "job_id": job_id,
            "failure_kind": failure_kind,
            "error_type": error_type,
            "message": message,
            "trace_key": trace_key,
            "attempts": attempts,
        }
        quarantined = failure_kind in QUARANTINE_KINDS
        if quarantined:
            self.quarantine_records.append(record)
        self._require_writer().record_failure(record)
        self._settled("failure", job_id)
        return quarantined

    def commit(self) -> bool:
        """Make every settle since the last commit durable, then hand
        them to ``on_commit`` in one call, in sequence order.

        One fsync however many settles the group holds, and none when
        nothing was appended since the last commit; returns whether an
        fsync happened.
        """
        synced = self._require_writer().commit()
        self.committed_seq = self.seq
        events, self._unpublished = self._unpublished, []
        if events and self.on_commit is not None:
            self.on_commit(events)
        return synced

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Commit, release the journal lock and publish the quarantine
        manifest.

        Idempotent.  The manifest is written even when nothing was
        quarantined (its absence must always mean "no journaled run")
        — but only if the store actually opened, so a failed ``open``
        leaves no half-artifacts behind.
        """
        if self._closed:
            return
        if self._writer is None:
            self._closed = True
            return
        try:
            self.commit()
        finally:
            writer, self._writer = self._writer, None
            try:
                writer.close()
            finally:
                self._closed = True
                write_quarantine_manifest(self.path, self.quarantine_records)

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
