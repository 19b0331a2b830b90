"""Append-only run journal: checkpoint/resume for corpus execution.

A corpus run at paper scale (462,502 traces) that dies at trace 23,000
must not restart from zero.  The journal is a JSON-lines file written
*during* the categorize stage — one line per per-trace outcome, flushed
as it happens — so a killed run can be resumed with ``--resume``: traces
whose outcome is already journaled are skipped and their saved results
reused verbatim.

Format (one JSON object per line):

* ``{"kind": "header", "version": 1, "n_selected": N}`` — first line of
  a fresh journal; ``n_selected`` guards against resuming over a
  *different* corpus.
* ``{"kind":"result","job_id":J,"result":{...}}`` — one completed
  categorization; the ``"result"`` value is its ``results.jsonl`` line,
  verbatim.  Older journals held a compact re-encoding of the same
  object, which parses to the same values.
* ``{"kind": "failure", "job_id": J, "failure_kind": "poison", ...}`` —
  one failed trace with its taxonomy kind, error class, and source key.

The file is crash-tolerant by construction: lines are flushed as
written and fsynced at commit boundaries, so a killed process — or a
power cut — leaves at most one partial trailing line, which the loader
ignores.
Quarantined outcomes (TIMEOUT/POISON) are skipped on resume — a hung
decode does not get to hang every resumed run — while plain EXCEPTION
failures are re-attempted, since they may have been environmental.

This module deliberately traffics in JSON text and plain dicts (not
:class:`~repro.core.result.CategorizationResult`) so the parallel layer
never imports the core package.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..io import DurableAppender, StorageError, atomic_write_text, get_io

__all__ = [
    "JOURNAL_VERSION",
    "JournalLockHeld",
    "JournalState",
    "JournalWriter",
    "QUARANTINE_KINDS",
    "acquire_journal_lock",
    "iter_settle_events",
    "release_journal_lock",
    "write_quarantine_manifest",
]

JOURNAL_VERSION = 1

#: Failure kinds that stay quarantined (skipped) across resumes.
QUARANTINE_KINDS = frozenset({"timeout", "poison"})


@dataclass(slots=True)
class JournalState:
    """Everything a resumed run needs from a prior journal."""

    #: Selected-trace count recorded by the run that wrote the journal
    #: (``None`` for a headerless/legacy file).
    n_selected: int | None = None
    #: job_id → parsed ``"result"`` object of completed categorizations.
    completed: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: job_id → failure record of quarantined (TIMEOUT/POISON) traces.
    quarantined: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: Failure records that are *not* quarantined (re-run on resume).
    transient_failures: list[dict[str, Any]] = field(default_factory=list)
    #: Unparseable lines skipped (normally 0 or 1: a torn final write).
    n_malformed: int = 0
    #: Parseable settle lines (result *and* failure, duplicates counted)
    #: in journal order — the event-sequence cursor a resumed writer
    #: continues from, so SSE event ids stay stable across restarts.
    n_settle_events: int = 0

    @property
    def n_completed(self) -> int:
        return len(self.completed)

    def is_settled(self, job_id: int) -> bool:
        """True when a resumed run should skip this trace."""
        return job_id in self.completed or job_id in self.quarantined

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "JournalState":
        """Parse a journal, tolerating a torn trailing line.

        Raises :class:`ValueError` only for a journal written by an
        incompatible format version — everything else degrades to
        counting the line as malformed, because a journal that survived
        a crash is expected to be imperfect.
        """
        state = cls()
        for line in _read_lines(path):
            if line is None:
                state.n_malformed += 1
                continue
            kind, job_id, entry = line
            if kind == "header":
                version = entry.get("version")
                if version != JOURNAL_VERSION:
                    raise ValueError(
                        f"journal version {version!r} is not supported "
                        f"(expected {JOURNAL_VERSION})"
                    )
                if entry.get("n_selected") is not None:
                    state.n_selected = int(entry["n_selected"])
                continue
            state.n_settle_events += 1
            if kind == "result":
                state.completed[job_id] = entry["result"]
            elif entry.get("failure_kind") in QUARANTINE_KINDS:
                state.quarantined[job_id] = entry
            else:
                state.transient_failures.append(entry)
        return state


def _parse_line(line: str) -> tuple[str, int, dict[str, Any]] | None:
    """``(kind, job_id, entry)`` of one header or well-formed settle
    line (``job_id`` 0 for a header), ``None`` for a malformed one.

    A ``result`` line needs a ``"result"`` payload and every settle line
    an integral ``job_id``; anything else is malformed.
    """
    try:
        entry = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(entry, dict):
        return None
    kind = entry.get("kind")
    if kind == "header":
        return "header", 0, entry
    if kind not in ("result", "failure") or (
        kind == "result" and "result" not in entry
    ):
        return None
    try:
        return kind, int(entry["job_id"]), entry
    except (KeyError, TypeError, ValueError):
        return None


def _read_lines(
    path: str | os.PathLike[str],
) -> Iterator[tuple[str, int, dict[str, Any]] | None]:
    """:func:`_parse_line` of every non-blank journal line, in order —
    the one reader behind both :meth:`JournalState.load` and
    :func:`iter_settle_events`, so the two agree on which lines are
    settle events."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield _parse_line(line)


def iter_settle_events(
    path: str | os.PathLike[str],
) -> "Iterator[tuple[int, str, dict[str, Any]]]":
    """Yield ``(seq, kind, entry)`` for every settle line, in order.

    ``seq`` is 1-based and counts every well-formed ``result``/``failure``
    line (duplicates from resumed transient failures included), matching
    the cursor :class:`JournalState` tracks in ``n_settle_events`` and
    the one a live :class:`~repro.parallel.jobstore.JobStore` advances —
    the three views of "event number N" always agree, which is what
    makes SSE ``Last-Event-ID`` replay sound.  Malformed lines (the torn
    tail of a crashed append) are skipped without consuming a sequence
    number, exactly as :meth:`JournalState.load` skips them.
    """
    seq = 0
    for line in _read_lines(path):
        if line is not None and line[0] != "header":
            kind, _job_id, entry = line
            seq += 1
            yield seq, kind, entry


class JournalLockHeld(StorageError):
    """The journal is already locked by a *live* process.

    Two writers interleaving JSONL appends corrupt resume state, so the
    second opener fails fast instead of silently sharing the file.  A
    typed :class:`~repro.io.StorageError` subclass: the CLI's storage
    exit path (exit code 3) and the service's HTTP mapping both apply.
    """


def _pid_alive(pid: int) -> bool:
    """Liveness probe behind stale-lock detection (signal 0)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - defensive
        return True
    return True


def _lock_holder(lock_path: str) -> int | None:
    """Pid recorded in a lock sidecar, or ``None`` when unreadable.

    An empty/garbled sidecar means the creating process died between
    the exclusive create and the pid write — stale by definition.
    """
    try:
        with open(lock_path, "rb") as fh:  # read path: not the seam
            return int(fh.read().strip() or b"-1")
    except (OSError, ValueError):
        return None


def acquire_journal_lock(path: str | os.PathLike[str]) -> str:
    """Take the ``<path>.lock`` sidecar exclusively; return its path.

    The sidecar is created with ``O_CREAT | O_EXCL`` (through the VFS
    seam, so chaos can script the create) and records the owner's pid.
    An existing sidecar naming a live process raises
    :class:`JournalLockHeld`; one naming a dead pid — the ``kill -9``
    leftover — is broken and re-acquired.
    """
    lock_path = os.fspath(path) + ".lock"
    io = get_io()
    for _attempt in range(8):
        try:
            fh = io.open_exclusive(lock_path)
        except FileExistsError:
            holder = _lock_holder(lock_path)
            if holder is not None and _pid_alive(holder):
                raise JournalLockHeld(
                    f"journal {os.fspath(path)!r} is locked by live "
                    f"process {holder} (lock sidecar {lock_path!r}); "
                    "two writers would interleave appends and corrupt "
                    "resume state",
                    op="lock",
                    path=lock_path,
                ) from None
            # Stale: the recorded owner is gone.  Break the sidecar and
            # race for the create again — losing the race means someone
            # live took it in the meantime.
            with contextlib.suppress(OSError):
                os.unlink(lock_path)
            continue
        except OSError as exc:
            raise StorageError(
                f"could not create journal lock {lock_path!r}: {exc}",
                op="lock",
                path=lock_path,
                errno_value=exc.errno,
            ) from exc
        try:
            io.write(fh, str(os.getpid()).encode("ascii"))
            io.flush(fh)
        except StorageError:
            release_journal_lock(lock_path)
            raise
        except OSError as exc:
            # A sidecar without a readable pid would read as stale to
            # every other process: remove it rather than leave it.
            release_journal_lock(lock_path)
            raise StorageError(
                f"could not record pid in journal lock {lock_path!r}: {exc}",
                op="lock",
                path=lock_path,
                errno_value=exc.errno,
            ) from exc
        finally:
            fh.close()
        return lock_path
    raise StorageError(  # pragma: no cover - pathological contention
        f"could not acquire journal lock {lock_path!r} after retries",
        op="lock",
        path=lock_path,
    )


def release_journal_lock(lock_path: str) -> None:
    """Remove a lock sidecar (best-effort; absence is success)."""
    with contextlib.suppress(OSError):
        os.unlink(lock_path)


class JournalWriter:
    """Append-only writer; one flushed JSON line per outcome.

    Opened in truncate mode for a fresh run and append mode for a
    resumed one.  Writes go through :class:`repro.io.DurableAppender`:
    every line is flushed as written, so a ``kill -9`` loses nothing.
    The file is fsynced every ``sync_interval`` lines (default 1), and
    with ``sync_interval=0`` only at :meth:`commit`, :meth:`checkpoint`
    and close — the group commit :class:`~repro.parallel.jobstore.JobStore`
    uses, where a power cut loses at most the outcomes since the last
    commit.  Storage failures surface as :class:`repro.io.StorageError`
    naming the journal path.

    Construction takes the ``<path>.lock`` sidecar exclusively
    (:func:`acquire_journal_lock`) and :meth:`close` releases it, so two
    processes pointed at the same ``--journal`` path cannot interleave
    appends: the second opener fails fast with :class:`JournalLockHeld`.
    A lock left by a killed process is detected by pid liveness and
    broken.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        append: bool = False,
        sync_interval: int = 1,
    ):
        self.path = os.fspath(path)
        self._lock_path: str | None = acquire_journal_lock(self.path)
        try:
            self._appender: DurableAppender | None = DurableAppender(
                self.path, append=append, sync_interval=sync_interval
            )
        except BaseException:
            self._release_lock()
            raise

    def _release_lock(self) -> None:
        if self._lock_path is not None:
            release_journal_lock(self._lock_path)
            self._lock_path = None

    # ------------------------------------------------------------------
    def _write(self, line: str) -> None:
        if self._appender is None:
            raise ValueError(f"journal {self.path!r} is closed")
        self._appender.append_line(line)

    def write_header(self, *, n_selected: int) -> None:
        header = (JOURNAL_VERSION, n_selected)
        self._write('{"kind":"header","version":%d,"n_selected":%d}' % header)

    def record_result(self, job_id: int, line: str) -> None:
        """Journal one result, given as its canonical line."""
        self._write('{"kind":"result","job_id":%d,"result":%s}' % (job_id, line))

    def record_failure(self, record: dict[str, Any]) -> None:
        """Journal one failure record (``job_id``, ``failure_kind``,
        ``error_type``, ``message``, ``trace_key``, ``attempts``)."""
        self._write(json.dumps({"kind": "failure", **record}, separators=(",", ":")))

    def checkpoint(self) -> None:
        """Force-fsync everything journaled so far."""
        if self._appender is not None:
            self._appender.checkpoint()

    def commit(self) -> bool:
        """fsync the lines written since the last fsync; False (and no
        fsync) when there are none."""
        if self._appender is None:
            raise ValueError(f"journal {self.path!r} is closed")
        return self._appender.commit()

    def close(self) -> None:
        try:
            if self._appender is not None:
                self._appender.close()
                self._appender = None
        finally:
            self._release_lock()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_quarantine_manifest(
    journal_path: str | os.PathLike[str],
    entries: list[dict[str, Any]],
) -> str:
    """Write the poisoned/timed-out trace manifest next to a journal.

    The manifest is the operator's worklist: every trace the run gave
    up on, with its source key (a path for directory corpora), failure
    kind, and error, at ``<journal>.quarantine.json``.  Written (even
    when empty) so its absence always means "no journaled run", never
    "no quarantine".
    """
    path = os.fspath(journal_path) + ".quarantine.json"
    payload = {
        "version": JOURNAL_VERSION,
        "n_quarantined": len(entries),
        "quarantined": sorted(entries, key=lambda e: e.get("job_id", 0)),
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return path
