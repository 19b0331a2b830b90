"""The injectable VFS seam: every durable write goes through one object.

HPC filesystems fail in ways a laptop never rehearses: ``ENOSPC`` halfway
through a compile, ``EIO`` from a flaky parallel filesystem, a power cut
between ``write`` and ``fsync``.  The persistence layer therefore never
calls ``open``/``os.replace``/``os.fsync`` directly — it calls them on
the *active* :class:`FaultableIO`, a trivially-subclassable object that
:class:`repro.testing.StorageChaos` replaces in tests to script faults
deterministically (lint rule MOS018 enforces the routing).

Primitives only live here; the durability *policies* built on them —
atomic whole-file replacement and fsync-checkpointed appends — are in
:mod:`repro.io.durable`.

Fault classification:

* **transient** (``EINTR``/``EAGAIN``/``EIO``): retried with bounded
  deterministic exponential backoff by the durable helpers;
* **permanent** (``ENOSPC``, ``EROFS``, permission errors, exhausted
  retries): surfaced as :class:`StorageError`, a typed ``OSError``
  subclass carrying the failed operation and path, so callers and the
  CLI can report *which artifact* could not be persisted instead of
  leaking a raw errno traceback.
"""

from __future__ import annotations

import contextlib
import errno
import os
import time
from typing import IO, Any, Iterator

from .backoff import Backoff

__all__ = [
    "TRANSIENT_ERRNOS",
    "StorageError",
    "FaultableIO",
    "IORetryPolicy",
    "DEFAULT_RETRY",
    "get_io",
    "set_io",
    "scoped_io",
]

#: Errnos worth retrying: the syscall may succeed if simply re-issued.
#: ``EIO`` is included deliberately — on parallel filesystems a read/
#: write hiccup during failover is transient (PAPERS.md, TraceTracker's
#: block-level view of real storage behavior).
TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN, errno.EIO})


class StorageError(OSError):
    """A durable artifact could not be written or made persistent.

    Subclasses ``OSError`` so pre-existing ``except OSError`` salvage
    paths (e.g. the lint cache's "a cache that cannot be written is a
    performance loss") keep working, while new code can catch the typed
    failure and report the artifact that was lost.
    """

    def __init__(
        self,
        message: str,
        *,
        op: str = "",
        path: str = "",
        errno_value: int | None = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.path = path
        if errno_value is not None:
            self.errno = errno_value


class FaultableIO:
    """Primitive file operations behind one injectable object.

    The default implementation is a thin veneer over the standard
    library.  Tests install :class:`repro.testing.StorageChaos` (via
    :func:`scoped_io`) to script errnos, short writes, and power cuts
    into any primitive without touching the call sites.
    """

    def open(
        self,
        path: str,
        mode: str = "rb",
        *,
        encoding: str | None = None,
        newline: str | None = None,
    ) -> IO[Any]:
        return open(path, mode, encoding=encoding, newline=newline)

    def open_exclusive(self, path: str) -> IO[bytes]:
        """Create ``path`` exclusively (``O_CREAT | O_EXCL``).

        The mutual-exclusion primitive behind lock sidecars: exactly one
        process can win the create; everyone else gets
        ``FileExistsError``.  Returned open for binary write so the
        winner can record its identity (pid) inside.
        """
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            return os.fdopen(fd, "wb")
        except Exception:  # pragma: no cover - fdopen failure is exotic
            os.close(fd)
            raise

    def write(self, fh: IO[Any], data: Any) -> int:
        return int(fh.write(data))

    def flush(self, fh: IO[Any]) -> None:
        fh.flush()

    def fsync(self, fh: IO[Any]) -> None:
        os.fsync(fh.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def fsync_dir(self, path: str) -> None:
        """Persist directory-entry changes (renames, creates) under
        ``path``.  Platforms without directory fds skip silently — the
        rename itself already happened; only its power-cut durability
        is weakened."""
        flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
        try:
            fd = os.open(path or ".", flags)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def sleep(self, seconds: float) -> None:
        """Backoff hook; chaos implementations zero it for fast tests."""
        time.sleep(seconds)


def IORetryPolicy(max_attempts: int = 4, backoff_base_s: float = 0.005) -> Backoff:
    """Bounded retry for transient storage errnos, as a :class:`Backoff`.

    Deterministic and uncapped (no jitter): storage-chaos schedules are
    scripted per call index, and a randomized backoff would make the op
    census differ between the counting run and the injection run.
    """
    return Backoff(base_s=backoff_base_s, attempts=max_attempts)


DEFAULT_RETRY = IORetryPolicy()

_DEFAULT_IO = FaultableIO()
_active_io: FaultableIO = _DEFAULT_IO


def get_io() -> FaultableIO:
    """The process-wide active VFS (the chaos injection point)."""
    return _active_io


def set_io(io: FaultableIO | None) -> None:
    """Install ``io`` as the active VFS (``None`` restores the default)."""
    global _active_io
    _active_io = _DEFAULT_IO if io is None else io


@contextlib.contextmanager
def scoped_io(io: FaultableIO) -> Iterator[FaultableIO]:
    """Temporarily install ``io``; always restores the previous VFS."""
    previous = _active_io
    set_io(io)
    try:
        yield io
    finally:
        set_io(previous)
