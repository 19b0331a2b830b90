"""Durability policies over the VFS seam: atomic writes, durable appends.

Two write shapes cover every artifact the system persists
(docs/ROBUSTNESS.md, "Storage fault model"):

* **whole-file artifacts** (``.mosc`` stores, lint caches, baselines,
  CSV exports, result files, manifests) — :func:`atomic_write` /
  :func:`atomic_write_bytes`: the payload lands at a temp path, is
  fsynced, renamed over the final path, and the parent directory is
  fsynced.  A crash at any instant leaves either the old artifact or
  the new one at the final path — never a torn hybrid;
* **append-only logs** (the checkpoint journal, result cache segments)
  — :class:`DurableAppender`: each line is flushed as written and
  fsynced at checkpoint or commit boundaries, so a power cut loses at
  most the lines since the last one (and the readers already tolerate
  a torn trailing line).

Transient errnos (:data:`~repro.io.vfs.TRANSIENT_ERRNOS`) are retried
with deterministic exponential backoff; everything else — and exhausted
retries — raises :class:`~repro.io.vfs.StorageError` naming the
operation and path.  The retried unit is always *replayable*: the
whole in-memory payload for atomic writes, one line for appends (a torn
fragment is newline-terminated first so the retry starts a fresh line
the loader can parse).
"""

from __future__ import annotations

import contextlib
import io as _pyio
import os
from typing import IO, Any, Callable, Iterator

from .backoff import Backoff
from .vfs import (
    DEFAULT_RETRY,
    TRANSIENT_ERRNOS,
    FaultableIO,
    StorageError,
    get_io,
)

__all__ = [
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "durable_append",
    "DurableAppender",
]


def _retry(
    io: FaultableIO,
    policy: Backoff,
    op: str,
    path: str,
    fn: Callable[..., Any],
    *args: Any,
) -> Any:
    """Run one replayable primitive with transient-errno retry."""
    for attempt in range(policy.attempts):
        try:
            return fn(*args)
        except StorageError:
            raise
        except OSError as exc:
            transient = exc.errno in TRANSIENT_ERRNOS
            if transient and attempt + 1 < policy.attempts:
                io.sleep(policy.backoff_s(attempt))
                continue
            kind = "transient fault persisted" if transient else "storage fault"
            raise StorageError(
                f"{op} failed for {path!r} ({kind}): {exc}",
                op=op,
                path=path,
                errno_value=exc.errno,
            ) from exc
    raise AssertionError("unreachable")  # pragma: no cover


def _tmp_path(path: str) -> str:
    """Per-process temp name next to the target (same filesystem, so the
    final rename is atomic)."""
    return f"{path}.tmp.{os.getpid()}"


def atomic_write_bytes(
    path: str | os.PathLike[str],
    data: bytes,
    *,
    io: FaultableIO | None = None,
    policy: Backoff = DEFAULT_RETRY,
    sync: bool = True,
) -> None:
    """Atomically publish ``data`` at ``path`` (temp + fsync + rename +
    parent-dir fsync).

    On any failure the temp file is removed and nothing is visible at
    ``path`` beyond what was there before; the failure is raised as
    :class:`StorageError`.  A failed *write* attempt truncates the temp
    file before the transient retry, so a short write can never leave a
    duplicated prefix in the published artifact.
    """
    io = io or get_io()
    out = os.fspath(path)
    tmp = _tmp_path(out)
    try:
        fh = _retry(io, policy, "open", tmp, io.open, tmp, "wb")
        try:
            _write_all(io, policy, tmp, fh, data)
            if sync:
                _retry(io, policy, "fsync", tmp, io.fsync, fh)
        finally:
            fh.close()
        _retry(io, policy, "replace", out, io.replace, tmp, out)
        if sync:
            _retry(
                io,
                policy,
                "fsync_dir",
                out,
                io.fsync_dir,
                os.path.dirname(out) or ".",
            )
    except BaseException:
        # Best-effort cleanup straight at the os layer: the artifact
        # contract is about the *final* path; a stray temp file is noise
        # an operator can delete, and chaos's power-cut restore is
        # authoritative over it anyway.
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_all(
    io: FaultableIO,
    policy: Backoff,
    tmp: str,
    fh: IO[bytes],
    data: bytes,
) -> None:
    """Write + flush the whole payload, truncating before any retry so a
    partial write is never doubled."""
    for attempt in range(policy.attempts):
        try:
            io.write(fh, data)
            io.flush(fh)
            return
        except OSError as exc:
            transient = exc.errno in TRANSIENT_ERRNOS
            if transient and attempt + 1 < policy.attempts:
                fh.seek(0)
                fh.truncate()
                io.sleep(policy.backoff_s(attempt))
                continue
            kind = "transient fault persisted" if transient else "storage fault"
            raise StorageError(
                f"write failed for {tmp!r} ({kind}): {exc}",
                op="write",
                path=tmp,
                errno_value=exc.errno,
            ) from exc


def atomic_write_text(
    path: str | os.PathLike[str],
    text: str,
    *,
    encoding: str = "utf-8",
    io: FaultableIO | None = None,
    policy: Backoff = DEFAULT_RETRY,
    sync: bool = True,
) -> None:
    """Text form of :func:`atomic_write_bytes` (no newline translation,
    matching ``open(..., newline="")`` semantics)."""
    atomic_write_bytes(
        path, text.encode(encoding), io=io, policy=policy, sync=sync
    )


@contextlib.contextmanager
def atomic_write(
    path: str | os.PathLike[str],
    mode: str = "wb",
    *,
    encoding: str = "utf-8",
    io: FaultableIO | None = None,
    policy: Backoff = DEFAULT_RETRY,
    sync: bool = True,
) -> Iterator[IO[Any]]:
    """Context manager: build a whole-file artifact, publish atomically.

    Yields an in-memory buffer (seekable, like the file the caller used
    to open) and publishes it with :func:`atomic_write_bytes` on clean
    exit — making the retried unit the whole artifact, which is the only
    replayable granularity for caller-driven writes.  If the body
    raises, nothing is written at all.
    """
    if mode not in ("wb", "w"):
        raise ValueError(f"atomic_write supports 'w'/'wb', not {mode!r}")
    buf: IO[Any] = _pyio.BytesIO() if mode == "wb" else _pyio.StringIO()
    yield buf
    data = buf.getvalue()
    if isinstance(data, str):
        data = data.encode(encoding)
    atomic_write_bytes(path, data, io=io, policy=policy, sync=sync)


class DurableAppender:
    """Crash-safe line appender for JSONL logs.

    Every line is written + flushed immediately, so a ``kill -9`` loses
    nothing.  The fsync is a group commit: :meth:`commit` (and close)
    fsyncs every line appended since the last one at once, so a power
    cut loses at most the lines since the last commit.  A caller that
    needs each line durable commits after each append.  A transient
    write failure newline-terminates whatever fragment may have landed
    and rewrites the whole line: the loader skips the malformed
    fragment and keeps the retried entry.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        append: bool = False,
        io: FaultableIO | None = None,
        policy: Backoff = DEFAULT_RETRY,
    ) -> None:
        self.path = os.fspath(path)
        self._io = io or get_io()
        self._policy = policy
        self._since_sync = 0
        mode = "a" if append else "w"
        torn_tail = append and self._ends_mid_line()
        self._fh: IO[str] | None = _retry(
            self._io,
            policy,
            "open",
            self.path,
            lambda: self._io.open(self.path, mode, encoding="utf-8"),
        )
        if torn_tail:
            # A previous writer died mid-line (power cut between write
            # and fsync).  Terminate the fragment so resumed lines start
            # fresh — the loader discards the malformed fragment.
            _retry(self._io, policy, "append", self.path, self._terminate)

    def _ends_mid_line(self) -> bool:
        try:
            with open(self.path, "rb") as fh:  # read path: not the seam
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return False
                fh.seek(-1, os.SEEK_END)
                return fh.read(1) != b"\n"
        except OSError:
            return False

    def _terminate(self) -> None:
        assert self._fh is not None
        self._io.write(self._fh, "\n")
        self._io.flush(self._fh)

    @property
    def closed(self) -> bool:
        return self._fh is None

    def _require_open(self) -> IO[str]:
        if self._fh is None:
            raise ValueError(f"appender for {self.path!r} is closed")
        return self._fh

    def append_line(self, line: str) -> bool:
        """Append one complete line (newline added if missing); True when
        a transient failure made it rewrite the line after a fragment."""
        fh = self._require_open()
        io, policy = self._io, self._policy
        data = line if line.endswith("\n") else line + "\n"
        for attempt in range(policy.attempts):
            try:
                io.write(fh, data)
                io.flush(fh)
                break
            except OSError as exc:
                transient = exc.errno in TRANSIENT_ERRNOS
                if transient and attempt + 1 < policy.attempts:
                    # Terminate any torn fragment so the retried line
                    # starts fresh; the loader discards the fragment.
                    with contextlib.suppress(OSError):
                        io.write(fh, "\n")
                        io.flush(fh)
                    io.sleep(policy.backoff_s(attempt))
                    continue
                kind = (
                    "transient fault persisted" if transient else "storage fault"
                )
                raise StorageError(
                    f"append failed for {self.path!r} ({kind}): {exc}",
                    op="append",
                    path=self.path,
                    errno_value=exc.errno,
                ) from exc
        self._since_sync += 1
        return attempt > 0

    def checkpoint(self) -> None:
        """fsync everything appended so far — the durability boundary."""
        fh = self._require_open()
        _retry(self._io, self._policy, "fsync", self.path, self._io.fsync, fh)
        self._since_sync = 0

    def commit(self) -> bool:
        """fsync the lines appended since the last fsync, if any.

        Returns False, without an fsync, when nothing was appended: a
        group commit with an empty group costs nothing.
        """
        if not self._since_sync:
            return False
        self.checkpoint()
        return True

    def size(self) -> int:
        """Bytes in the file now (every append is already flushed)."""
        return os.fstat(self._require_open().fileno()).st_size

    def close(self, *, sync: bool = True) -> None:
        if self._fh is None:
            return
        try:
            if sync and self._since_sync:
                self.checkpoint()
        finally:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "DurableAppender":
        return self

    def __exit__(self, *exc: object) -> None:
        # On an exception path, still try to make what was appended
        # durable; suppress nothing.
        self.close()


def durable_append(
    path: str | os.PathLike[str],
    *,
    append: bool = False,
    io: FaultableIO | None = None,
    policy: Backoff = DEFAULT_RETRY,
) -> DurableAppender:
    """Open a :class:`DurableAppender` (functional spelling of the
    constructor, mirroring :func:`atomic_write`)."""
    return DurableAppender(path, append=append, io=io, policy=policy)
