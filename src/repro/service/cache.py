"""Content-addressed categorization result cache.

At service scale the same trace arrives more than once: a tracer
front-end re-submits a corpus after a crash, a scheduler re-queries last
week's fleet, two users share a benchmark.  Categorization is
deterministic — same bytes, same config, same result — so identical
traces should be categorized exactly once.

The address is the trace's *content*, not its path: the per-trace CRC
chain the ``.mosc`` v2 store records at compile time
(:func:`repro.columnar.format.trace_crc32` — covering the index row,
record slab, operation slabs, and every referenced heap string) plus
the trace's job id, since a 32-bit CRC alone collides across a fleet,
mixed with a namespace digest of the
:class:`~repro.core.thresholds.MosaicConfig` repr, the repair flag and
the result encoding version, since each changes the bytes served.

Entries live in append-only *segments*, one directory per namespace
(``<root>/<namespace>/<random hex>.seg``).  A run's puts append to one
segment through :class:`repro.io.DurableAppender`, and :meth:`commit`
fsyncs it once per unit of work.  Each entry is one line that checks
itself::

    <key> <length> <crc32(key + payload):08x> <payload>

where ``payload`` is the result's ``results.jsonl`` line, verbatim
(:meth:`~repro.core.result.CategorizationResult.json_line`).
Hits come from an in-memory index (key → segment, offset, length,
CRC), rebuilt by scanning the segments the first time the cache is
used; the rebuild truncates a torn or zero-filled segment tail.

The cache is a performance artifact, like the lint cache: a miss, a
torn or foreign entry, or a failed write must never fail the
categorization that consulted it — reads degrade to misses and writes
are dropped (counted in :attr:`ResultCache.put_errors`).  A hit
returns the stored line unparsed, so it is byte-identical to a re-run.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import zlib
from typing import IO, Any

from ..core.result import ENCODING_VERSION
from ..io import DurableAppender, StorageError

__all__ = ["ResultCache", "config_namespace"]

#: Segment file suffix inside a namespace directory.
_SEGMENT_SUFFIX = ".seg"

#: Hex digits of a cache key (see :meth:`ResultCache.trace_key`).
_KEY_LEN = 40

#: Where one entry's payload lives: (segment path, payload offset,
#: payload length, CRC of key + payload).
_Location = tuple[str, int, int, int]


def config_namespace(config: Any, repair: bool = False) -> str:
    """Digest of everything besides trace content that shapes a result.

    ``config`` is hashed by ``repr`` — :class:`MosaicConfig` is a frozen
    dataclass whose repr enumerates every threshold, so any knob change
    re-namespaces the cache instead of serving results computed under
    different thresholds.  Hits are not re-encoded, so a new
    :data:`~repro.core.result.ENCODING_VERSION` re-namespaces it too.
    """
    digest = hashlib.sha256(
        f"{config!r}|repair={bool(repair)}|encoding={ENCODING_VERSION}".encode()
    ).hexdigest()
    return digest[:16]


def _entry_crc(key: bytes, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(key))


def _parse_entry(line: bytes) -> tuple[str, int, int, int] | None:
    """``(key, payload offset in line, length, crc)`` of one complete,
    self-consistent entry line, else ``None``."""
    if not line.endswith(b"\n"):
        return None
    parts = line[:-1].split(b" ", 3)
    if len(parts) != 4 or len(parts[0]) != _KEY_LEN:
        return None
    key, raw_len, raw_crc, payload = parts
    try:
        text_key = key.decode("ascii")
        length = int(raw_len)
        crc = int(raw_crc, 16)
    except ValueError:
        return None
    if length != len(payload) or crc != _entry_crc(key, payload):
        return None
    return text_key, len(line) - 1 - length, length, crc


class ResultCache:
    """Segment-backed content-addressed store of result lines.

    Implements the duck-typed protocol
    :attr:`repro.core.pipeline.PipelineContext.result_cache` consumes:
    :meth:`trace_key`, :meth:`get`, :meth:`put`, :meth:`commit` and
    :meth:`close`.  One thread at a time drives it (the pipeline run
    that holds it).  Hit/miss counters and segment totals feed the
    service's ``/metrics`` endpoint.
    """

    def __init__(self, root: str | os.PathLike[str], *, namespace: str = "") -> None:
        self.root = os.fspath(root)
        self.namespace = namespace
        self.directory = os.path.join(self.root, namespace or "default")
        self.hits = 0
        self.misses = 0
        self.put_errors = 0
        #: Segment bytes known to the index (rebuilt plus appended).
        self.bytes = 0
        #: Torn or zero-filled tail bytes dropped by the rebuild.
        self.truncated_bytes = 0
        self._index: dict[str, _Location] | None = None
        self._segments: set[str] = set()
        self._writer: DurableAppender | None = None
        #: Byte length of the open segment.
        self._end = 0
        self._readers: dict[str, IO[bytes]] = {}

    @classmethod
    def for_config(
        cls,
        root: str | os.PathLike[str],
        config: Any,
        *,
        repair: bool = False,
    ) -> "ResultCache":
        """Cache namespaced to one (config, repair) combination."""
        return cls(root, namespace=config_namespace(config, repair))

    # -- keying --------------------------------------------------------
    def trace_key(self, trace_crc: int, job_id: int) -> str:
        """Cache key of one trace: namespace + content CRC chain + job id.

        A 32-bit CRC alone collides across a large fleet; mixing in the
        job id keeps two distinct traces that share a CRC from being
        served each other's result.
        """
        digest = hashlib.sha256(
            f"{self.namespace}:{trace_crc & 0xFFFFFFFF:08x}:{job_id}".encode()
        ).hexdigest()
        return digest[:_KEY_LEN]

    # -- index ---------------------------------------------------------
    def _load(self) -> dict[str, _Location]:
        """The key index, rebuilt from the segments on first use."""
        if self._index is None:
            self._index = {}
            try:
                names = sorted(os.listdir(self.directory))
            except OSError:
                names = []
            for name in names:
                if name.endswith(_SEGMENT_SUFFIX):
                    self._scan(self._index, os.path.join(self.directory, name))
        return self._index

    def _scan(self, index: dict[str, _Location], path: str) -> None:
        """Index one segment's valid entries; truncate a bad tail.

        Entries are complete lines, so a bad line in the middle (a torn
        append a retry re-wrote after) is skipped and scanning resumes
        at the next newline.  Everything past the last valid entry —
        a torn final append, or the zero fill a power cut can leave —
        is cut off, so the segment ends on an entry boundary again.
        """
        valid_end = pos = 0
        try:
            with open(path, "rb") as fh:  # read path: not the seam
                for line in fh:
                    entry = _parse_entry(line)
                    if entry is not None:
                        key, start, length, crc = entry
                        index[key] = (path, pos + start, length, crc)
                        valid_end = pos + len(line)
                    pos += len(line)
        except OSError:
            return
        self._segments.add(path)
        if pos > valid_end:
            # outside the seam on purpose: the cut only drops bytes no
            # reader accepts, and one lost to a crash is redone by the
            # next rebuild
            with contextlib.suppress(OSError):
                os.truncate(path, valid_end)
                self.truncated_bytes += pos - valid_end
        self.bytes += valid_end

    def _read(self, location: _Location, key: str) -> str | None:
        path, offset, length, crc = location
        fh = self._readers.get(path)
        if fh is None:
            fh = self._readers[path] = open(path, "rb")
        fh.seek(offset)
        data = fh.read(length)
        if len(data) != length or _entry_crc(key.encode("ascii"), data) != crc:
            return None
        return data.decode("ascii")

    # -- protocol ------------------------------------------------------
    def get(self, key: str) -> str | None:
        """Saved line for ``key``, or ``None`` (counted as a miss).

        A missing, unreadable or corrupted entry degrades to a miss and
        leaves the index, so the pipeline recomputes and the next
        :meth:`put` heals the entry.
        """
        index = self._load()
        location = index.get(key)
        payload = None
        if location is not None:
            with contextlib.suppress(OSError, ValueError):
                payload = self._read(location, key)
            if payload is None:
                del index[key]
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, line: str) -> None:
        """Append ``line`` under ``key`` (best-effort; durable at the
        next :meth:`commit`).

        ``line`` is a canonical result line: ASCII and newline-free, so
        characters count bytes.  Re-putting an indexed key is a no-op.
        A cache that cannot be written is a performance loss, not a
        failure: storage errors are counted and swallowed so the
        categorization that produced ``line`` still succeeds, and the
        segment that failed is abandoned — the next put starts a fresh
        one.
        """
        index = self._load()
        if key in index:
            return
        crc = _entry_crc(key.encode("ascii"), line.encode("ascii"))
        entry = f"{key} {len(line)} {crc:08x} {line}"
        try:
            writer = self._writer
            if writer is None:
                os.makedirs(self.directory, exist_ok=True)
                writer = self._writer = DurableAppender(
                    os.path.join(
                        self.directory, os.urandom(16).hex() + _SEGMENT_SUFFIX
                    )
                )
                self._segments.add(writer.path)
            # a retried append may leave a fragment before the entry
            retried = writer.append_line(entry)
            self._end = writer.size() if retried else self._end + len(entry) + 1
        except (StorageError, OSError):
            self.put_errors += 1
            self._drop_writer()
            return
        index[key] = (writer.path, self._end - 1 - len(line), len(line), crc)
        self.bytes += len(entry) + 1

    def commit(self) -> None:
        """fsync the puts since the last commit: one fsync per unit of
        work, none when nothing was put.  A failed fsync is counted in
        :attr:`put_errors` and abandons the segment."""
        if self._writer is None:
            return
        try:
            self._writer.commit()
        except (StorageError, OSError):
            self.put_errors += 1
            self._drop_writer()

    def close(self) -> None:
        """Commit, close the run's segment and every segment opened for
        reading.  The index stays: the next put starts a new segment."""
        self.commit()
        self._drop_writer()
        readers, self._readers = self._readers, {}
        for fh in readers.values():
            fh.close()

    def _drop_writer(self) -> None:
        writer, self._writer, self._end = self._writer, None, 0
        if writer is not None:
            with contextlib.suppress(StorageError, OSError):
                writer.close(sync=False)

    # -- observability -------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        """Counter snapshot for ``/metrics`` (segment totals read zero
        until the first job builds the index)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "put_errors": self.put_errors,
            "entries": len(self._index or ()),
            "segments": len(self._segments),
            "bytes": self.bytes,
            "truncated_bytes": self.truncated_bytes,
            "namespace": self.namespace,
        }
