"""Compact binary codec for Darshan-equivalent traces.

Real Darshan logs are binary for a reason: a year of Blue Waters is
hundreds of thousands of files.  This codec packs a trace into a small
struct-based container so that corpus-scale experiments do not pay JSON
costs.  Layout (little endian):

``header``
    magic ``b"MOSD"`` · u16 version · u16 reserved · job struct ·
    u32 record count · u32 string-table length
``string table``
    UTF-8 file names joined by ``\\x00``
``records``
    fixed 148-byte struct per record (see ``_RECORD``; viewed as an
    array through :data:`RECORD_DTYPE`)

The codec is deliberately strict: any truncation or bad magic raises
:class:`~repro.darshan.errors.TraceFormatError`, which the validity stage
counts as corruption — mirroring how MOSAIC evicts unreadable Darshan
files.

Decoding is *hardened* (docs/ROBUSTNESS.md): every header-declared
length (job strings, record count, string-table size) is validated
against the bytes that actually remain **before** anything is allocated,
so a header claiming a 2 GB string table in a 200-byte file is refused
at zero cost instead of allocating the lie.  The caps come from
:class:`~repro.darshan.limits.DecodeLimits`.

One parser, :func:`parse_binary`, runs every one of those checks and
hands back the record section as a read-only structured-array view.
:func:`loads_binary` builds its ``FileRecord`` objects from that view;
the streaming scan validates the view directly, without building any.
"""

from __future__ import annotations

import io
import os
import struct
from typing import NamedTuple

import numpy as np

from .errors import TraceFormatError, TraceWriteError
from .limits import DEFAULT_LIMITS, DecodeLimits, check_declared_size
from .records import FileRecord, JobMeta
from .trace import Trace

__all__ = [
    "RECORD_DTYPE",
    "MosdSections",
    "save_binary",
    "load_binary",
    "load_binary_meta",
    "read_payload",
    "dumps_binary",
    "loads_binary",
    "parse_binary",
]

MAGIC = b"MOSD"
VERSION = 1

_HEADER = struct.Struct("<4sHH")
# job_id, uid, nprocs, start, end, exe_len, machine_len, partition_len
_JOB = struct.Struct("<qqqddHHH")
_COUNTS = struct.Struct("<II")
_HEAD = struct.Struct(_HEADER.format + _JOB.format[1:])
# file_id rank opens closes seeks stats reads writes bytes_read bytes_written
# open_start close_end read_start read_end write_start write_end
# read_time write_time meta_time
_RECORD = struct.Struct("<qiqqqqqqqq9d")

#: ``_RECORD`` as a packed NumPy dtype, one field per ``FileRecord``
#: attribute (``file_name`` lives in the string table instead).
RECORD_DTYPE = np.dtype(
    [
        ("file_id", "<i8"),
        ("rank", "<i4"),
        ("opens", "<i8"),
        ("closes", "<i8"),
        ("seeks", "<i8"),
        ("stats", "<i8"),
        ("reads", "<i8"),
        ("writes", "<i8"),
        ("bytes_read", "<i8"),
        ("bytes_written", "<i8"),
        ("open_start", "<f8"),
        ("close_end", "<f8"),
        ("read_start", "<f8"),
        ("read_end", "<f8"),
        ("write_start", "<f8"),
        ("write_end", "<f8"),
        ("read_time", "<f8"),
        ("write_time", "<f8"),
        ("meta_time", "<f8"),
    ]
)


def _pack_job(meta: JobMeta) -> bytes:
    exe = meta.exe.encode("utf-8")
    machine = meta.machine.encode("utf-8")
    partition = meta.partition.encode("utf-8")
    if max(len(exe), len(machine), len(partition)) > 0xFFFF:
        raise TraceWriteError("job string field too long")
    head = _JOB.pack(
        meta.job_id,
        meta.uid,
        meta.nprocs,
        meta.start_time,
        meta.end_time,
        len(exe),
        len(machine),
        len(partition),
    )
    return head + exe + machine + partition


def _truncated(n: int, what: str) -> TraceFormatError:
    return TraceFormatError(f"truncated trace: expected {n} bytes for {what}")


def _decode_utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"invalid UTF-8 in {what}: {exc}") from exc


def _check_magic(magic: bytes, version: int) -> None:
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic: {magic!r}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported binary trace version: {version}")


def _parse_head(buf: bytes, size: int, limits: DecodeLimits) -> tuple[JobMeta, int]:
    """Check magic and version and decode the job header.

    ``buf`` holds the first bytes of a ``size``-byte payload; ``size``
    bounds the job-string lengths, so they cannot lie.  Returns the
    header and the offset just past the job strings.
    """
    if len(buf) < _HEAD.size:
        if len(buf) < _HEADER.size:
            raise _truncated(_HEADER.size, "magic header")
        _check_magic(*_HEADER.unpack_from(buf)[:2])
        raise _truncated(_JOB.size, "job header")
    (
        magic, version, _, job_id, uid, nprocs, start, end, n_exe, n_mach, n_part
    ) = _HEAD.unpack_from(buf)
    _check_magic(magic, version)
    pos = _HEAD.size
    n_strings = n_exe + n_mach + n_part
    check_declared_size(n_strings, size - pos, "job strings", limits.max_string_bytes)
    if len(buf) - pos < n_strings:  # the file shrank after it was measured
        raise _truncated(n_strings, "job strings")
    mach_at = pos + n_exe
    part_at = mach_at + n_mach
    pos = part_at + n_part
    meta = JobMeta(
        job_id=job_id,
        uid=uid,
        exe=_decode_utf8(buf[mach_at - n_exe : mach_at], "exe string"),
        nprocs=nprocs,
        start_time=start,
        end_time=end,
        machine=_decode_utf8(buf[mach_at:part_at], "machine string"),
        partition=_decode_utf8(buf[part_at:pos], "partition string"),
    )
    return meta, pos


def _pack_record(rec: FileRecord) -> bytes:
    try:
        return _RECORD.pack(
            rec.file_id,
            rec.rank,
            rec.opens,
            rec.closes,
            rec.seeks,
            rec.stats,
            rec.reads,
            rec.writes,
            rec.bytes_read,
            rec.bytes_written,
            rec.open_start,
            rec.close_end,
            rec.read_start,
            rec.read_end,
            rec.write_start,
            rec.write_end,
            rec.read_time,
            rec.write_time,
            rec.meta_time,
        )
    except struct.error as exc:
        raise TraceWriteError(f"counter out of range in record {rec.file_id}: {exc}") from exc


def dumps_binary(trace: Trace) -> bytes:
    """Serialize ``trace`` into the MOSD binary container."""
    names = [rec.file_name for rec in trace.records]
    table = "\x00".join(names).encode("utf-8")
    parts = [
        _HEADER.pack(MAGIC, VERSION, 0),
        _pack_job(trace.meta),
        _COUNTS.pack(len(trace.records), len(table)),
        table,
    ]
    parts.extend(_pack_record(rec) for rec in trace.records)
    return b"".join(parts)


class MosdSections(NamedTuple):
    """A checked MOSD payload: job header, string table, record view."""

    meta: JobMeta
    #: The decoded string table: record names joined by ``"\x00"``.
    table: str
    #: Read-only :data:`RECORD_DTYPE` view of the record section.
    records: np.ndarray


def parse_binary(
    payload: bytes, limits: DecodeLimits = DEFAULT_LIMITS
) -> MosdSections:
    """Check a MOSD payload and view its record section as an array.

    Every header-declared length is validated against ``len(payload)``
    before the corresponding section is allocated; a payload larger
    than ``limits.max_payload_bytes`` is refused outright.  The record
    section is not copied: the returned view shares ``payload``.
    """
    if len(payload) > limits.max_payload_bytes:
        raise TraceFormatError(
            f"trace payload of {len(payload)} bytes exceeds decode limit "
            f"{limits.max_payload_bytes}"
        )
    meta, pos = _parse_head(payload, len(payload), limits)
    if len(payload) - pos < _COUNTS.size:
        raise _truncated(_COUNTS.size, "counts")
    n_records, n_table = _COUNTS.unpack_from(payload, pos)
    pos += _COUNTS.size
    remaining = len(payload) - pos
    if n_records > limits.max_records:
        raise TraceFormatError(
            f"record count {n_records} exceeds decode limit {limits.max_records}"
        )
    # the record section must account for every byte the header claims:
    # a lying count is refused before the first record is allocated
    check_declared_size(n_table, remaining, "string table", limits.max_string_bytes)
    check_declared_size(
        n_table + n_records * _RECORD.size, remaining, "record section"
    )
    table = _decode_utf8(payload[pos : pos + n_table], "string table")
    pos += n_table
    # NUL never occurs inside a multi-byte UTF-8 sequence, so counting
    # separators counts the names ``table.split("\x00")`` would give
    n_names = table.count("\x00") + 1 if table else 0
    if n_names and n_names != n_records:
        raise TraceFormatError(
            f"string table holds {n_names} names for {n_records} records"
        )
    if pos + n_records * _RECORD.size != len(payload):
        raise TraceFormatError("trailing bytes after last record")
    records = np.frombuffer(payload, dtype=RECORD_DTYPE, count=n_records, offset=pos)
    records.flags.writeable = False
    return MosdSections(meta=meta, table=table, records=records)


def loads_binary(payload: bytes, limits: DecodeLimits = DEFAULT_LIMITS) -> Trace:
    """Parse the MOSD binary container produced by :func:`dumps_binary`.

    All checks are :func:`parse_binary`'s; this only turns its record
    view into ``FileRecord`` objects.
    """
    sections = parse_binary(payload, limits)
    rows = sections.records.tolist()
    names = sections.table.split("\x00") if sections.table else [""] * len(rows)
    records = [FileRecord(row[0], name, *row[1:]) for row, name in zip(rows, names)]
    return Trace(meta=sections.meta, records=records)


def save_binary(trace: Trace, path: str | os.PathLike[str]) -> None:
    """Write ``trace`` to ``path`` in MOSD binary form."""
    data = dumps_binary(trace)
    with open(os.fspath(path), "wb") as fh:
        fh.write(data)


def read_payload(
    path: str | os.PathLike[str], limits: DecodeLimits = DEFAULT_LIMITS
) -> bytes:
    """Read a MOSD file's bytes, refusing an oversized file unread.

    The size comes from ``os.fstat`` on the opened file, so the file
    that is measured is the file that is read.  An unbuffered
    ``FileIO`` spares the buffered reader a payload read whole does not
    need.
    """
    try:
        with io.FileIO(os.fspath(path)) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > limits.max_payload_bytes:
                raise TraceFormatError(
                    f"trace file {path!r} is {size} bytes, exceeding decode "
                    f"limit {limits.max_payload_bytes}"
                )
            return fh.readall()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc


def load_binary(
    path: str | os.PathLike[str], limits: DecodeLimits = DEFAULT_LIMITS
) -> Trace:
    """Read a trace written by :func:`save_binary`.

    The on-disk size is checked against ``limits.max_payload_bytes``
    before the file is read, so an oversized file never reaches memory.
    """
    return loads_binary(read_payload(path, limits), limits)


def load_binary_meta(path: str | os.PathLike[str]) -> JobMeta:
    """Read only the job header of a MOSD file.

    Streaming scans use this to inspect a trace's identity (job id,
    user, executable, runtime) without paying for its record section —
    the header is a few dozen bytes regardless of trace size.  Raises
    :class:`TraceFormatError` on bad magic, unsupported version, or a
    header truncated before the job strings end.
    """
    head_max = _HEADER.size + _JOB.size + 3 * 0xFFFF
    try:
        with open(os.fspath(path), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            return _parse_head(fh.read(head_max), size, DEFAULT_LIMITS)[0]
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc
