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

One list of checks has two implementations.
:func:`parse_binary` runs it on one payload and hands back the record
section as a read-only structured-array view; :func:`loads_binary`
builds its ``FileRecord`` objects from that view.
:func:`parse_payloads` runs it on a whole scan batch at once: the size
checks are array predicates over every payload's gathered header, and
only the UTF-8 decodes and the name count run per payload.  The scan
and the store compiler read the columns it returns, string tables
included, without building a ``JobMeta`` or a ``FileRecord``.  Files
are read through :func:`read_payload`, which refuses an oversized file
before reading it.
"""

from __future__ import annotations

import os
import struct
from typing import Any, NamedTuple, Sequence

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
    "read_payload",
    "dumps_binary",
    "loads_binary",
    "parse_binary",
    "MosdColumns",
    "parse_payloads",
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


#: ``_HEAD`` and ``_COUNTS`` as packed NumPy dtypes, for gathering the
#: headers of many payloads at once.
_HEAD_DTYPE = np.dtype(
    [
        ("magic", "<u4"),
        ("version", "<u2"),
        ("reserved", "<u2"),
        ("job_id", "<i8"),
        ("uid", "<i8"),
        ("nprocs", "<i8"),
        ("start", "<f8"),
        ("end", "<f8"),
        ("n_exe", "<u2"),
        ("n_machine", "<u2"),
        ("n_partition", "<u2"),
    ]
)
_COUNTS_DTYPE = np.dtype([("n_records", "<u4"), ("n_table", "<u4")])
_MAGIC_U32 = int.from_bytes(MAGIC, "little")
#: Zero bytes after the last payload: refused rows gather their header
#: at offset 0, which must lie inside the buffer even when every
#: payload is shorter than a header.
_PAD = bytes(_HEAD.size)
#: Bytes asked of each read past a file's ``fstat`` size.
_READ_CHUNK = 64 * 1024


class MosdColumns(NamedTuple):
    """Many MOSD payloads checked at once (:func:`parse_payloads`).

    Every column has one entry per payload.  A refused row (``ok``
    false) holds zeros and empty strings and owns no records.
    """

    ok: np.ndarray
    job_id: np.ndarray
    uid: np.ndarray
    nprocs: np.ndarray
    start: np.ndarray
    end: np.ndarray
    exe: list[str]
    machine: list[str]
    partition: list[str]
    #: Each row's decoded string table (record names joined by ``"\x00"``).
    tables: list[str]
    #: Records per row.
    counts: np.ndarray
    #: Every accepted row's record section, back to back.
    records: np.ndarray


def _gather(u8: np.ndarray, at: np.ndarray, dtype: np.dtype[Any]) -> np.ndarray:
    """One ``dtype`` item read at each byte offset ``at`` of ``u8``."""
    rows = u8[at[:, None] + np.arange(dtype.itemsize)]
    return rows.view(dtype)[:, 0]


def parse_payloads(
    payloads: Sequence[bytes], limits: DecodeLimits = DEFAULT_LIMITS
) -> MosdColumns:
    """:func:`parse_binary` over many payloads, as array predicates.

    Accepts exactly the payloads :func:`parse_binary` accepts, with the
    same header, strings and records.  The fixed-size heads and count
    blocks are gathered from the joined payloads and every size check
    runs once over all rows, in :func:`parse_binary`'s order; only the
    UTF-8 decodes and the string table's name count run per row, and
    only on rows that passed every size check.  A row's offsets come
    from its own length and header, so a refused row never moves a
    neighbour's.  A batch of one payload (a trace over the scan's batch
    budget) is read in place: neither its bytes nor its records are
    copied.
    """
    n = len(payloads)
    sizes = np.fromiter(map(len, payloads), dtype=np.int64, count=n)
    starts = np.cumsum(sizes) - sizes
    joined = payloads[0] if n == 1 else b"".join(payloads)
    if len(joined) < _HEAD.size:
        joined = bytes(joined) + _PAD
    u8 = np.frombuffer(joined, dtype=np.uint8)

    ok = sizes <= limits.max_payload_bytes
    ok &= sizes >= _HEAD.size
    head = _gather(u8, np.where(ok, starts, 0), _HEAD_DTYPE)
    ok &= (head["magic"] == _MAGIC_U32) & (head["version"] == VERSION)
    n_exe = head["n_exe"].astype(np.int64)
    machine_at = _HEAD.size + n_exe
    partition_at = machine_at + head["n_machine"]
    counts_at = partition_at + head["n_partition"]
    n_strings = counts_at - _HEAD.size
    ok &= n_strings <= np.minimum(limits.max_string_bytes, sizes - _HEAD.size)
    table_at = counts_at + _COUNTS.size
    ok &= table_at <= sizes
    counts = _gather(u8, np.where(ok, starts + counts_at, 0), _COUNTS_DTYPE)
    n_records = counts["n_records"].astype(np.int64)
    n_table = counts["n_table"].astype(np.int64)
    remaining = sizes - table_at
    ok &= n_records <= limits.max_records
    ok &= n_table <= np.minimum(limits.max_string_bytes, remaining)
    records_at = table_at + n_table
    ok &= records_at + n_records * _RECORD.size <= sizes
    ok &= records_at + n_records * _RECORD.size == sizes  # trailing bytes

    exe = [""] * n
    machine = [""] * n
    partition = [""] * n
    tables = [""] * n
    sections: list[memoryview] = []
    survivors = np.flatnonzero(ok)
    rows = zip(
        survivors.tolist(),
        machine_at[survivors].tolist(),
        partition_at[survivors].tolist(),
        counts_at[survivors].tolist(),
        table_at[survivors].tolist(),
        records_at[survivors].tolist(),
        n_records[survivors].tolist(),
    )
    for i, mach_at, part_at, cnt_at, tab_at, rec_at, n_rec in rows:
        payload = payloads[i]
        view = memoryview(payload)  # slices without copying
        try:
            exe_i = str(view[_HEAD.size : mach_at], "utf-8")
            machine_i = str(view[mach_at:part_at], "utf-8")
            partition_i = str(view[part_at:cnt_at], "utf-8")
            table_i = str(view[tab_at:rec_at], "utf-8")
        except UnicodeDecodeError:
            ok[i] = False
            continue
        # as in parse_binary: NUL bytes count the names of a valid table
        if rec_at > tab_at and payload.count(b"\0", tab_at, rec_at) + 1 != n_rec:
            ok[i] = False
            continue
        exe[i], machine[i], partition[i] = exe_i, machine_i, partition_i
        tables[i] = table_i
        sections.append(view[rec_at:])

    def column(values: np.ndarray) -> np.ndarray:
        return np.where(ok, values, 0)

    return MosdColumns(
        ok=ok,
        job_id=column(head["job_id"]),
        uid=column(head["uid"]),
        nprocs=column(head["nprocs"]),
        start=column(head["start"]),
        end=column(head["end"]),
        exe=exe,
        machine=machine,
        partition=partition,
        tables=tables,
        counts=column(n_records),
        # one accepted row is viewed in place, several are copied once
        records=np.frombuffer(
            sections[0] if len(sections) == 1 else b"".join(sections),
            dtype=RECORD_DTYPE,
        ),
    )


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


def _oversized(path: str | os.PathLike[str], size: int, cap: int) -> TraceFormatError:
    return TraceFormatError(
        f"trace file {path!r} is {size} bytes, exceeding decode limit {cap}"
    )


def read_payload(
    path: str | os.PathLike[str], limits: DecodeLimits = DEFAULT_LIMITS
) -> bytes:
    """Read a MOSD file's bytes, refusing an oversized file unread.

    Open, ``os.fstat``, read, close: the file that is measured is the
    file that is read.  The first read asks for the measured size and
    one byte more; when it returns anything else the file is read on
    (:func:`_read_on`), and it is refused as soon as it has yielded
    more than ``limits.max_payload_bytes``.
    """
    cap = limits.max_payload_bytes
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size > cap:
                raise _oversized(path, size, cap)
            payload = os.read(fd, min(size, cap) + 1)
            if len(payload) != size:
                payload = _read_on(fd, payload, size, cap)
        finally:
            os.close(fd)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc
    if len(payload) > cap:
        raise _oversized(path, len(payload), cap)
    return payload


def _read_on(fd: int, head: bytes, size: int, cap: int) -> bytes:
    """Continue a read whose first ``os.read`` returned ``head``.

    After a short read (network and parallel filesystems return them)
    this reads until ``size`` bytes are in; when the file holds more
    than ``fstat`` reported (a pipe, a procfs-style file reports 0) it
    reads to end of file.  Either way it stops one byte past ``cap``.
    """
    chunks = [head]
    total = len(head)
    while total != size and total <= cap:
        chunk = os.read(fd, min(max(size - total, _READ_CHUNK), cap + 1 - total))
        if not chunk:
            break
        chunks.append(chunk)
        total += len(chunk)
    return b"".join(chunks)


def load_binary(
    path: str | os.PathLike[str], limits: DecodeLimits = DEFAULT_LIMITS
) -> Trace:
    """Read a trace written by :func:`save_binary`.

    The on-disk size is checked against ``limits.max_payload_bytes``
    before the file is read, so an oversized file never reaches memory.
    """
    return loads_binary(read_payload(path, limits), limits)
