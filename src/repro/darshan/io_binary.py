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
:func:`parse_buffer` runs it on a whole scan batch at once, in place in
the one buffer the batch's files were read into, from each payload's
offset and length: the size checks are array predicates over every
payload's gathered header, the strings are checked as byte ranges (all
ASCII needs no decode), and only the name count and the ``exe`` decode
run per payload.  The scan and the store compiler read the columns it
returns without building a ``JobMeta`` or a ``FileRecord``; the other
strings are decoded when read.  :func:`parse_payloads` joins separate
payloads into one buffer for it.  Files are read through
:func:`read_into`, one loop for a single file (:func:`read_payload`,
which refuses an oversized file before reading it) and for a scan
batch (whose reader makes each file's first read and end-of-file probe
itself, and calls it to read on).
"""

from __future__ import annotations

import os
import struct
from itertools import repeat
from typing import Any, NamedTuple, Sequence, cast

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
    "Utf8Slices",
    "parse_buffer",
    "parse_payloads",
    "read_into",
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
    try:
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
    except struct.error as exc:
        raise TraceWriteError(f"job header value out of range: {exc}") from exc
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
#: Zero bytes after a buffer shorter than one header: refused rows
#: gather their header at offset 0, which must lie inside the buffer.
_PAD = bytes(_HEAD.size)
#: One record as an opaque item, for moving records without their fields.
_RECORD_BYTES = np.dtype((np.void, RECORD_DTYPE.itemsize))
#: Bytes asked of each read past a file's ``fstat`` size.
_READ_CHUNK = 64 * 1024


class Utf8Slices(Sequence[str]):
    """Checked UTF-8 strings kept as byte ranges of one buffer, each
    decoded when it is read.  An empty range reads as ``""``."""

    __slots__ = ("_data", "_lo", "_hi")

    def __init__(self, data: Any, lo: np.ndarray, hi: np.ndarray):
        self._data = data
        self._lo = lo
        self._hi = hi

    def __len__(self) -> int:
        return len(self._lo)

    def __getitem__(self, i: Any) -> Any:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return str(memoryview(self._data)[self._lo[i] : self._hi[i]], "utf-8")


class MosdColumns(NamedTuple):
    """Many MOSD payloads checked at once (:func:`parse_buffer`).

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
    machine: Sequence[str]
    partition: Sequence[str]
    #: Each row's string table (record names joined by ``"\x00"``).
    tables: Sequence[str]
    #: Records per row.
    counts: np.ndarray
    #: Every accepted row's record section, back to back.
    records: np.ndarray
    #: Each payload's length.
    sizes: np.ndarray


def _gather(u8: np.ndarray, at: np.ndarray, dtype: np.dtype[Any]) -> np.ndarray:
    """One ``dtype`` item read at each byte offset ``at`` of ``u8``,
    copied out: ``u8`` is viewed as one opaque item starting at every
    byte, and those items are indexed."""
    anywhere = np.ndarray(
        (len(u8) - dtype.itemsize + 1,),
        dtype=np.dtype((np.void, dtype.itemsize)),
        buffer=u8,
        strides=(1,),
    )
    return anywhere[at].view(dtype)


def _high_bytes(u8: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Whether each byte range ``bounds[k] : bounds[k + 1]``, ``k``
    even, of ``u8`` holds a byte of 0x80 or more.  The bounds must not
    decrease."""
    ored = np.zeros(len(bounds), dtype=np.uint8)
    # reduceat folds each bound up to the next one, the last up to the
    # end of the buffer; a bound at the very end starts an empty range
    inside = int(np.searchsorted(bounds, len(u8)))
    if inside:
        ored[:inside] = np.bitwise_or.reduceat(u8, bounds[:inside])
    return (ored[0::2] >= 0x80) & (bounds[1::2] > bounds[0::2])


def _record_rows(
    data: Any, u8: np.ndarray, at: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The record sections starting at byte offsets ``at`` of ``u8``,
    holding ``counts`` records each, as one ``RECORD_DTYPE`` array: a
    read-only view of ``data`` for one section, one copy otherwise."""
    if len(at) == 1:
        rows = np.frombuffer(data, RECORD_DTYPE, count=int(counts[0]), offset=int(at[0]))
        rows.flags.writeable = False
        return rows
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=RECORD_DTYPE)
    size = RECORD_DTYPE.itemsize
    first = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) * size
    offsets += np.repeat(at - first * size, counts)
    return _gather(u8, offsets, RECORD_DTYPE)


def parse_buffer(
    data: Any,
    offsets: np.ndarray,
    sizes: np.ndarray,
    limits: DecodeLimits = DEFAULT_LIMITS,
) -> MosdColumns:
    """:func:`parse_binary` over many payloads held in one buffer, as
    array predicates.

    Payload ``i`` is ``data[offsets[i] : offsets[i] + sizes[i]]``; the
    payloads must lie in offset order without overlapping, and ``data``
    must be ``bytes`` or a ``bytearray``.  Accepts exactly the payloads
    :func:`parse_binary` accepts, with the same header, strings and
    records.  The fixed-size heads and count blocks are gathered from
    ``data`` in place and every size check runs once over all rows, in
    :func:`parse_binary`'s order.  The strings are checked as byte
    ranges: a row whose job strings and string table are all ASCII is
    valid UTF-8 without decoding, and only a row with a byte of 0x80 or
    more decodes its strings here.  The string table's names are
    counted in place (``bytes.count``).  Only ``exe`` is decoded for
    every accepted row; ``machine``, ``partition`` and the tables are
    decoded on access (:class:`Utf8Slices`).  A row's offsets come from
    its own length and header, so a refused row never moves a
    neighbour's.  The accepted rows' record sections are copied once
    into :attr:`MosdColumns.records`, or viewed in place when there is
    one.
    """
    n = len(sizes)
    u8 = np.frombuffer(data, dtype=np.uint8)
    if len(u8) < _HEAD.size:
        data = bytes(data) + _PAD
        u8 = np.frombuffer(data, dtype=np.uint8)
    starts = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)

    ok = sizes <= limits.max_payload_bytes
    ok &= sizes >= _HEAD.size
    head = _gather(u8, np.where(ok, starts, 0), _HEAD_DTYPE)
    ok &= (head["magic"] == _MAGIC_U32) & (head["version"] == VERSION)
    machine_at = _HEAD.size + head["n_exe"].astype(np.int64)
    partition_at = machine_at + head["n_machine"]
    counts_at = partition_at + head["n_partition"]
    ok &= counts_at - _HEAD.size <= np.minimum(
        limits.max_string_bytes, sizes - _HEAD.size
    )
    table_at = counts_at + _COUNTS.size
    ok &= table_at <= sizes
    counts = _gather(u8, np.where(ok, starts + counts_at, 0), _COUNTS_DTYPE)
    n_records = counts["n_records"].astype(np.int64)
    n_table = counts["n_table"].astype(np.int64)
    ok &= n_records <= limits.max_records
    ok &= n_table <= np.minimum(limits.max_string_bytes, sizes - table_at)
    records_at = table_at + n_table
    ok &= records_at + n_records * _RECORD.size <= sizes
    ok &= records_at + n_records * _RECORD.size == sizes  # trailing bytes

    # each row's string bounds in ``data``, one row of ``bounds`` per
    # bound: job strings from the head's end to the counts block, with
    # machine and partition inside, then the string table
    bounds = starts + np.stack(
        [np.full(n, _HEAD.size), machine_at, partition_at, counts_at, table_at, records_at]
    )
    rows = np.flatnonzero(ok)
    strings = bounds[[0, 3, 4, 5]][:, rows].T.ravel()  # per row: job, table
    high = _high_bytes(u8, strings).reshape(-1, 2).any(axis=1)
    view = memoryview(data)
    for i in rows[high].tolist():
        try:  # as in parse_binary: each string must decode on its own
            for k in (0, 1, 2, 4):
                str(view[bounds[k, i] : bounds[k + 1, i]], "utf-8")
        except UnicodeDecodeError:
            ok[i] = False
    # as in parse_binary: NUL bytes count the names of a valid table
    named = rows[n_table[rows] > 0]
    nuls = np.fromiter(
        map(data.count, repeat(0), bounds[4, named].tolist(), bounds[5, named].tolist()),
        dtype=np.int64,
        count=len(named),
    )
    ok[named[nuls + 1 != n_records[named]]] = False

    every = bool(ok.all())

    def column(values: np.ndarray) -> np.ndarray:
        return values if every else np.where(ok, values, 0)

    rows = np.flatnonzero(ok)
    at = column(bounds)
    # every accepted row's exe, decoded in one pass over its slices
    names = map(view.__getitem__, map(slice, at[0, rows].tolist(), at[1, rows].tolist()))
    exe = list(map(str, names, repeat("utf-8")))
    if not every:
        decoded, exe = exe, [""] * n
        for i, name in zip(rows.tolist(), decoded):
            exe[i] = name
    return MosdColumns(
        ok=ok,
        job_id=column(head["job_id"]),
        uid=column(head["uid"]),
        nprocs=column(head["nprocs"]),
        start=column(head["start"]),
        end=column(head["end"]),
        exe=exe,
        machine=Utf8Slices(data, at[1], at[2]),
        partition=Utf8Slices(data, at[2], at[3]),
        tables=Utf8Slices(data, at[4], at[5]),
        counts=column(n_records),
        records=_record_rows(data, u8, at[5, rows], n_records[rows]),
        sizes=sizes,
    )


def parse_payloads(
    payloads: Sequence[bytes], limits: DecodeLimits = DEFAULT_LIMITS
) -> MosdColumns:
    """:func:`parse_buffer` over separate payloads, joined into one
    buffer.  A single payload is parsed in place: neither its bytes nor
    its records are copied."""
    sizes = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    data = payloads[0] if len(payloads) == 1 else b"".join(payloads)
    return parse_buffer(data, np.cumsum(sizes) - sizes, sizes, limits)


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
) -> bytearray:
    """Read a MOSD file's bytes, refusing an oversized file unread.

    Open, ``os.fstat``, read (:func:`read_into`), close: the file that
    is measured is the file that is read.  It is refused as soon as it
    has yielded more than ``limits.max_payload_bytes``.
    """
    cap = limits.max_payload_bytes
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size > cap:
                raise _oversized(path, size, cap)
            view, n = read_into(fd, memoryview(bytearray(size + 1)), 0, size, cap)
        finally:
            os.close(fd)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc
    if n > cap:
        raise _oversized(path, n, cap)
    buf = cast(bytearray, view.obj)
    view.release()
    del buf[n:]
    return buf


def read_into(
    fd: int, view: memoryview, at: int, size: int, stop: int, total: int = 0
) -> tuple[memoryview, int]:
    """Read the open file ``fd`` into the ``bytearray`` that ``view``
    shows, from offset ``at``, after the ``total`` bytes already read
    there; return the view and the number of bytes read in all.  When
    the buffer is full, the bytes land in a larger copy of it, never
    longer than one byte past ``stop`` bytes from ``at``, and the view
    returned shows that copy.

    The read stops at end of file, or as soon as more than ``stop``
    bytes are in; each read asks for what the buffer has room for, up
    to one byte past ``stop``.  ``size`` is the file's ``fstat`` size,
    or -1 when it was not measured.  A measured file also stops once
    ``size`` bytes are in: the read that brings them in asked for more,
    so the file ended there.  After a short read (network and parallel
    filesystems return them) the file is read on; a file that holds
    more than ``fstat`` reported, or that reports less than was already
    read (a pipe or a procfs-style file reports 0), is read to end of
    file.
    """
    while True:
        start = at + total
        if len(view) <= start:  # room for the measured file, or twice as much
            grown = bytearray(
                min(max(at + size + 1, start + _READ_CHUNK, 2 * len(view)), at + stop + 1)
            )
            grown[:start] = view[:start]
            view = memoryview(grown)
        want = min(len(view) - start, stop + 1 - total)
        got = os.readv(fd, [view[start : start + want]])
        total += got
        if not got or total == size or total > stop:
            return view, total


def load_binary(
    path: str | os.PathLike[str], limits: DecodeLimits = DEFAULT_LIMITS
) -> Trace:
    """Read a trace written by :func:`save_binary`.

    The on-disk size is checked against ``limits.max_payload_bytes``
    before the file is read, so an oversized file never reaches memory.
    """
    return loads_binary(read_payload(path, limits), limits)
