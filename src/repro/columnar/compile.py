"""``compile_corpus``: one pass from any ``TraceSource`` to a ``.mosc`` store.

Compilation folds over the source's record batches
(:meth:`~repro.darshan.source.TraceSource.record_batches`, the reader
the streaming scan folds over) and derives each batch's store rows from
its arrays: the violation bitmask from
:func:`~repro.darshan.validate.violation_matrix` (the stored traces are
not evicted — the store-backed scan replays the eviction funnel from the
index alone), the record slab from the batch's record columns, the
per-trace totals from segmented sums, the flat operation table
(``Trace.operations`` per direction) from masks and one stable sort, and
each trace's CRC from one chain over the bytes it owns.  Every string is
interned in a deduplicated heap.  A ref whose values do not fit the
batch columns, and with ``repair`` every flagged ref, is compiled from
its ``Trace`` instead, in ref order.  Metadata event streams are *not*
materialized (they can dwarf the corpus itself); the reader
reconstructs them from the records section bit-for-bit.  Payloads the
source cannot decode at all are *counted* (``n_unreadable`` in the
header) so the store-backed funnel matches the streaming scan's input
accounting exactly.

The write is single-pass over the source but buffered in memory; the
compiled form is a few dozen bytes per record, so a corpus that fits the
decode limits fits the compiler.  ``repair=True`` bakes the repair
heuristics into the stored traces (recorded in a header flag plus a
per-trace bit, so the pipeline can refuse a repair-mode mismatch).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np

from ..darshan.source import RecordBatch, TraceSource, segment_sums
from ..darshan.trace import MIN_OP_DURATION, Trace
from ..darshan.validate import (
    VIOLATION_COLUMNS,
    ValidationReport,
    validate_trace,
    violation_matrix,
)
from ..io import atomic_write_bytes
from .format import (
    ALIGN,
    FLAG_REPAIRED,
    HEADER_SIZE,
    RECORD_DTYPE,
    SECTION_NAMES,
    TRACE_CRC_DTYPE,
    TRACE_DTYPE,
    pack_header,
    violation_bit,
)

__all__ = ["CompileReport", "StoreOverflowError", "compile_corpus"]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Bit of each :data:`~repro.darshan.validate.VIOLATION_COLUMNS` column.
_BITS = np.array([violation_bit(v) for v in VIOLATION_COLUMNS], dtype=np.int64)

#: Record fields of one operation direction: start, end, bytes.
_DIRECTIONS = (
    ("read_start", "read_end", "bytes_read"),
    ("write_start", "write_end", "bytes_written"),
)

#: The index's integer totals, as sums of record fields.
_TOTALS = (
    ("total_meta_ops", ("opens", "closes", "seeks")),
    ("total_bytes", ("bytes_read", "bytes_written")),
)

#: The sections :class:`_Slabs` grows row by row, in layout order.
_SLAB_SECTIONS = ("index", "records", "ops_starts", "ops_ends", "ops_volumes")

#: Integer ``FileRecord`` fields the store keeps as int64.
_RECORD_INTS = (
    "file_id", "rank", "opens", "closes", "seeks", "stats", "reads",
    "writes", "bytes_read", "bytes_written",
)


class StoreOverflowError(OverflowError):
    """A trace holds a value outside the store's int64 columns.

    ``key`` is the trace's ref key (the file path of a directory
    source), ``field`` the column that cannot hold ``value``.
    """

    def __init__(self, key: Any, field: str, value: int) -> None:
        super().__init__(
            f"trace {key!r}: {field}={value} does not fit the store's "
            f"int64 {field} column"
        )
        self.key = key
        self.field = field
        self.value = value


@dataclass(slots=True, frozen=True)
class CompileReport:
    """What one ``compile_corpus`` pass produced."""

    path: str
    n_traces: int
    n_unreadable: int
    n_records: int
    n_ops: int
    n_bytes: int
    elapsed_s: float

    @property
    def n_input(self) -> int:
        return self.n_traces + self.n_unreadable


class _Heap:
    """Deduplicating UTF-8 string heap builder."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._offsets: dict[str, tuple[int, int]] = {}
        self._size = 0

    def intern(self, s: str) -> tuple[int, int]:
        hit = self._offsets.get(s)
        if hit is not None:
            return hit
        raw = s.encode("utf-8")
        entry = (self._size, len(raw))
        self._offsets[s] = entry
        self._chunks.append(raw)
        self._size += len(raw)
        return entry

    def locate(self, strings: list[str]) -> np.ndarray:
        """``(offset, length)`` of every string as an ``(n, 2)`` array,
        interning the new ones in order."""
        get, intern = self._offsets.get, self.intern
        located = chain.from_iterable([get(s) or intern(s) for s in strings])
        return np.fromiter(located, dtype=np.int64, count=2 * len(strings)).reshape(-1, 2)

    def payload(self) -> bytes:
        return b"".join(self._chunks)


def _align(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


def compile_corpus(
    source: TraceSource,
    out_path: str | os.PathLike[str],
    *,
    repair: bool = False,
    mark_repaired: bool = False,
    extra_unreadable: int = 0,
) -> CompileReport:
    """Compile every trace of ``source`` into a columnar store.

    Traces are stored in ``source.refs()`` order.  Undecodable payloads
    are counted, not stored; invalid-but-decodable traces are stored
    with their violation bitmask so the scan funnel can evict them
    without decoding anything.  The store is published atomically
    (:func:`repro.io.atomic_write_bytes`): a killed compile never leaves
    a half-visible ``.mosc`` at ``out_path``.

    ``mark_repaired`` sets :data:`FLAG_REPAIRED` in the header without
    re-running the repair heuristics — used by salvage to preserve the
    flag of the store it recovered from.  ``extra_unreadable`` is added
    to the header's unreadable count, letting salvage carry forward the
    original store's unreadables plus the traces corruption destroyed,
    so the store-backed funnel's input accounting stays honest.

    Raises :class:`StoreOverflowError` when a trace's total bytes or
    metadata operations (or any integer it stores) exceed int64.
    """
    from ..darshan.repair import repair_trace

    t0 = time.perf_counter()
    slabs = _Slabs()
    n_unreadable = extra_unreadable
    for batch in source.record_batches(retain_traces=repair):
        n_unreadable += int(np.count_nonzero(batch.unreadable))
        flags = violation_matrix(
            batch.records, batch.run_time, batch.nprocs, batch.counts
        )
        masks = flags @ _BITS
        # refs compiled from their Trace, as scan_corpus handles them
        by_trace = set(batch.scalar)
        if repair:
            flagged = flags.any(axis=1) & ~batch.unreadable
            by_trace.update(np.flatnonzero(flagged).tolist())
        first = np.cumsum(batch.counts) - batch.counts
        lo = 0
        for i in [*sorted(by_trace), len(batch)]:
            if lo < i:
                slabs.add_rows(batch, lo, i, int(first[lo]), masks)
            if i < len(batch):
                trace = batch.trace(i)
                report = validate_trace(trace)
                repaired = False
                if repair and not report.valid:
                    # repair only invalid traces, then revalidate so the
                    # stored bitmask is the post-repair one
                    outcome = repair_trace(trace)
                    if outcome.repaired:
                        trace = outcome.trace
                        repaired = True
                        report = validate_trace(trace)
                slabs.add_trace(batch.refs[i].key, trace, report, repaired)
            lo = i + 1
    return slabs.publish(
        out_path,
        repaired=repair or mark_repaired,
        n_unreadable=n_unreadable,
        t0=t0,
    )


def _int64_totals(
    src: np.ndarray, counts: np.ndarray, fields: tuple[str, ...], keys: list[Any], label: str
) -> np.ndarray:
    """Each trace's exact sum of ``fields`` as an int64 column; a sum
    outside int64 raises :class:`StoreOverflowError` naming its trace's
    ``keys`` entry and ``label``."""
    totals = segment_sums(src, counts, fields)
    try:
        return np.array(totals, dtype=np.int64)
    except OverflowError:
        key, total = next(
            (key, total)
            for key, total in zip(keys, totals)
            if not _INT64_MIN <= total <= _INT64_MAX
        )
        raise StoreOverflowError(key, label, total) from None


def _misfit(key: Any, trace: Trace) -> StoreOverflowError | None:
    """The first integer of ``trace``, in the order the store is built,
    that its int64 columns cannot hold, as an error; ``None`` when every
    one fits."""
    meta = trace.meta
    values = [(name, getattr(rec, name)) for rec in trace.records for name in _RECORD_INTS]
    values += [
        ("job_id", meta.job_id),
        ("uid", meta.uid),
        ("nprocs", meta.nprocs),
        ("total_meta_ops", trace.total_metadata_ops),
        ("total_bytes", trace.total_bytes),
    ]
    for name, value in values:
        if isinstance(value, int) and not _INT64_MIN <= value <= _INT64_MAX:
            return StoreOverflowError(key, name, value)
    return None


class _Slabs:
    """The store's sections as they grow, one run of batch rows or one
    trace at a time, in ref order."""

    def __init__(self) -> None:
        self.heap = _Heap()
        self.sections: dict[str, list[bytes]] = {name: [] for name in _SLAB_SECTIONS}
        self.crcs: list[int] = []
        self.n_records = 0
        self.n_ops = 0

    def add_rows(
        self, batch: RecordBatch, lo: int, hi: int, first: int, masks: np.ndarray
    ) -> None:
        """Every readable ref of ``batch[lo:hi]``, from the batch arrays;
        ``first`` is the position of ref ``lo``'s first record."""
        rows = lo + np.flatnonzero(~batch.unreadable[lo:hi])
        if not len(rows):
            return
        row_list = rows.tolist()
        counts = batch.counts[rows]
        src = batch.records[first : first + int(counts.sum())]

        # heap strings in compile order: each trace's file names, then
        # its exe, machine and partition
        strings: list[str] = []
        texts: list[str] = []
        for i in row_list:
            names = batch.file_names(i)
            job = (batch.exe[i], batch.machine[i], batch.partition[i])
            strings += names
            strings += job
            texts.append("".join(job) + "".join(names))
        located = self.heap.locate(strings)
        job_at = (np.cumsum(counts + 3) - 3)[:, None] + np.arange(3)
        is_name = np.ones(len(located), dtype=bool)
        is_name[job_at.ravel()] = False
        job_loc = located[job_at]

        records = np.empty(len(src), dtype=RECORD_DTYPE)
        for name in src.dtype.names:
            records[name] = src[name]
        records["name_off"] = located[is_name, 0]
        records["name_len"] = located[is_name, 1]

        # Trace.operations: one op per record with bytes and a start,
        # ending at Python's max(end, start + MIN_OP_DURATION); each
        # trace's reads, then its writes, stably sorted by start
        owner = np.repeat(np.arange(len(rows)), counts)
        starts, ends, volumes, groups, per_trace = [], [], [], [], []
        for direction, (start_f, end_f, bytes_f) in enumerate(_DIRECTIONS):
            take = np.flatnonzero((src[bytes_f] > 0) & (src[start_f] >= 0.0))
            start = src[start_f][take]
            end = src[end_f][take]
            floor = start + MIN_OP_DURATION
            starts.append(start)
            ends.append(np.where(floor > end, floor, end))
            volumes.append(src[bytes_f][take].astype(np.float64))
            groups.append(owner[take] * 2 + direction)
            per_trace.append(np.bincount(owner[take], minlength=len(rows)))
        by_start = np.argsort(np.concatenate(starts), kind="stable")
        group = np.concatenate(groups)[by_start]
        order = by_start[np.argsort(group, kind="stable")]
        n_read, n_write = per_trace
        n_ops = n_read + n_write

        keys = [batch.refs[i].key for i in row_list]
        meta_ops, total_bytes = (
            _int64_totals(src, counts, fields, keys, label)
            for label, fields in _TOTALS
        )

        index = np.zeros(len(rows), dtype=TRACE_DTYPE)
        index["job_id"] = [batch.job_id[i] for i in row_list]
        index["uid"] = [batch.uid[i] for i in row_list]
        index["nprocs"] = batch.nprocs[rows]
        index["start_time"] = batch.start_time[rows]
        index["end_time"] = batch.end_time[rows]
        index["io_weight"] = total_bytes.astype(float) + meta_ops.astype(float)
        index["total_meta_ops"] = meta_ops
        index["total_bytes"] = total_bytes
        index["violations"] = masks[rows]
        for k, field in enumerate(("exe", "machine", "partition")):
            index[f"{field}_off"] = job_loc[:, k, 0]
            index[f"{field}_len"] = job_loc[:, k, 1]
        index["rec_off"] = self.n_records + np.cumsum(counts) - counts
        index["n_records"] = counts
        index["ops_off"] = self.n_ops + np.cumsum(n_ops) - n_ops
        index["n_read_ops"] = n_read
        index["n_write_ops"] = n_write
        self._append(
            index,
            records,
            np.concatenate(starts)[order],
            np.concatenate(ends)[order],
            np.concatenate(volumes)[order],
            texts,
        )

    def add_trace(
        self, key: Any, trace: Trace, report: ValidationReport, repaired: bool
    ) -> None:
        """One trace, compiled from its records one at a time."""
        records: list[np.ndarray] = []
        starts: list[np.ndarray] = []
        ends: list[np.ndarray] = []
        volumes: list[np.ndarray] = []
        try:
            row = _compile_trace(
                trace,
                report,
                repaired,
                self.heap,
                records,
                starts,
                ends,
                volumes,
                rec_off=self.n_records,
                ops_off=self.n_ops,
            )
            index = np.array([row], dtype=TRACE_DTYPE)
        except OverflowError as exc:
            error = _misfit(key, trace)
            if error is None:
                raise
            raise error from exc
        meta = trace.meta
        names = "".join([r.file_name for r in trace.records])
        self._append(
            index,
            records[0],
            np.concatenate(starts),
            np.concatenate(ends),
            np.concatenate(volumes),
            [meta.exe + meta.machine + meta.partition + names],
        )

    def _append(
        self,
        index: np.ndarray,
        records: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        volumes: np.ndarray,
        texts: list[str],
    ) -> None:
        """Add finished rows and their CRCs.

        Each row's CRC chains over its index row, record slab, three
        operation slabs and ``texts[row]`` (its exe, machine, partition
        and file names, concatenated).  A chained CRC equals the CRC of
        the concatenation, so this is :func:`~.format.trace_crc32` over
        the finished store.
        """
        chunks = [a.tobytes() for a in (index, records, starts, ends, volumes)]
        for name, chunk in zip(_SLAB_SECTIONS, chunks):
            self.sections[name].append(chunk)
        row_bytes, rec_bytes, *op_bytes = map(memoryview, chunks)
        rec_ends = np.cumsum(index["n_records"], dtype=np.int64) * RECORD_DTYPE.itemsize
        n_ops = index["n_read_ops"].astype(np.int64) + index["n_write_ops"]
        op_ends = np.cumsum(n_ops) * starts.itemsize
        width = TRACE_DTYPE.itemsize
        rec_lo = op_lo = 0
        for row, (rec_hi, op_hi, text) in enumerate(
            zip(rec_ends.tolist(), op_ends.tolist(), texts)
        ):
            crc = zlib.crc32(row_bytes[row * width : (row + 1) * width])
            crc = zlib.crc32(rec_bytes[rec_lo:rec_hi], crc)
            for column in op_bytes:
                crc = zlib.crc32(column[op_lo:op_hi], crc)
            self.crcs.append(zlib.crc32(text.encode("utf-8"), crc))
            rec_lo, op_lo = rec_hi, op_hi
        self.n_records += len(records)
        self.n_ops += len(starts)

    def publish(
        self, out_path: str | os.PathLike[str], *, repaired: bool, n_unreadable: int, t0: float
    ) -> CompileReport:
        sections = {name: b"".join(chunks) for name, chunks in self.sections.items()}
        sections["heap"] = self.heap.payload()
        sections["trace_crcs"] = np.array(self.crcs, dtype=TRACE_CRC_DTYPE).tobytes()
        return write_store(
            out_path, sections, repaired=repaired, n_unreadable=n_unreadable, t0=t0
        )


def write_store(
    out_path: str | os.PathLike[str],
    sections: dict[str, bytes],
    *,
    repaired: bool,
    n_unreadable: int,
    t0: float,
) -> CompileReport:
    """Lay out every section of :data:`SECTION_NAMES`, given as bytes,
    as a ``.mosc`` image and publish it atomically; ``t0`` is the
    compile's ``perf_counter`` start."""
    table: list[tuple[int, int, int]] = []
    cursor = _align(HEADER_SIZE)
    for name in SECTION_NAMES:
        payload = sections[name]
        table.append((cursor, len(payload), zlib.crc32(payload)))
        cursor = _align(cursor + len(payload))

    n_traces = len(sections["index"]) // TRACE_DTYPE.itemsize
    n_records = len(sections["records"]) // RECORD_DTYPE.itemsize
    n_ops = len(sections["ops_starts"]) // np.dtype(np.float64).itemsize
    header = pack_header(
        flags=FLAG_REPAIRED if repaired else 0,
        n_traces=n_traces,
        n_records=n_records,
        n_ops=n_ops,
        heap_len=len(sections["heap"]),
        n_unreadable=n_unreadable,
        sections=table,
    )

    # Assemble the full image (alignment gaps zero-filled) and publish
    # it atomically: temp + fsync + rename + parent-dir fsync, so a
    # crash or ENOSPC at any instant leaves the old store or none.
    n_bytes = table[-1][0] + table[-1][1]
    image = bytearray(n_bytes)
    image[: len(header)] = header
    for (offset, nbytes, _crc), name in zip(table, SECTION_NAMES):
        image[offset : offset + nbytes] = sections[name]
    out = os.fspath(out_path)
    atomic_write_bytes(out, bytes(image))

    return CompileReport(
        path=out,
        n_traces=n_traces,
        n_unreadable=n_unreadable,
        n_records=n_records,
        n_ops=n_ops,
        n_bytes=n_bytes,
        elapsed_s=time.perf_counter() - t0,
    )


def _compile_trace(
    trace: Trace,
    report: ValidationReport,
    repaired: bool,
    heap: _Heap,
    record_chunks: list[np.ndarray],
    ops_starts: list[np.ndarray],
    ops_ends: list[np.ndarray],
    ops_volumes: list[np.ndarray],
    *,
    rec_off: int,
    ops_off: int,
) -> tuple:
    """Append one trace's slabs; returns its index row tuple."""
    mask = 0
    for violation in report.categories():
        mask |= violation_bit(violation)

    recs = np.zeros(len(trace.records), dtype=RECORD_DTYPE)
    for i, r in enumerate(trace.records):
        name_off, name_len = heap.intern(r.file_name)
        recs[i] = (
            r.file_id,
            r.rank,
            r.opens,
            r.closes,
            r.seeks,
            r.stats,
            r.reads,
            r.writes,
            r.bytes_read,
            r.bytes_written,
            r.open_start,
            r.close_end,
            r.read_start,
            r.read_end,
            r.write_start,
            r.write_end,
            r.read_time,
            r.write_time,
            r.meta_time,
            name_off,
            name_len,
        )
    record_chunks.append(recs)

    read_ops = trace.operations("read")
    write_ops = trace.operations("write")
    for ops in (read_ops, write_ops):
        ops_starts.append(ops.starts)
        ops_ends.append(ops.ends)
        ops_volumes.append(ops.volumes)

    exe_off, exe_len = heap.intern(trace.meta.exe)
    machine_off, machine_len = heap.intern(trace.meta.machine)
    partition_off, partition_len = heap.intern(trace.meta.partition)

    return (
        trace.meta.job_id,
        trace.meta.uid,
        trace.meta.nprocs,
        trace.meta.start_time,
        trace.meta.end_time,
        trace.io_weight(),
        trace.total_metadata_ops,
        trace.total_bytes,
        mask,
        1 if repaired else 0,
        exe_off,
        exe_len,
        machine_off,
        machine_len,
        partition_off,
        partition_len,
        rec_off,
        len(trace.records),
        ops_off,
        len(read_ops),
        len(write_ops),
    )
