"""``compile_corpus``: one pass from any ``TraceSource`` to a ``.mosc`` store.

Compilation folds over the source's record batches
(:meth:`~repro.darshan.source.TraceSource.record_batches`, the reader
the streaming scan folds over) and derives each batch's store rows from
its arrays: the violation bitmask from
:func:`~repro.darshan.validate.violation_matrix` (the stored traces are
not evicted — the store-backed scan replays the eviction funnel from the
index alone), the record slab from the batch's record columns, the
per-trace totals from segmented sums, the flat operation table
(``Trace.operations`` per direction) from
:func:`~repro.darshan.trace.record_operations`, which the streaming
route's pass ② shares, and
each trace's CRC from one chain over the bytes it owns.  Every string is
interned in a deduplicated heap.  Each batch is validated, and with
``repair`` repaired, by :func:`~repro.darshan.source.check_batch`, the
per-batch step the streaming scan also applies; each ref repair
recovers is stored as its repaired row, with its repair bit set.
Metadata event streams are *not* materialized (they can dwarf
the corpus itself); the reader reconstructs them from the records
section bit-for-bit.  Payloads the source cannot decode at all, and
traces holding a value their columns cannot hold exactly, are *counted*
(``n_unreadable`` in the header) so the store-backed funnel matches the
streaming scan's input accounting exactly.

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
from typing import Any, Callable

import numpy as np

from ..darshan.source import CheckedBatch, TraceSource, check_batch, segment_sums
from ..darshan.trace import record_operations
from ..io import atomic_write_bytes
from .format import (
    ALIGN,
    FLAG_REPAIRED,
    HEADER_SIZE,
    RECORD_DTYPE,
    SECTION_NAMES,
    TRACE_CRC_DTYPE,
    TRACE_DTYPE,
    VIOLATION_BITS,
    pack_header,
)

# Bound by perfbench/tracer.py's per-layer spans (ROADMAP item 1 retires
# that tracer); the compiler itself no longer calls it.
from ..darshan.validate import validate_trace  # noqa: F401

__all__ = ["CompileReport", "StoreOverflowError", "compile_corpus"]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: The index's integer totals, as sums of record fields.
_TOTALS = (
    ("total_meta_ops", ("opens", "closes", "seeks")),
    ("total_bytes", ("bytes_read", "bytes_written")),
)

#: The sections :class:`_Slabs` grows row by row, in layout order.
_SLAB_SECTIONS = ("index", "records", "ops_starts", "ops_ends", "ops_volumes")


class StoreOverflowError(OverflowError):
    """A trace's total bytes or metadata operations lie outside the
    store's int64 columns, though each of its values fits.

    ``key`` is the trace's ref key (the file path of a directory
    source), ``field`` the column that cannot hold ``value``.
    """

    def __init__(self, key: Any, field: str, value: float) -> None:
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
    metadata operations exceed int64.  A trace holding a value its
    columns cannot hold exactly is unreadable, as the scan counts it.
    """
    t0 = time.perf_counter()
    slabs = _Slabs()
    n_unreadable = extra_unreadable
    for batch in source.record_batches():
        n_unreadable += int(np.count_nonzero(batch.unreadable))
        # bound to no name: the next batch is checked once this one is freed
        slabs.add_batch(check_batch(batch, repair=repair))
    return slabs.publish(
        out_path,
        repaired=repair or mark_repaired,
        n_unreadable=n_unreadable,
        t0=t0,
    )


def _int64_totals(
    src: np.ndarray,
    counts: np.ndarray,
    fields: tuple[str, ...],
    key: Callable[[int], Any],
    label: str,
) -> np.ndarray:
    """Each trace's exact sum of ``fields`` as an int64 column; a sum
    outside int64 raises :class:`StoreOverflowError` naming its trace's
    ``key(trace)`` and ``label``."""
    totals = segment_sums(src, counts, fields)
    try:
        return np.array(totals, dtype=np.int64)
    except OverflowError:
        at, total = next(
            (at, total)
            for at, total in enumerate(totals)
            if not _INT64_MIN <= total <= _INT64_MAX
        )
        raise StoreOverflowError(key(at), label, total) from None


class _Slabs:
    """The store's sections as they grow, one checked batch at a time,
    in ref order."""

    def __init__(self) -> None:
        self.heap = _Heap()
        self.sections: dict[str, list[bytes]] = {name: [] for name in _SLAB_SECTIONS}
        self.crcs: list[int] = []
        self.n_records = 0
        self.n_ops = 0

    def add_batch(self, checked: CheckedBatch) -> None:
        """Every readable ref of a checked batch, in ref order, from the
        batch arrays and violation matrix; the refs repair recovered
        with their repair bit set."""
        batch = checked.batch
        rows = np.flatnonzero(~batch.unreadable)
        if not len(rows):
            return
        row_list = rows.tolist()
        counts = batch.counts[rows]
        src = batch.records

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

        starts, ends, volumes, n_read, n_write = record_operations(src, counts)
        n_ops = n_read + n_write

        meta_ops, total_bytes = (
            _int64_totals(src, counts, fields, lambda at: batch.key(row_list[at]), label)
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
        index["violations"] = checked.flags[rows] @ VIOLATION_BITS
        index["repaired"][np.searchsorted(rows, checked.repaired)] = True
        for k, field in enumerate(("exe", "machine", "partition")):
            index[f"{field}_off"] = job_loc[:, k, 0]
            index[f"{field}_len"] = job_loc[:, k, 1]
        index["rec_off"] = self.n_records + np.cumsum(counts) - counts
        index["n_records"] = counts
        index["ops_off"] = self.n_ops + np.cumsum(n_ops) - n_ops
        index["n_read_ops"] = n_read
        index["n_write_ops"] = n_write
        self._append(index, records, starts, ends, volumes, texts)

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
