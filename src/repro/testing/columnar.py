"""Per-trace oracle for :func:`repro.columnar.compile_corpus`.

The runtime compiler derives a batch's store rows from its record
arrays.  This module keeps the literal per-trace loop as the oracle it
is held to, byte for byte: load each ref, count it unreadable when a
value does not fit its column (:func:`fits_columns`), validate (and
with ``repair`` repair) the ``Trace``, build its record rows and
operation arrays from its ``FileRecord`` objects, and CRC every
finished row with :func:`~repro.columnar.format.trace_crc32`, the
function ``mosaic verify`` runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..columnar.compile import CompileReport, _Heap, write_store
from ..columnar.format import (
    RECORD_DTYPE,
    TRACE_CRC_DTYPE,
    TRACE_DTYPE,
    trace_crc32,
    violation_bit,
)
from ..darshan.errors import TraceFormatError
from ..darshan.io_binary import RECORD_DTYPE as BATCH_DTYPE
from ..darshan.records import exact_int
from ..darshan.repair import repair_trace
from ..darshan.source import TraceSource
from ..darshan.trace import Trace
from ..darshan.validate import ValidationReport, validate_trace

__all__ = ["compile_per_trace", "fits_columns"]


def fits_columns(trace: Trace) -> bool:
    """Whether every counter, id and rank count of ``trace`` is one its
    integer column of a scan batch holds exactly, by
    :func:`~repro.darshan.records.exact_int`, one value at a time."""
    meta = trace.meta
    values = [(v, 64) for v in (meta.job_id, meta.uid, meta.nprocs)]
    for rec in trace.records:
        for name in BATCH_DTYPE.names:
            column = BATCH_DTYPE[name]
            if column.kind == "i":
                values.append((getattr(rec, name), column.itemsize * 8))
    try:
        for value, bits in values:
            exact_int(value, bits)
    except TraceFormatError:  # mosaic: disable=MOS009 — callers count it unreadable
        return False
    return True


def compile_per_trace(
    source: TraceSource,
    out_path: str | os.PathLike[str],
    *,
    repair: bool = False,
    mark_repaired: bool = False,
    extra_unreadable: int = 0,
) -> CompileReport:
    """:func:`~repro.columnar.compile_corpus`, one trace at a time."""
    t0 = time.perf_counter()
    heap = _Heap()
    index_rows: list[tuple] = []
    record_chunks: list[np.ndarray] = []
    ops_starts: list[np.ndarray] = []
    ops_ends: list[np.ndarray] = []
    ops_volumes: list[np.ndarray] = []
    n_records = 0
    n_ops = 0
    n_unreadable = extra_unreadable

    for ref in source.refs():
        try:
            trace = source.load(ref)
        except TraceFormatError:  # mosaic: disable=MOS009 — counted
            n_unreadable += 1
            continue
        if not fits_columns(trace):
            n_unreadable += 1
            continue
        report = validate_trace(trace)
        repaired = False
        if repair and not report.valid:
            outcome = repair_trace(trace)
            if outcome.repaired:
                trace = outcome.trace
                repaired = True
                report = validate_trace(trace)
        row = _compile_trace(
            trace,
            report,
            repaired,
            heap,
            record_chunks,
            ops_starts,
            ops_ends,
            ops_volumes,
            rec_off=n_records,
            ops_off=n_ops,
        )
        index_rows.append(row)
        n_records += len(trace.records)
        n_ops += int(row[19]) + int(row[20])  # n_read_ops, n_write_ops

    index = np.array(index_rows, dtype=TRACE_DTYPE)
    records = (
        np.concatenate(record_chunks)
        if record_chunks
        else np.empty(0, dtype=RECORD_DTYPE)
    )
    empty = np.empty(0, dtype=np.float64)
    starts = np.concatenate(ops_starts) if ops_starts else empty
    ends = np.concatenate(ops_ends) if ops_ends else empty
    volumes = np.concatenate(ops_volumes) if ops_volumes else empty
    heap_bytes = heap.payload()
    trace_crcs = np.fromiter(
        (
            trace_crc32(index, records, starts, ends, volumes, heap_bytes, row)
            for row in range(len(index))
        ),
        dtype=TRACE_CRC_DTYPE,
        count=len(index),
    )
    sections = {
        "index": index.tobytes(),
        "records": records.tobytes(),
        "ops_starts": starts.tobytes(),
        "ops_ends": ends.tobytes(),
        "ops_volumes": volumes.tobytes(),
        "heap": heap_bytes,
        "trace_crcs": trace_crcs.tobytes(),
    }
    return write_store(
        out_path,
        sections,
        repaired=repair or mark_repaired,
        n_unreadable=n_unreadable,
        t0=t0,
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
