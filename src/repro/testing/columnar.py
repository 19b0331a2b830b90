"""Per-trace oracle for :func:`repro.columnar.compile_corpus`.

The runtime compiler derives a batch's store rows from its record
arrays.  This module keeps the literal per-trace loop as the oracle it
is held to, byte for byte: load each ref, validate (and with ``repair``
repair) the ``Trace``, build its record rows and operation arrays from
its ``FileRecord`` objects, and CRC every finished row with
:func:`~repro.columnar.format.trace_crc32`, the function ``mosaic
verify`` runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..columnar.compile import CompileReport, _compile_trace, _Heap, write_store
from ..columnar.format import RECORD_DTYPE, TRACE_CRC_DTYPE, TRACE_DTYPE, trace_crc32
from ..darshan.errors import TraceFormatError
from ..darshan.repair import repair_trace
from ..darshan.source import TraceSource
from ..darshan.validate import validate_trace

__all__ = ["compile_per_trace"]


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
