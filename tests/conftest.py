"""Shared fixtures and trace-building helpers for the test suite."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core import run_pipeline
from repro.darshan import FileRecord, JobMeta, Trace, dumps_binary
from repro.darshan.io_binary import _COUNTS, _HEADER, _JOB
from repro.darshan.trace import OperationArray
from repro.synth import FleetConfig, generate_fleet


def make_meta(
    job_id: int = 1,
    uid: int = 100,
    exe: str = "app.exe",
    nprocs: int = 8,
    run_time: float = 1000.0,
) -> JobMeta:
    """A valid job header with the given runtime."""
    start = 1_546_300_800.0
    return JobMeta(
        job_id=job_id,
        uid=uid,
        exe=exe,
        nprocs=nprocs,
        start_time=start,
        end_time=start + run_time,
    )


def make_record(
    file_id: int = 1,
    rank: int = 0,
    *,
    read: tuple[float, float, int] | None = None,
    write: tuple[float, float, int] | None = None,
    opens: int = 1,
    seeks: int = 0,
) -> FileRecord:
    """A record with optional (start, end, bytes) read/write windows."""
    rec = FileRecord(
        file_id=file_id,
        file_name=f"f{file_id}.dat",
        rank=rank,
        opens=opens,
        closes=opens,
        seeks=seeks,
    )
    lo = []
    hi = []
    if read is not None:
        rec.read_start, rec.read_end, rec.bytes_read = read
        rec.reads = max(1, rec.bytes_read // (4 << 20))
        lo.append(rec.read_start)
        hi.append(rec.read_end)
    if write is not None:
        rec.write_start, rec.write_end, rec.bytes_written = write
        rec.writes = max(1, rec.bytes_written // (4 << 20))
        lo.append(rec.write_start)
        hi.append(rec.write_end)
    if opens > 0:
        rec.open_start = min(lo) if lo else 0.0
        rec.close_end = max(hi) if hi else 1.0
    return rec


def make_trace(
    records: list[FileRecord],
    run_time: float = 1000.0,
    nprocs: int = 8,
    job_id: int = 1,
    uid: int = 100,
    exe: str = "app.exe",
) -> Trace:
    return Trace(
        meta=make_meta(job_id=job_id, uid=uid, exe=exe, nprocs=nprocs, run_time=run_time),
        records=records,
    )


def ops(*triples: tuple[float, float, float]) -> OperationArray:
    return OperationArray.from_tuples(list(triples))


def mosd_variants(trace: Trace) -> dict[str, bytes]:
    """Malformed MOSD payloads derived from one valid trace, by name."""
    payload = dumps_binary(trace)
    meta = trace.meta
    strings = sum(len(s.encode()) for s in (meta.exe, meta.machine, meta.partition))
    counts_at = _HEADER.size + _JOB.size + strings
    table_at = counts_at + _COUNTS.size
    n_records, n_table = _COUNTS.unpack_from(payload, counts_at)
    assert n_records >= 2 and n_table > 0
    records = payload[table_at + n_table :]
    table = payload[table_at : table_at + n_table]

    def with_counts(n: int, t: int, tbl: bytes = table, recs: bytes = records) -> bytes:
        return payload[:counts_at] + _COUNTS.pack(n, t) + tbl + recs

    bad_utf8 = bytearray(payload)
    bad_utf8[table_at] = 0xFF
    return {
        "truncated": payload[: len(payload) // 2],
        "badmagic": b"NOPE" + payload[4:],
        "badversion": payload[:4] + struct.pack("<H", 9) + payload[6:],
        "lying-count-high": with_counts(n_records + 1, n_table),
        "lying-count-low": with_counts(n_records - 1, n_table),
        "lying-count-unnamed": with_counts(n_records - 1, 0, b""),
        "lying-table": with_counts(n_records, n_table + 10_000),
        "bad-utf8": bytes(bad_utf8),
        "name-mismatch": with_counts(n_records, n_table + 1, table + b"\x00"),
        "trailing": payload + b"\x00",
        "empty": b"",
    }


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_fleet():
    """A small calibrated corpus shared by corpus-level tests."""
    return generate_fleet(FleetConfig(n_apps=150, mean_runs=10.0, seed=99))


@pytest.fixture(scope="session")
def small_pipeline(small_fleet):
    """Pipeline result over the small corpus."""
    return run_pipeline(small_fleet.traces)
