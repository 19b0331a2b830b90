"""``repair_rows`` repairs a batch's record columns exactly as the
per-``Trace`` oracle ``repro.testing.repair_trace`` repairs each trace.

Every flagged readable row of a batch is held to the oracle row for
row: its record bytes (NaN payloads included), file names, record count,
the records dropped, and the verdict.  A row repair does not recover
keeps its original records.  The inputs are the fuzz harness's seed
traces under every mutator, every corruption kind of the fleet
generator, and hand cases at each rule's edges.

``check_fuzz(seed, n_cases)`` runs the fuzz part on any seed; CI runs it
on seeds this suite never draws.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.darshan import (
    FileRecord,
    InMemorySource,
    JobMeta,
    Trace,
    TraceFormatError,
    dumps_binary,
)
from repro.darshan.io_binary import _pack_record
from repro.darshan.io_json import loads
from repro.darshan.io_text import loads_text
from repro.darshan.repair import MAX_CLAMP_FACTOR, repair_rows
from repro.darshan.source import RecordBatch, batch_payloads, check_batch
from repro.darshan.validate import END_SLACK, violation_matrix
from repro.fuzz.mutators import generate_cases, mutations_for
from repro.synth import CORRUPTION_KINDS, FleetConfig, corrupt_trace, generate_fleet
from repro.testing import repair_trace

NAN, INF = math.nan, math.inf


def _rows(batch: RecordBatch, i: int) -> bytes:
    end = int(batch.counts[: i + 1].sum())
    return batch.records[end - int(batch.counts[i]) : end].tobytes()


def assert_matches_oracle(batch: RecordBatch) -> int:
    """``repair_rows`` over every flagged readable row of ``batch``
    equals ``repair_trace`` of each; returns the number recovered."""
    flags = violation_matrix(batch.records, batch.run_time, batch.nprocs, batch.counts)
    tried = flags.any(axis=1) & ~batch.unreadable
    fixed, recovered = repair_rows(batch, tried)
    assert len(fixed) == len(batch)
    assert fixed.job_id == batch.job_id and fixed.exe == batch.exe
    for i in range(len(batch)):
        if not tried[i]:
            assert not recovered[i]
            assert _rows(fixed, i) == _rows(batch, i)
            assert fixed.file_names(i) == batch.file_names(i)
            continue
        original = batch.trace(i)
        outcome = repair_trace(original)
        assert bool(recovered[i]) == outcome.repaired, (i, outcome.actions)
        expected = outcome.trace if outcome.repaired else original
        assert _rows(fixed, i) == b"".join(map(_pack_record, expected.records)), outcome.actions
        assert fixed.file_names(i) == [rec.file_name for rec in expected.records]
        assert int(fixed.counts[i]) == len(expected.records)
        if outcome.repaired:
            assert int(batch.counts[i] - fixed.counts[i]) == outcome.n_dropped_records
    return int(recovered.sum())


def _batches(traces: list[Trace]) -> list[RecordBatch]:
    return list(InMemorySource(traces).record_batches())


def _decoded(fmt: str, data: bytes) -> Trace | None:
    try:
        return loads(data) if fmt == "json" else loads_text(data.decode("utf-8"))
    except (TraceFormatError, UnicodeDecodeError):
        return None


def check_fuzz(seed: int, n_cases: int) -> int:
    """The differential over ``n_cases`` fuzz cases per format, drawn
    from ``seed``; returns the number of rows recovered."""
    recovered = 0
    binary = [case.data for case in generate_cases("binary", n_cases, seed)]
    for lo in range(0, len(binary), 256):
        recovered += assert_matches_oracle(batch_payloads(binary[lo : lo + 256]))
    for fmt in ("json", "text"):
        cases = generate_cases(fmt, n_cases, seed)
        traces = [t for t in (_decoded(fmt, case.data) for case in cases) if t is not None]
        for batch in _batches(traces):
            recovered += assert_matches_oracle(batch)
    return recovered


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_cases_of_every_mutator(seed):
    # every mutator of every format appears in a schedule this long
    n_cases = 4 * max(len(mutations_for(fmt)) for fmt in ("binary", "json", "text"))
    assert check_fuzz(seed, max(n_cases, 300)) > 0


@pytest.fixture(scope="module")
def fleet_traces():
    return list(generate_fleet(FleetConfig(n_apps=40, mean_runs=1.5, seed=3)).traces)


@pytest.mark.parametrize("kind", sorted(CORRUPTION_KINDS))
def test_every_corruption_kind(fleet_traces, kind):
    rng = np.random.default_rng(sorted(CORRUPTION_KINDS).index(kind))
    bad = [corrupt_trace(t, rng, kind) for t in fleet_traces]
    recovered = sum(assert_matches_oracle(b) for b in _batches(bad))
    if kind != "negative_runtime":
        assert recovered > 0
    # the same traces read as MOSD payloads
    assert recovered == assert_matches_oracle(batch_payloads([dumps_binary(t) for t in bad]))


def test_random_corruption_mix(fleet_traces):
    rng = np.random.default_rng(99)
    mixed = [corrupt_trace(t, rng) if k % 3 else t for k, t in enumerate(fleet_traces)]
    assert sum(assert_matches_oracle(b) for b in _batches(mixed)) > 0


# ----------------------------------------------------------------------
# hand cases: start_time 0, so each runtime is exact


def _rec(file_id: int = 1, **fields) -> FileRecord:
    base = FileRecord(
        file_id, f"f{file_id}.dat", 0, opens=1, closes=1, reads=1, bytes_read=100,
        open_start=1.0, close_end=9.0, read_start=2.0, read_end=8.0,
    )
    return replace(base, **fields)


def _trace(
    records: list[FileRecord], run_time: float = 100.0, nprocs: int = 4, flagged: bool = True
) -> Trace:
    """A trace of ``records``; with ``flagged``, one more record, with a
    negative counter, makes sure validation flags the trace."""
    meta = JobMeta(7, 70, "hand.exe", nprocs, 0.0, run_time, machine="m", partition="p")
    return Trace(meta, records + [_rec(99, seeks=-1)] * flagged)


HAND_CASES = {
    # NaN and infinities in record times
    "nan read start": _trace([_rec(read_start=NAN, read_end=150.0)]),
    "nan read end": _trace([_rec(read_end=NAN), _rec(2, close_end=-1.0)]),
    "nan window, no bytes": _trace(
        [_rec(read_start=NAN, read_end=NAN, bytes_read=0), _rec(2, reads=-1)]
    ),
    "nan write end": _trace(
        [_rec(write_start=3.0, write_end=NAN, bytes_written=5, writes=1, close_end=2.0)]
    ),
    "nan close": _trace([_rec(close_end=NAN)]),
    "nan open, opens": _trace([_rec(open_start=NAN, close_end=-1.0, opens=2)]),
    "nan open and inverted read": _trace([_rec(open_start=NAN, read_start=9.0, read_end=3.0)]),
    "inf read end": _trace([_rec(read_end=INF)]),
    "inf close": _trace([_rec(close_end=INF)]),
    "-inf read start": _trace([_rec(read_start=-INF)]),
    "-inf close, opens": _trace([_rec(close_end=-INF, opens=3)]),
    "nan metadata, no opens": _trace(
        [_rec(open_start=NAN, close_end=NAN, opens=0, read_end=120.0)]
    ),
    "nan read start, metadata rebuilt": _trace(
        [_rec(open_start=-1.0, close_end=-1.0, read_start=NAN, read_end=5.0)]
    ),
    "-0.0 read start, metadata rebuilt": _trace(
        [_rec(open_start=-1.0, close_end=-1.0, read_start=-0.0, read_end=5.0)]
    ),
    "nan in both read and write": _trace(
        [_rec(read_end=NAN, write_start=NAN, write_end=200.0, writes=1, bytes_written=9)]
    ),
    # the max(run_time, 1.0) floor: clamped below 1.5 s, dropped past it
    "short run, clamped": _trace(
        [_rec(open_start=0.0, close_end=0.1, read_start=0.1, read_end=1.4)], run_time=0.25
    ),
    "short run, dropped": _trace(
        [_rec(open_start=0.0, close_end=0.1, read_start=0.1, read_end=1.6), _rec(2, bytes_read=-1)],
        run_time=0.25,
    ),
    "short run, metadata clamped": _trace(
        [_rec(open_start=0.0, close_end=1.45, read_start=0.0, read_end=0.2, opens=1)], run_time=0.3
    ),
    # windows exactly at END_SLACK and MAX_CLAMP_FACTOR
    "read end at end slack": _trace([_rec(read_end=100.0 + END_SLACK, close_end=100.5)]),
    "read end at clamp factor": _trace([_rec(read_end=MAX_CLAMP_FACTOR * 100.0)]),
    "read end past clamp factor": _trace(
        [_rec(read_end=np.nextafter(MAX_CLAMP_FACTOR * 100.0, INF)), _rec(2)]
    ),
    "close at end slack": _trace([_rec(close_end=100.0 + END_SLACK)]),
    "close at clamp factor": _trace([_rec(close_end=MAX_CLAMP_FACTOR * 100.0)]),
    "close past clamp factor": _trace([_rec(close_end=151.0), _rec(2)]),
    # rules that follow one another on one record
    "swap then clamp": _trace([_rec(read_start=130.0, read_end=20.0)]),
    "swap then drop": _trace([_rec(read_start=170.0, read_end=20.0), _rec(2)]),
    "metadata swap then clamp": _trace([_rec(open_start=120.0, close_end=5.0)]),
    "clamp then extend": _trace([_rec(read_start=50.0, read_end=140.0, close_end=60.0)]),
    "extend then clamp": _trace(
        [_rec(read_start=50.0, read_end=120.0, write_start=10.0, write_end=130.0,
              writes=1, bytes_written=8, close_end=20.0)]
    ),
    "extend within 1e-9": _trace([_rec(close_end=8.0 - 1e-10), _rec(2, seeks=-4)]),
    "half-open metadata rebuilt": _trace([_rec(close_end=-1.0, read_end=120.0)]),
    "rebuild from write only": _trace(
        [_rec(open_start=-1.0, close_end=-1.0, read_start=-1.0, read_end=-1.0, bytes_read=0,
              write_start=4.0, write_end=6.0, writes=1, bytes_written=1)]
    ),
    "half-open read dropped": _trace([_rec(read_start=-1.0), _rec(2)]),
    "bytes without window dropped": _trace([_rec(read_start=-1.0, read_end=-1.0), _rec(2)]),
    # record counts of zero
    "every record dropped": _trace([_rec(opens=-1), _rec(2, bytes_written=-3)]),
    "no records, bad header": _trace([], nprocs=0, flagged=False),
    "residual violation": _trace([_rec(open_start=-1.0, close_end=-1.0, opens=0, read_end=-2.0)]),
    # a corrupt header is unrepairable
    "negative runtime": _trace([_rec(read_end=-5.0)], run_time=-10.0),
    "zero runtime": _trace([_rec()], run_time=0.0),
    "zero ranks": _trace([_rec(read_end=500.0)], nprocs=0),
    "negative ranks": _trace([_rec()], nprocs=-2),
    "nan runtime, zero ranks": _trace([_rec(read_end=500.0)], run_time=NAN, nprocs=0),
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_case(name):
    trace = HAND_CASES[name]
    valid = _trace([_rec(5)])
    # each case alone, and between valid neighbours
    for batch in _batches([trace]) + _batches([valid, trace, valid]):
        assert_matches_oracle(batch)


def test_hand_cases_in_one_batch():
    traces = list(HAND_CASES.values())
    (batch,) = _batches(traces)
    recovered = assert_matches_oracle(batch)
    assert 0 < recovered < len(traces)


def test_check_batch_replaces_each_recovered_row(fleet_traces):
    rng = np.random.default_rng(5)
    mixed = [corrupt_trace(t, rng) if k % 2 else t for k, t in enumerate(fleet_traces)]
    for batch in _batches(mixed):
        plain = check_batch(batch)
        checked = check_batch(batch, repair=True)
        flagged = plain.flags.any(axis=1)
        assert flagged[checked.repaired].all()
        assert not checked.flags[checked.repaired].any()
        kept = np.ones(len(batch), dtype=bool)
        kept[checked.repaired] = False
        assert (checked.flags[kept] == plain.flags[kept]).all()
        for i in checked.repaired.tolist():
            assert checked.batch.trace(i) == repair_trace(batch.trace(i)).trace
