"""The columnar MOSD parser against the single-payload one.

``parse_payloads`` must accept exactly what ``parse_binary`` accepts,
row by row, with the same header and record bytes, however refused and
accepted payloads are interleaved in one batch.
"""

import glob
import os
import random
import struct
import threading
import tracemalloc

import pytest

from repro.darshan import DirectorySource, TraceFormatError, dumps_binary
from repro.darshan.io_binary import (
    _COUNTS,
    _HEAD,
    parse_binary,
    parse_payloads,
    read_payload,
)
from repro.darshan.limits import DecodeLimits
from repro.synth import FleetConfig, generate_fleet

from tests.conftest import make_record, make_trace, mosd_variants

CORPUS = os.path.join(os.path.dirname(__file__), "..", "fuzz", "corpus", "binary")


@pytest.fixture(scope="module")
def fleet_traces():
    return generate_fleet(FleetConfig(n_apps=40, mean_runs=2.0, seed=5)).traces


@pytest.fixture(scope="module")
def fleet_payloads(fleet_traces):
    return [dumps_binary(t) for t in fleet_traces]


def _edge_payloads(payload: bytes) -> list[bytes]:
    """Refusals at size checks the named variants do not reach."""
    lengths_at = _HEAD.size - 6
    n_exe, n_mach, n_part = struct.unpack_from("<HHH", payload, lengths_at)
    counts_at = _HEAD.size + n_exe + n_mach + n_part

    def with_exe_length(n: int) -> bytes:
        return payload[:lengths_at] + struct.pack("<H", n) + payload[lengths_at + 2 :]

    return [
        payload[:6],  # magic header cut short
        payload[: _HEAD.size - 1],  # job header cut short
        with_exe_length(0xFFFF),  # job strings beyond the payload
        with_exe_length(n_exe + 1),  # every later offset moved by one
        payload[: counts_at + 4],  # counts block cut short
    ]


def _mixed(traces, payloads) -> list[bytes]:
    """Valid payloads, fuzz reproducers and malformed variants, shuffled."""
    mixed = list(payloads)
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.bin"))):
        with open(path, "rb") as fh:
            mixed.append(fh.read())
    donors = [t for t in traces if len(t.records) >= 2][:5]
    for trace in donors:
        mixed += mosd_variants(trace).values()
        mixed += _edge_payloads(dumps_binary(trace))
    # long job strings over a short table: the job-string cap alone binds
    mixed.append(dumps_binary(make_trace([make_record(1, 0)], exe="x" * 300)))
    random.Random(18).shuffle(mixed)
    return mixed


def _assert_rows_match(payloads, limits):
    cols = parse_payloads(payloads, limits)
    assert len(cols.ok) == len(cols.exe) == len(cols.counts) == len(payloads)
    at = 0
    n_ok = 0
    for i, payload in enumerate(payloads):
        try:
            sections = parse_binary(payload, limits)
        except TraceFormatError:
            assert not cols.ok[i], f"row {i}: only the columnar parser accepted it"
            assert cols.counts[i] == 0 and cols.exe[i] == ""
            assert cols.job_id[i] == cols.uid[i] == cols.nprocs[i] == 0
            continue
        assert cols.ok[i], f"row {i}: only parse_binary accepted it"
        meta = sections.meta
        assert (
            int(cols.job_id[i]),
            int(cols.uid[i]),
            cols.exe[i],
            int(cols.nprocs[i]),
            float(cols.start[i]),
            float(cols.end[i]),
            cols.machine[i],
            cols.partition[i],
        ) == (
            meta.job_id,
            meta.uid,
            meta.exe,
            meta.nprocs,
            meta.start_time,
            meta.end_time,
            meta.machine,
            meta.partition,
        )
        count = int(cols.counts[i])
        assert cols.records[at : at + count].tobytes() == sections.records.tobytes()
        at += count
        n_ok += 1
    assert at == len(cols.records)
    return n_ok


def test_one_shuffled_batch_matches_parse_binary(fleet_traces, fleet_payloads):
    payloads = _mixed(fleet_traces, fleet_payloads)
    n_ok = _assert_rows_match(payloads, DecodeLimits())
    assert 0 < n_ok < len(payloads)


@pytest.mark.parametrize("cap", ["max_payload_bytes", "max_records", "max_string_bytes"])
def test_each_cap_matches_parse_binary(fleet_traces, fleet_payloads, cap):
    payloads = _mixed(fleet_traces, fleet_payloads)
    median = {
        "max_payload_bytes": sorted(map(len, fleet_payloads))[len(fleet_payloads) // 2],
        "max_records": sorted(len(t.records) for t in fleet_traces)[len(fleet_traces) // 2],
        # between most job-string sections and most string tables
        "max_string_bytes": 64,
    }
    n_ok = _assert_rows_match(payloads, DecodeLimits(**{cap: median[cap]}))
    assert 0 < n_ok < _assert_rows_match(payloads, DecodeLimits())


def test_empty_batch():
    cols = parse_payloads([])
    assert len(cols.ok) == 0 and len(cols.records) == 0


def test_lying_counts_never_shift_a_neighbour(fleet_payloads):
    good = fleet_payloads[:2]
    payload = good[0]
    n_exe, n_mach, n_part = struct.unpack_from("<HHH", payload, _HEAD.size - 6)
    counts_at = _HEAD.size + n_exe + n_mach + n_part
    liar = payload[:counts_at] + _COUNTS.pack(2**32 - 1, 2**32 - 1) + payload[counts_at + 8 :]
    alone = parse_payloads(good)
    both = parse_payloads([good[0], liar, good[1]])
    assert both.ok.tolist() == [True, False, True]
    assert both.records.tobytes() == alone.records.tobytes()
    assert both.job_id[[0, 2]].tolist() == alone.job_id.tolist()
    assert [both.exe[0], both.exe[2]] == alone.exe


def test_oversized_file_is_refused_unread(fleet_payloads, tmp_path):
    path = tmp_path / "t.mosd"
    path.write_bytes(fleet_payloads[0])
    limits = DecodeLimits(max_payload_bytes=len(fleet_payloads[0]) - 1)
    with pytest.raises(TraceFormatError, match="exceeding decode limit"):
        read_payload(path, limits)
    assert read_payload(path) == fleet_payloads[0]


def _short_reads(monkeypatch, most: int = 5) -> None:
    """Make every ``os.read`` return at most ``most`` bytes, as a network
    or parallel filesystem may."""
    real = os.read
    monkeypatch.setattr(os, "read", lambda fd, n: real(fd, min(n, most)))


def test_short_reads_are_continued(fleet_payloads, tmp_path, monkeypatch):
    path = tmp_path / "t.mosd"
    path.write_bytes(fleet_payloads[0])
    _short_reads(monkeypatch)
    assert read_payload(path) == fleet_payloads[0]
    with pytest.raises(TraceFormatError, match="exceeding decode limit"):
        read_payload(path, DecodeLimits(max_payload_bytes=len(fleet_payloads[0]) - 1))


def test_scan_batches_are_unchanged_by_short_reads(fleet_payloads, tmp_path, monkeypatch):
    for i, payload in enumerate(fleet_payloads):
        (tmp_path / f"t{i:03d}.mosd").write_bytes(payload)
    source = DirectorySource(tmp_path)

    def scanned():
        batches = list(source.record_batches())
        return (
            [r for b in batches for r in b.refs],
            [bad for b in batches for bad in b.unreadable.tolist()],
            b"".join(b.records.tobytes() for b in batches),
        )

    whole = scanned()
    _short_reads(monkeypatch, most=97)
    assert scanned() == whole
    assert not any(whole[1])


def _feed(path, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:  # the reader refused and closed first
        pass


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("tight", [False, True])
def test_a_file_without_a_reported_size_is_read_to_its_end(fleet_payloads, tmp_path, tight):
    """A pipe reports size 0; its bytes are still read, and still capped."""
    payload = fleet_payloads[0]
    path = tmp_path / "t.mosd"
    os.mkfifo(path)
    writer = threading.Thread(target=_feed, args=(path, payload))
    writer.start()
    try:
        if tight:
            with pytest.raises(TraceFormatError, match="exceeding decode limit"):
                read_payload(path, DecodeLimits(max_payload_bytes=100))
        else:
            assert read_payload(path) == payload
    finally:
        writer.join()


@pytest.fixture(scope="module")
def large_payload():
    """One trace of about 8 MB, over the scan's 1 MiB batch budget."""
    records = [make_record(i, i % 64, read=(1.0, 2.0, 4096)) for i in range(50_000)]
    return dumps_binary(make_trace(records, nprocs=64))


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_large_payload_is_parsed_in_place(large_payload):
    """A batch of one payload copies neither its bytes nor its records."""
    cols = parse_payloads([large_payload])
    assert cols.ok.tolist() == [True] and len(cols.records) == 50_000
    assert cols.records.tobytes() == parse_binary(large_payload).records.tobytes()
    peak = _peak_bytes(lambda: parse_payloads([large_payload]))
    assert peak < len(large_payload) // 4


def test_scan_of_one_large_trace_holds_it_once(fleet_payloads, large_payload, tmp_path):
    (tmp_path / "a.mosd").write_bytes(fleet_payloads[0])
    (tmp_path / "b.mosd").write_bytes(large_payload)
    (tmp_path / "c.mosd").write_bytes(fleet_payloads[1])
    source = DirectorySource(tmp_path)

    def scan():
        sizes = [len(batch.records) for batch in source.record_batches()]
        assert sizes[1] == 50_000

    # the bytes read, plus the string table decoded once for its UTF-8 check
    assert _peak_bytes(scan) < 1.5 * len(large_payload)
