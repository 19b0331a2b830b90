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

import repro.darshan.source as source_module
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
    """Make every ``os.readv`` (what the readers read through) return at
    most ``most`` bytes, as a network or parallel filesystem may."""
    real = os.readv
    monkeypatch.setattr(
        os, "readv", lambda fd, buffers: real(fd, [memoryview(buffers[0])[:most]])
    )


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
    # across batch boundaries too, where a file is read on in a new buffer
    monkeypatch.setattr(source_module, "BATCH_BYTES", 4_000)
    assert scanned() == whole


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


def _utf8_payloads() -> list[bytes]:
    """Valid multi-byte strings in every string field, and each field
    broken in turn, among ASCII neighbours."""
    records = [make_record(1, 0, read=(1.0, 2.0, 10)), make_record(2, 0)]
    records[0].file_name, records[1].file_name = "données.h5", "日誌.log"
    trace = make_trace(records, exe="café.exe")
    trace.meta.machine, trace.meta.partition = "bluewaters-é", "normal-ü"
    payload = dumps_binary(trace)
    fields = [b"caf\xc3\xa9", b"bluewaters-\xc3\xa9", b"normal-\xc3\xbc", b"donn\xc3\xa9"]
    broken = []
    for field in fields:  # a lone continuation byte, then a cut sequence
        at = payload.index(field) + len(field) - 2
        broken.append(payload[:at] + b"\x80" + payload[at + 1 :])
        broken.append(payload[: at + 1] + b"A" + payload[at + 2 :])
    ascii_ = dumps_binary(make_trace([make_record(1, 0)]))
    out = []
    for variant in [payload, *broken]:
        out += [ascii_, variant]
    return out + [ascii_]


def test_multibyte_and_broken_strings_match_parse_binary():
    payloads = _utf8_payloads()
    n_ok = _assert_rows_match(payloads, DecodeLimits())
    assert n_ok == len(payloads) - 8  # only the broken variants refused
    cols = parse_payloads(payloads)
    assert (cols.exe[1], cols.machine[1], cols.partition[1]) == (
        "café.exe", "bluewaters-é", "normal-ü"
    )
    assert cols.tables[1].split("\x00") == ["données.h5", "日誌.log"]


def _write(tmp_path, payloads) -> list:
    paths = []
    for i, payload in enumerate(payloads):
        path = tmp_path / f"t{i:03d}.mosd"
        path.write_bytes(payload)
        paths.append(path)
    return paths


def _rows(batches) -> list[tuple]:
    """Every ref of some batches, with everything the batch says of it."""
    rows = []
    for batch in batches:
        ends = batch.counts.cumsum()
        for i, ref in enumerate(batch.refs):
            records = batch.records[ends[i] - batch.counts[i] : ends[i]]
            rows.append(
                (ref, bool(batch.unreadable[i]), repr(batch.metas[i]),
                 batch.file_names(i), records.tobytes())
            )
    return rows


def test_batches_held_at_once_keep_their_own_bytes(fleet_traces, fleet_payloads, tmp_path, monkeypatch):
    paths = _write(tmp_path, fleet_payloads)
    monkeypatch.setattr(source_module, "BATCH_BYTES", 20_000)
    source = DirectorySource(tmp_path)
    batches = list(source.record_batches())
    assert len(batches) > 3
    # every batch read after the first still reads as its files do
    rows = _rows(batches)
    assert [row[0].key for row in rows] == [str(p) for p in paths]
    for (ref, bad, meta, names, records), trace in zip(rows, fleet_traces):
        assert not bad and meta == repr(trace.meta)
        assert names == [r.file_name for r in trace.records]
        assert records == parse_binary(dumps_binary(trace)).records.tobytes()
    # each ref, built from its batch's columns, is the trace its file loads
    traces = [b.trace(i) for b in batches for i in range(len(b))]
    assert traces == [source.load(ref) for b in batches for ref in b.refs]


def _edit_after(monkeypatch, call: str, target, edit) -> None:
    """Apply ``edit`` to ``target`` right after ``os.<call>`` has run on
    it (``os.open``, by path or by name relative to its directory) or on
    its descriptor (``os.fstat``)."""
    real = getattr(os, call)
    opened = {}

    def patched(arg, *args, **kwargs):
        result = real(arg, *args, **kwargs)
        if call == "open" and os.path.basename(str(arg)) == target.name:
            edit(target)
        if call == "fstat" and opened.get(arg) == target.name:
            edit(target)
        return result

    if call == "fstat":
        real_open = os.open

        def open_(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            opened[fd] = os.path.basename(str(path))
            return fd

        monkeypatch.setattr(os, "open", open_)
    monkeypatch.setattr(os, call, patched)


@pytest.mark.parametrize("change", ["truncated", "grown"])
@pytest.mark.parametrize("when", ["open", "fstat"])
def test_a_file_changed_before_its_read_is_read_as_it_is_then(
    fleet_payloads, tmp_path, monkeypatch, change, when
):
    """``open``: a file within the budget left, read without an fstat;
    ``fstat``: one past it, measured before it is read on."""
    payloads = fleet_payloads[:5]
    paths = _write(tmp_path, payloads)
    if when == "fstat":
        monkeypatch.setattr(source_module, "BATCH_BYTES", len(payloads[0]) + 10)
    before = _rows(DirectorySource(tmp_path).record_batches())
    target = paths[2]
    now = payloads[2][: len(payloads[2]) // 2] if change == "truncated" else payloads[2] + payloads[3]

    def edit(path):
        with open(path, "r+b") as fh:
            fh.write(now)
            fh.truncate(len(now))

    _edit_after(monkeypatch, when, target, edit)
    after = _rows(DirectorySource(tmp_path).record_batches())
    assert after[:2] + after[3:] == before[:2] + before[3:]
    ref, bad, *_ = after[2]
    assert bad and ref.size_bytes == len(now)


@pytest.mark.parametrize("room", [0, 10])
def test_a_file_reporting_size_0_is_read_to_its_end(fleet_payloads, tmp_path, monkeypatch, room):
    """A regular file whose ``fstat`` reports 0 bytes (a stale size, a
    procfs-style file) past the budget left, with ``room`` bytes of the
    budget left, is still read whole."""
    payloads = fleet_payloads[:5]
    paths = _write(tmp_path, payloads)
    monkeypatch.setattr(source_module, "BATCH_BYTES", len(payloads[0]) + room)
    before = _rows(DirectorySource(tmp_path).record_batches())
    real = os.fstat

    def fstat(fd):
        st = real(fd)
        return os.stat_result((*st[:6], 0, *st[7:10]))

    monkeypatch.setattr(os, "fstat", fstat)
    assert read_payload(paths[1]) == payloads[1]
    after = _rows(DirectorySource(tmp_path).record_batches())
    assert after == before
    for (ref, bad, _, _, records), payload in zip(after, payloads):
        assert not bad and ref.size_bytes == len(payload)
        assert records == parse_binary(payload).records.tobytes()


def test_a_file_deleted_mid_batch_is_an_unreadable_row(fleet_payloads, tmp_path, monkeypatch):
    paths = _write(tmp_path, fleet_payloads[:6])
    source = DirectorySource(tmp_path)
    before = _rows(source.record_batches())
    _edit_after(monkeypatch, "open", paths[1], lambda _: paths[3].unlink())
    batches = list(source.record_batches())
    assert len(batches) == 1
    after = _rows(batches)
    ref, bad, meta, names, records = after[3]
    assert (ref.key, ref.size_bytes, bad, meta, names, records) == (
        str(paths[3]), 0, True, "None", [], b""
    )
    assert after[:3] + after[4:] == before[:3] + before[4:]
