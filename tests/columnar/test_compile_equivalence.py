"""The batch compiler writes exactly the per-trace oracle's bytes.

``compile_corpus`` derives a store's rows from scan-batch arrays;
``repro.testing.columnar.compile_per_trace`` is the literal per-trace
loop it replaced.  Every corpus below must compile to identical
``.mosc`` bytes both ways, and ``verify_store`` (which recomputes every
per-trace CRC with ``trace_crc32``) must find nothing in the result.
"""

import dataclasses
import pathlib
import shutil

import pytest

from repro.cli.main import main
from repro.columnar import StoreOverflowError, attach, compile_corpus, verify_store
from repro.core.pipeline import run_pipeline_stream
from repro.darshan import (
    DirectorySource,
    FileRecord,
    InMemorySource,
    JobMeta,
    Trace,
    save_binary,
    save_json,
    save_text,
)
from repro.darshan.source import BATCH_BYTES
from repro.synth import FleetConfig, generate_fleet
from repro.testing.columnar import compile_per_trace

FUZZ_CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "fuzz" / "corpus"
SUFFIXES = {"binary": ".mosd", "json": ".json", "text": ".darshan.txt"}
SAVERS = {"binary": save_binary, "json": save_json, "text": save_text}


def _assert_same_store(make_source, tmp_path, **kwargs):
    """Compile ``make_source()`` both ways; return the batch store path."""
    batch = tmp_path / "batch.mosc"
    oracle = tmp_path / "oracle.mosc"
    report = compile_corpus(make_source(), batch, **kwargs)
    compile_per_trace(make_source(), oracle, **kwargs)
    assert batch.read_bytes() == oracle.read_bytes()
    verified = verify_store(str(batch))
    assert verified.clean, verified.findings
    return batch, report


@pytest.fixture(scope="module")
def fleet():
    """The calibrated fleet with its 32% corrupted tail."""
    return generate_fleet(FleetConfig(n_apps=40, mean_runs=2.0, seed=7)).traces


def _write(traces, directory, fmt="binary", prefix="job"):
    directory.mkdir(exist_ok=True)
    for trace in traces:
        name = f"{prefix}{trace.meta.job_id:08d}{SUFFIXES[fmt]}"
        SAVERS[fmt](trace, directory / name)


def _with_record(trace, i, **changes):
    records = list(trace.records)
    records[i] = dataclasses.replace(records[i], **changes)
    return dataclasses.replace(trace, records=records)


@pytest.mark.parametrize("repair", [False, True])
def test_corrupted_fleet_directory(fleet, tmp_path, repair):
    _write(fleet, tmp_path / "traces")
    path, report = _assert_same_store(
        lambda: DirectorySource(tmp_path / "traces"), tmp_path, repair=repair
    )
    assert report.n_traces == len(fleet)
    store = attach(str(path))
    assert store.compiled_with_repair is repair
    assert (store.index["violations"] != 0).any()


def test_fuzz_corpus_of_every_format(fleet, tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    for fmt, suffix in SUFFIXES.items():
        for src in sorted((FUZZ_CORPUS_DIR / fmt).iterdir()):
            shutil.copy(src, traces / f"{fmt}__{src.stem}{suffix}")
        # salted with readable traces of the same format
        _write(fleet[:6], traces, fmt, prefix=f"{fmt}__ok")
    _, report = _assert_same_store(lambda: DirectorySource(traces), tmp_path)
    assert report.n_unreadable > 0
    assert report.n_traces == 18


def test_mixed_formats_switch_batch_kind(fleet, tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    formats = list(SUFFIXES)
    for i, trace in enumerate(fleet[:30]):
        fmt = formats[(i // 2) % 3]  # runs of two files of each kind
        SAVERS[fmt](trace, traces / f"t{i:03d}{SUFFIXES[fmt]}")
    (traces / "t004x.mosd").write_bytes(b"MOSD junk")
    (traces / "t011x.json").write_text("{not json")
    _, report = _assert_same_store(lambda: DirectorySource(traces), tmp_path)
    assert (report.n_traces, report.n_unreadable) == (30, 2)


def test_in_memory_source_as_salvage_uses_it(fleet, tmp_path):
    traces = list(fleet)
    # values the MOSD record layout cannot hold: compiled per trace,
    # between rows compiled from the batch arrays
    traces[3] = _with_record(traces[3], 0, rank=2**40)
    traces[9] = _with_record(traces[9], 0, bytes_read=1.5)
    traces[12] = _with_record(traces[12], 0, file_name="nul\x00é")
    for kwargs in ({}, {"mark_repaired": True, "extra_unreadable": 5}):
        _assert_same_store(lambda: InMemorySource(traces), tmp_path, **kwargs)


def test_empty_directory(tmp_path):
    (tmp_path / "traces").mkdir()
    _, report = _assert_same_store(lambda: DirectorySource(tmp_path / "traces"), tmp_path)
    assert (report.n_traces, report.n_unreadable) == (0, 0)


def test_all_unreadable_directory(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    (traces / "a.mosd").write_bytes(b"\x00" * 64)
    (traces / "b.mosd").write_bytes(b"")
    (traces / "c.json").write_text("[]")
    _, report = _assert_same_store(lambda: DirectorySource(traces), tmp_path)
    assert (report.n_traces, report.n_unreadable) == (0, 3)


def test_trace_larger_than_a_batch(fleet, tmp_path):
    meta = JobMeta(job_id=1, uid=5, exe="big", nprocs=64, start_time=0.0, end_time=100.0)
    n = BATCH_BYTES // 148 + 50
    records = [
        FileRecord(
            file_id=i,
            file_name=f"/scratch/big/{i % 97}",
            rank=i % 64,
            opens=1,
            closes=1,
            bytes_read=4096 * (i % 3),
            open_start=i / n,
            close_end=50.0 + i / n,
            read_start=1.0 + (i * 7919 % n) / n,
            read_end=2.0,
        )
        for i in range(n)
    ]
    traces = tmp_path / "traces"
    _write(fleet[:3], traces)
    save_binary(Trace(meta=meta, records=records), traces / "job00000001x.mosd")
    _, report = _assert_same_store(lambda: DirectorySource(traces), tmp_path)
    assert report.n_records > n


def _overflowing_trace():
    meta = JobMeta(job_id=7, uid=1, exe="huge", nprocs=1, start_time=0.0, end_time=10.0)
    records = [
        FileRecord(
            file_id=i,
            file_name=f"f{i}",
            rank=0,
            opens=1,
            closes=1,
            bytes_read=2**62,
            open_start=0.0,
            close_end=9.0,
            read_start=1.0,
            read_end=2.0,
        )
        for i in range(9)
    ]
    return Trace(meta=meta, records=records)


def test_int64_total_overflow_is_a_typed_error(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    path = traces / "huge.mosd"
    save_binary(_overflowing_trace(), path)
    # the streaming pipeline sums in Python ints and categorizes it
    result = run_pipeline_stream(DirectorySource(traces))
    assert (len(result.results), result.preprocess.n_corrupted) == (1, 0)
    with pytest.raises(StoreOverflowError) as info:
        compile_corpus(DirectorySource(traces), tmp_path / "out.mosc")
    assert (info.value.key, info.value.field) == (str(path), "total_bytes")
    assert info.value.value == 9 * 2**62
    with pytest.raises(SystemExit) as exited:
        main(["compile", "--traces", str(traces), "--out", str(tmp_path / "cli.mosc")])
    message = str(exited.value.code)
    assert "\n" not in message and str(path) in message and "total_bytes" in message
    assert not (tmp_path / "cli.mosc").exists()


def test_int64_totals_exact_near_the_limit(tmp_path):
    """Sums whose bound passes 2**63 but whose totals fit, and invalid
    traces with large negative counters, are stored exactly."""
    fits = _overflowing_trace()
    fits = dataclasses.replace(
        fits, records=[fits.records[0]] + [dataclasses.replace(r, bytes_read=1) for r in fits.records[1:]]
    )
    negative = _overflowing_trace()
    negative = dataclasses.replace(
        negative,
        meta=dataclasses.replace(negative.meta, job_id=8),
        records=[dataclasses.replace(negative.records[0], bytes_read=-(2**63))]
        + [dataclasses.replace(r, bytes_read=2**59) for r in negative.records[1:]],
    )
    _write([fits, negative], tmp_path / "traces")
    path, _ = _assert_same_store(lambda: DirectorySource(tmp_path / "traces"), tmp_path)
    store = attach(str(path))
    assert store.index["total_bytes"].tolist() == [2**62 + 8, -(2**62)]
    assert store.index["violations"].tolist()[1] != 0


def _invalid_overflowing_trace():
    trace = _overflowing_trace()
    return dataclasses.replace(trace, meta=dataclasses.replace(trace.meta, nprocs=0))


@pytest.mark.parametrize(
    "trace, repair, field",
    [
        (_overflowing_trace(), False, "total_bytes"),
        # compiled per trace: flagged under repair, or beyond int64
        (_invalid_overflowing_trace(), True, "total_bytes"),
        (_with_record(_overflowing_trace(), 2, reads=2**64), False, "reads"),
    ],
)
def test_in_memory_overflow_names_the_ref(tmp_path, trace, repair, field):
    with pytest.raises(StoreOverflowError) as info:
        compile_corpus(InMemorySource([trace]), tmp_path / "out.mosc", repair=repair)
    assert (info.value.key, info.value.field) == (0, field)
