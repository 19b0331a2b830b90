"""Property tests: compile → reattach → decode is bit-for-bit lossless.

The columnar store is only allowed to exist because nothing survives the
round trip changed: every decodable input trace must come back from
``decode_trace`` with identical metadata, records, operation arrays and
metadata columns (whose binned rate equals the stream path's) — over both the calibrated synthetic
fleet and whatever decodable payloads survive the adversarial fuzz
corpus under ``tests/fuzz/corpus/``.
"""

import os
import pathlib
import shutil
import struct

import numpy as np
import pytest

from repro.columnar import attach, compile_corpus
from repro.columnar.format import header_size, unpack_header
from repro.core.metadata import metadata_rate
from repro.darshan import DirectorySource, save_binary
from repro.darshan.errors import TraceFormatError
from repro.kernels.batched import bin_events_segmented
from repro.synth import FleetConfig, generate_fleet
from repro.testing.metadata import oracle_rate

FUZZ_CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "fuzz" / "corpus"


def _assert_traces_identical(decoded, original):
    assert decoded.meta == original.meta
    assert decoded.records == original.records
    for direction in ("read", "write"):
        got = decoded.operations(direction)
        want = original.operations(direction)
        # bitwise, not approx: the store maps the original float slabs
        assert np.array_equal(got.starts, want.starts)
        assert np.array_equal(got.ends, want.ends)
        assert np.array_equal(got.volumes, want.volumes)


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    """Synthetic fleet (with its corrupted tail) compiled to a store."""
    base = tmp_path_factory.mktemp("roundtrip")
    fleet = generate_fleet(FleetConfig(n_apps=40, mean_runs=3.0, seed=7))
    trace_dir = base / "traces"
    trace_dir.mkdir()
    for trace in fleet.traces:
        save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
    store_path = base / "corpus.mosc"
    report = compile_corpus(DirectorySource(trace_dir), store_path)
    return DirectorySource(trace_dir), store_path, report


class TestSyntheticRoundtrip:
    def test_compile_accounting(self, fleet_store):
        source, _path, report = fleet_store
        refs = list(source.refs())
        assert report.n_input == len(refs)
        assert report.n_unreadable == 0
        assert report.n_traces == len(refs)

    def test_reattach_hits_process_cache(self, fleet_store):
        _source, path, _report = fleet_store
        assert attach(path, verify=True) is attach(path, verify=True)

    def test_in_place_rewrite_same_second_invalidates_cache(self, tmp_path):
        """Regression: the attach cache must key on ``st_mtime_ns``.

        A same-size in-place rewrite landing within one wall-clock
        second of the original leaves inode, size, and whole-second
        ``st_mtime`` unchanged — only the nanosecond field moves.  A
        cache keyed on whole seconds serves the warm worker a stale
        mapping; the ns key must miss and reattach.
        """
        fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=1.0, seed=11))
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        for trace in fleet.traces:
            save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
        path = str(tmp_path / "corpus.mosc")
        compile_corpus(DirectorySource(trace_dir), path)

        # Pin a known whole-second timestamp, then warm the cache.
        base_ns = 1_700_000_000 * 10**9
        os.utime(path, ns=(base_ns, base_ns))
        store = attach(path, verify=False)
        assert attach(path, verify=False) is store  # cache is warm

        # Rewrite one ops_volumes float in place: same inode, same size.
        with open(path, "rb") as fh:
            header = unpack_header(fh.read(header_size()))
        vol_off, vol_nbytes, _crc = header["sections"]["ops_volumes"]
        assert vol_nbytes >= 8, "fleet store must contain operations"
        with open(path, "r+b") as fh:
            fh.seek(vol_off)
            (old_vol,) = struct.unpack("<d", fh.read(8))
            fh.seek(vol_off)
            fh.write(struct.pack("<d", old_vol + 1.0))
        # Same whole second as the original mtime, one nanosecond later:
        # exactly the window a seconds-granular key cannot see.
        os.utime(path, ns=(base_ns, base_ns + 1))
        st = os.stat(path)
        assert int(st.st_mtime) == base_ns // 10**9

        fresh = attach(path, verify=False)
        assert fresh is not store, "stale mapping served after rewrite"
        assert float(fresh.ops_volumes[0]) == old_vol + 1.0

    def test_decode_bit_for_bit(self, fleet_store):
        source, path, _report = fleet_store
        store = attach(path, verify=True)
        for row, ref in enumerate(source.refs()):
            _assert_traces_identical(store.decode_trace(row), source.load(ref))

    def test_metadata_events_match_decoded_trace(self, fleet_store):
        # Per row: the store's record columns are the decoded trace's,
        # and the store-path rate (one segment of the closed-form
        # kernel) equals the stream-path rate and the expansion oracle.
        _source, path, _report = fleet_store
        store = attach(path, verify=True)
        for row in range(store.n_traces):
            *columns, offsets = store.metadata_events_batch([row])
            trace = store.decode_trace(row)
            assert list(offsets) == [0, len(trace.records)]
            for got, want in zip(columns, trace.metadata_columns()):
                assert np.array_equal(got, want, equal_nan=True)
            run_time = max(trace.meta.run_time, 1.0)
            values, _ = bin_events_segmented(
                *columns, offsets, [run_time], 1.0
            )
            rate = metadata_rate(trace, 1.0)
            assert np.array_equal(values, rate)
            assert np.array_equal(rate, oracle_rate(trace, 1.0))

    def test_metadata_events_batch_matches_per_row(self, fleet_store):
        # One batched dispatch over every row: each row's bin slice is
        # the per-row stream-path rate — segment walls are hard.
        _source, path, _report = fleet_store
        store = attach(path, verify=True)
        rows = list(range(store.n_traces))
        *columns, offsets = store.metadata_events_batch(rows)
        assert len(offsets) == len(rows) + 1
        assert offsets[-1] == len(columns[0])
        assert all(len(c) == offsets[-1] for c in columns)
        traces = [store.decode_trace(row) for row in rows]
        run_times = [max(t.meta.run_time, 1.0) for t in traces]
        values, bin_offsets = bin_events_segmented(
            *columns, offsets, run_times, 1.0
        )
        for i, trace in enumerate(traces):
            for got, want in zip(columns, trace.metadata_columns()):
                assert np.array_equal(
                    got[offsets[i] : offsets[i + 1]], want, equal_nan=True
                )
            got = values[bin_offsets[i] : bin_offsets[i + 1]]
            assert np.array_equal(got, metadata_rate(trace, 1.0))


class TestFuzzCorpusSurvivors:
    """The adversarial fuzz corpus, compiled like any other drop-box.

    Most payloads are intentionally unreadable — those must be *counted*
    (``n_unreadable``), and every payload that does decode must survive
    the store round trip bit-for-bit, however mangled its contents.
    """

    # fuzz corpus files are stored suffix-less; map each modality onto
    # the suffix DirectorySource dispatches on
    MODALITIES = {"binary": ".mosd", "json": ".json", "text": ".darshan.txt"}

    @pytest.fixture(scope="class")
    def fuzz_store(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz-roundtrip")
        trace_dir = base / "traces"
        trace_dir.mkdir()
        n_files = 0
        for modality, suffix in self.MODALITIES.items():
            for src in sorted((FUZZ_CORPUS_DIR / modality).iterdir()):
                shutil.copy(src, trace_dir / f"{modality}__{src.stem}{suffix}")
                n_files += 1
        assert n_files > 0, "fuzz corpus is empty — nothing to test"
        # salt the hostile drop-box with known-good traces so the
        # survivor round trip is never vacuously empty
        fleet = generate_fleet(FleetConfig(n_apps=20, mean_runs=1.0, seed=5))
        for trace in fleet.traces:
            save_binary(trace, trace_dir / f"ok{trace.meta.job_id:08d}.mosd")
            n_files += 1
        source = DirectorySource(trace_dir)
        store_path = base / "fuzz.mosc"
        report = compile_corpus(source, store_path)
        return source, store_path, report, n_files

    def _survivors(self, source):
        out = []
        for ref in source.refs():
            try:
                out.append(source.load(ref))
            except TraceFormatError:
                continue
        return out

    def test_unreadables_counted_not_stored(self, fuzz_store):
        source, _path, report, n_files = fuzz_store
        survivors = self._survivors(source)
        assert report.n_input == n_files
        assert report.n_traces == len(survivors)
        assert report.n_unreadable == n_files - len(survivors)
        assert report.n_unreadable > 0, (
            "adversarial corpus unexpectedly decoded in full"
        )

    def test_survivors_roundtrip_bit_for_bit(self, fuzz_store):
        source, path, _report, _n = fuzz_store
        survivors = self._survivors(source)
        assert survivors, "expected at least the salted-in valid traces"
        store = attach(path, verify=True)
        assert store.n_traces == len(survivors)
        for row, original in enumerate(survivors):
            _assert_traces_identical(store.decode_trace(row), original)


class TestDegenerateCorpora:
    def test_zero_survivor_corpus_still_attaches(self, tmp_path):
        """A drop-box where *nothing* decodes must still compile to a
        valid (empty) store — the empty tail sections once left the file
        shorter than its declared geometry."""
        (tmp_path / "junk.mosd").write_bytes(b"\x00" * 64)
        store_path = tmp_path / "empty.mosc"
        report = compile_corpus(DirectorySource(tmp_path), store_path)
        assert report.n_traces == 0
        assert report.n_unreadable == 1
        store = attach(store_path, verify=True)
        assert store.n_traces == 0
        assert store.n_unreadable == 1
