"""Unit tests for the lazy trace-source layer."""

import pytest

from repro.darshan import (
    DirectorySource,
    InMemorySource,
    SyntheticSource,
    TraceFormatError,
    save_binary,
    save_json,
    save_text,
)
from repro.synth import FleetConfig

from tests.conftest import make_record, make_trace


def _trace(job_id: int, uid: int = 100, exe: str = "app.exe"):
    return make_trace(
        [make_record(1, 0, read=(0.0, 10.0, 1 << 20))],
        job_id=job_id,
        uid=uid,
        exe=exe,
    )


class TestDirectorySource:
    def test_discovers_all_formats_sorted(self, tmp_path):
        save_binary(_trace(1), tmp_path / "a.mosd")
        save_json(_trace(2), tmp_path / "b.json")
        save_text(_trace(3), tmp_path / "c.darshan.txt")
        (tmp_path / "notes.txt").write_text("not a trace")
        source = DirectorySource(tmp_path)
        refs = list(source.refs())
        assert [str(r.key).rsplit("/", 1)[-1] for r in refs] == [
            "a.mosd", "b.json", "c.darshan.txt",
        ]
        assert [source.load(r).meta.job_id for r in refs] == [1, 2, 3]

    @pytest.mark.parametrize("suffix", [".mosd", ".json"])
    def test_file_deleted_while_refs_are_consumed(self, tmp_path, suffix):
        for i in range(3):
            save = save_binary if suffix == ".mosd" else save_json
            save(_trace(i + 1), tmp_path / f"j{i}{suffix}")
        source = DirectorySource(tmp_path)
        refs = source.refs()
        first = next(refs)
        (tmp_path / f"j2{suffix}").unlink()
        rest = list(refs)
        assert [r.size_bytes > 0 for r in [first, *rest]] == [True, True, False]
        with pytest.raises(TraceFormatError):
            source.load(rest[-1])

    def test_batch_ref_sizes_come_from_the_opened_files(self, tmp_path):
        save_binary(_trace(1), tmp_path / "a.mosd")
        save_json(_trace(2), tmp_path / "b.json")
        (tmp_path / "c.mosd").write_bytes(b"MOSD")
        source = DirectorySource(tmp_path)
        # a batch holds MOSD files only or other formats only
        batches = list(source.record_batches())
        assert [len(b) for b in batches] == [1, 1, 1]
        assert [r for b in batches for r in b.refs] == list(source.refs())
        assert [b.unreadable.tolist() for b in batches] == [[False], [False], [True]]
        assert [b.job_id for b in batches] == [[1], [2], [0]]
        metas = [m for b in batches for m in b.metas]
        assert [m.job_id if m else None for m in metas] == [1, 2, None]

    def test_manifest_json_skipped(self, tmp_path):
        save_json(_trace(1), tmp_path / "t.json")
        (tmp_path / "manifest.json").write_text("{}")
        assert DirectorySource(tmp_path).count() == 1

    def test_refs_are_reiterable_and_deterministic(self, tmp_path):
        for i in range(5):
            save_binary(_trace(i + 1), tmp_path / f"j{i}.mosd")
        source = DirectorySource(tmp_path)
        first = [r.key for r in source.refs()]
        second = [r.key for r in source.refs()]
        assert first == second and len(first) == 5

    def test_bytes_read_accumulates(self, tmp_path):
        save_binary(_trace(1), tmp_path / "t.mosd")
        source = DirectorySource(tmp_path)
        assert source.bytes_read == 0
        (ref,) = source.refs()
        assert ref.size_bytes > 0
        source.load(ref)
        assert source.bytes_read == ref.size_bytes
        source.load(ref)
        assert source.bytes_read == 2 * ref.size_bytes

    def test_peek_meta_mosd_reads_header_only(self, tmp_path):
        trace = _trace(17, uid=321, exe="peeked.exe")
        save_binary(trace, tmp_path / "t.mosd")
        source = DirectorySource(tmp_path)
        (ref,) = source.refs()
        meta = source.peek_meta(ref)
        assert (meta.job_id, meta.uid, meta.exe) == (17, 321, "peeked.exe")
        # header peek never pays for the record section
        assert source.bytes_read == 0

    def test_unreadable_payload_raises_format_error(self, tmp_path):
        (tmp_path / "bad.mosd").write_bytes(b"XXXXgarbage")
        source = DirectorySource(tmp_path)
        (ref,) = source.refs()
        with pytest.raises(TraceFormatError):
            source.load(ref)

    def test_missing_directory_raises_format_error(self, tmp_path):
        source = DirectorySource(tmp_path / "absent")
        with pytest.raises(TraceFormatError):
            list(source.refs())

    def test_iteration_yields_traces(self, tmp_path):
        save_binary(_trace(1), tmp_path / "a.mosd")
        save_binary(_trace(2), tmp_path / "b.mosd")
        assert [t.meta.job_id for t in DirectorySource(tmp_path)] == [1, 2]


class TestInMemorySource:
    def test_round_trip(self):
        traces = [_trace(1), _trace(2)]
        source = InMemorySource(traces)
        assert source.count() == 2
        loaded = [source.load(r) for r in source.refs()]
        assert loaded[0] is traces[0] and loaded[1] is traces[1]

    def test_duplicate_traces_stay_distinct(self):
        t = _trace(1)
        source = InMemorySource([t, t])
        assert len({r.key for r in source.refs()}) == 2


class TestSyntheticSource:
    def test_construction_is_lazy(self):
        source = SyntheticSource(FleetConfig(n_apps=40, mean_runs=1.0, seed=1))
        assert source._fleet is None  # nothing generated yet
        assert source.count() > 0
        assert source._fleet is not None

    def test_fleet_generated_once_and_exposed(self):
        source = SyntheticSource(FleetConfig(n_apps=40, mean_runs=1.0, seed=1))
        fleet = source.fleet
        assert source.fleet is fleet
        refs = list(source.refs())
        assert len(refs) == fleet.n_input
        assert source.load(refs[0]) is fleet.traces[0]
        assert fleet.truth  # ground truth rides along for accuracy runs
