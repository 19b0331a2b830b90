"""Unit tests for the JSON and binary trace codecs."""

import pytest

from repro.darshan import (
    TraceFormatError,
    dumps,
    dumps_binary,
    load_binary,
    load_json,
    loads,
    loads_binary,
    save_binary,
    save_json,
)

from tests.conftest import make_record, make_trace


@pytest.fixture
def trace():
    return make_trace(
        [
            make_record(1, 0, read=(0.0, 10.0, 1 << 20), opens=2, seeks=1),
            make_record(2, -1, write=(50.0, 60.0, 5 << 20)),
        ],
        run_time=500.0,
        exe="codec-app.exe",
    )


class TestJsonCodec:
    def test_roundtrip(self, trace):
        again = loads(dumps(trace))
        assert again.meta == trace.meta
        assert again.records == trace.records

    def test_file_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.json"
        save_json(trace, path)
        assert load_json(path).records == trace.records

    def test_gzip_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.json.gz"
        save_json(trace, path)
        assert load_json(path).records == trace.records

    def test_malformed_json_rejected(self):
        with pytest.raises(TraceFormatError):
            loads("{not json")

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(TraceFormatError):
            loads('{"format": "something-else", "version": 1}')

    def test_wrong_version_rejected(self, trace):
        text = dumps(trace).replace('"version": 1', '"version": 99')
        with pytest.raises(TraceFormatError):
            loads(text)

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_json(tmp_path / "missing.json")


class TestBinaryCodec:
    def test_roundtrip(self, trace):
        again = loads_binary(dumps_binary(trace))
        assert again.meta == trace.meta
        assert again.records == trace.records

    def test_file_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.mosd"
        save_binary(trace, path)
        assert load_binary(path).records == trace.records

    def test_bad_magic_rejected(self, trace):
        payload = bytearray(dumps_binary(trace))
        payload[0:4] = b"XXXX"
        with pytest.raises(TraceFormatError):
            loads_binary(bytes(payload))

    def test_truncation_rejected(self, trace):
        payload = dumps_binary(trace)
        with pytest.raises(TraceFormatError):
            loads_binary(payload[: len(payload) - 10])

    def test_trailing_garbage_rejected(self, trace):
        with pytest.raises(TraceFormatError):
            loads_binary(dumps_binary(trace) + b"\x00")

    def test_empty_trace_roundtrip(self):
        trace = make_trace([])
        assert loads_binary(dumps_binary(trace)).records == []

    def test_binary_smaller_than_json(self, trace):
        assert len(dumps_binary(trace)) < len(dumps(trace).encode())


class TestBinaryCorruptionPaths:
    """Satellite corruption taxonomy: every way a MOSD payload can be cut
    short must surface as TraceFormatError (never struct.error or a
    half-built Trace), so streaming scans can count it as corruption."""

    @staticmethod
    def _sections(trace):
        """(payload, offsets) where offsets mark section boundaries."""
        from repro.darshan.io_binary import _COUNTS, _HEADER, _JOB

        payload = dumps_binary(trace)
        meta = trace.meta
        strings = (
            len(meta.exe.encode()) + len(meta.machine.encode())
            + len(meta.partition.encode())
        )
        table = "\x00".join(r.file_name for r in trace.records).encode()
        header_end = _HEADER.size
        job_end = header_end + _JOB.size + strings
        counts_end = job_end + _COUNTS.size
        table_end = counts_end + len(table)
        return payload, {
            "header_end": header_end,
            "job_end": job_end,
            "counts_end": counts_end,
            "table_end": table_end,
        }

    def test_truncated_magic_header(self, trace):
        payload, off = self._sections(trace)
        with pytest.raises(TraceFormatError, match="magic header"):
            loads_binary(payload[: off["header_end"] - 3])

    def test_truncated_job_header(self, trace):
        payload, off = self._sections(trace)
        with pytest.raises(TraceFormatError, match="job header"):
            loads_binary(payload[: off["header_end"] + 10])

    def test_truncated_job_strings(self, trace):
        payload, off = self._sections(trace)
        with pytest.raises(TraceFormatError, match="string"):
            loads_binary(payload[: off["job_end"] - 2])

    def test_truncated_string_table(self, trace):
        payload, off = self._sections(trace)
        assert off["table_end"] > off["counts_end"]
        with pytest.raises(TraceFormatError, match="string table"):
            loads_binary(payload[: off["counts_end"] + 1])

    def test_truncated_record_section(self, trace):
        payload, off = self._sections(trace)
        with pytest.raises(TraceFormatError, match="record"):
            loads_binary(payload[: off["table_end"] + 5])

    def test_missing_last_record(self, trace):
        from repro.darshan.io_binary import _RECORD

        payload, _ = self._sections(trace)
        # the hardened decoder refuses the lying record count up front,
        # before any record is allocated
        with pytest.raises(TraceFormatError, match="record section"):
            loads_binary(payload[: len(payload) - _RECORD.size])

    def test_every_single_byte_truncation_is_clean(self, trace):
        # exhaustive: no prefix of a valid payload may escape the codec's
        # error taxonomy or crash with anything but TraceFormatError
        payload = dumps_binary(trace)
        for cut in range(len(payload)):
            with pytest.raises(TraceFormatError):
                loads_binary(payload[:cut])


class TestRecordLayout:
    """``_RECORD`` (the writer's struct) and ``RECORD_DTYPE`` (the
    readers' array view) must describe the same 148 bytes."""

    def test_sizes_agree(self):
        from repro.darshan.io_binary import _RECORD, RECORD_DTYPE

        assert _RECORD.size == RECORD_DTYPE.itemsize == 148

    def test_packed_record_reads_back_field_by_field(self):
        import numpy as np

        from repro.darshan import FileRecord
        from repro.darshan.io_binary import RECORD_DTYPE, _pack_record

        names = RECORD_DTYPE.names
        # distinct, field-identifying values: a swapped or shifted field
        # reads back as some other field's value
        values = {
            name: (i + 1) * (2**33 + 7) for i, name in enumerate(names[:10])
        }
        values["rank"] = -12345
        values.update({name: (i + 1) * 1.25 for i, name in enumerate(names[10:])})
        rec = FileRecord(file_name="ignored", **values)
        row = np.frombuffer(_pack_record(rec), dtype=RECORD_DTYPE)[0]
        assert list(names) == [
            f for f in FileRecord.__dataclass_fields__ if f != "file_name"
        ]
        for name in names:
            got, want = row[name].item(), getattr(rec, name)
            assert got == want and type(got) is type(want), name
