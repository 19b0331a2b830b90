"""Unit tests for the darshan-parser text codec."""

import pytest

from repro.darshan import TraceFormatError
from repro.darshan.io_text import dumps_text, load_text, loads_text, save_text

from tests.conftest import make_record, make_trace


@pytest.fixture
def trace():
    return make_trace(
        [
            make_record(101, 0, read=(0.0, 10.0, 1 << 20), opens=2, seeks=1),
            make_record(202, -1, write=(50.0, 60.0, 5 << 20)),
        ],
        exe="textcodec.exe",
        run_time=500.0,
    )


class TestTextCodec:
    def test_roundtrip(self, trace):
        again = loads_text(dumps_text(trace))
        assert again.meta == trace.meta
        assert again.records == trace.records

    def test_file_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.darshan.txt"
        save_text(trace, path)
        assert load_text(path).records == trace.records

    def test_header_lines_present(self, trace):
        text = dumps_text(trace)
        assert "# jobid: 1" in text
        assert "# nprocs: 8" in text
        assert "# exe: textcodec.exe" in text

    def test_counter_lines_use_darshan_names(self, trace):
        text = dumps_text(trace)
        assert "POSIX_BYTES_READ" in text
        assert "POSIX_F_WRITE_END_TIMESTAMP" in text

    def test_unknown_counters_ignored(self, trace):
        text = dumps_text(trace)
        text += "POSIX\t0\t101\tPOSIX_FASTEST_RANK\t3\tf101.dat\n"
        again = loads_text(text)
        assert again.records == trace.records

    def test_other_modules_ignored(self, trace):
        text = dumps_text(trace)
        text += "MPI-IO\t0\t101\tMPIIO_INDEP_OPENS\t5\tf101.dat\n"
        assert loads_text(text).records == trace.records

    def test_space_separated_lines_accepted(self, trace):
        text = dumps_text(trace).replace("\t", "  ")
        # file names without spaces survive whitespace splitting
        again = loads_text(text)
        assert len(again.records) == 2

    def test_missing_header_rejected(self, trace):
        text = "\n".join(
            l for l in dumps_text(trace).splitlines() if "nprocs" not in l
        )
        with pytest.raises(TraceFormatError, match="nprocs"):
            loads_text(text)

    def test_malformed_record_line_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("# exe: x\n# uid: 1\n# jobid: 1\n# start_time: 0\n"
                       "# end_time: 1\n# nprocs: 1\nPOSIX broken\n")

    def test_bad_value_rejected(self, trace):
        text = dumps_text(trace)
        text += "POSIX\t0\t101\tPOSIX_OPENS\tnot_a_number\tf.dat\n"
        with pytest.raises(TraceFormatError):
            loads_text(text)

    def test_counter_past_2_53_roundtrips_exactly(self, trace):
        # a float parse would read 2**53 + 1 as 2**53
        trace.records[0].bytes_read = 2**53 + 1
        trace.meta.job_id = 2**63 - 1
        again = loads_text(dumps_text(trace))
        assert again.records[0].bytes_read == 2**53 + 1
        assert again.meta.job_id == 2**63 - 1

    @pytest.mark.parametrize("value", ["1.5", "nan", "inf", str(2**63)])
    def test_counter_no_int64_column_holds_rejected(self, trace, value):
        text = dumps_text(trace)
        text += f"POSIX\t0\t101\tPOSIX_OPENS\t{value}\tf.dat\n"
        with pytest.raises(TraceFormatError, match="POSIX_OPENS"):
            loads_text(text)

    def test_integral_float_counter_reads_as_its_integer(self, trace):
        text = dumps_text(trace).replace("POSIX_OPENS\t2\t", "POSIX_OPENS\t2.0\t")
        assert "POSIX_OPENS\t2.0\t" in text
        opens = loads_text(text).records[0].opens
        assert (type(opens), opens) == (int, 2)

    def test_empty_trace(self):
        trace = make_trace([])
        assert loads_text(dumps_text(trace)).records == []
