"""Unit tests for Trace and OperationArray."""

import numpy as np
import pytest

from repro.darshan import OperationArray, Trace
from repro.darshan.trace import metadata_windows
from repro.testing.metadata import metadata_events

from tests.conftest import make_record, make_trace, ops


class TestOperationArray:
    def test_sorts_by_start(self):
        arr = ops((5.0, 6.0, 1.0), (1.0, 2.0, 2.0))
        assert arr.starts[0] == 1.0
        assert arr.volumes[0] == 2.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OperationArray(np.zeros(2), np.zeros(2), np.zeros(3))

    def test_total_volume_and_busy_time(self):
        arr = ops((0.0, 2.0, 10.0), (4.0, 5.0, 5.0))
        assert arr.total_volume == 15.0
        assert arr.busy_time == 3.0

    def test_empty(self):
        arr = OperationArray.empty()
        assert arr.is_empty() and len(arr) == 0
        assert arr.total_volume == 0.0

    def test_iteration_yields_tuples(self):
        arr = ops((0.0, 1.0, 3.0))
        assert list(arr) == [(0.0, 1.0, 3.0)]

    def test_clipped_scales_volume_pro_rata(self):
        arr = ops((0.0, 10.0, 100.0))
        clipped = arr.clipped(5.0, 10.0)
        assert len(clipped) == 1
        assert clipped.volumes[0] == pytest.approx(50.0)

    def test_clipped_drops_fully_outside(self):
        arr = ops((0.0, 1.0, 5.0), (8.0, 9.0, 7.0))
        clipped = arr.clipped(2.0, 7.0)
        assert len(clipped) == 0


class TestTraceOperations:
    def test_operations_split_by_direction(self):
        trace = make_trace(
            [
                make_record(1, 0, read=(0.0, 10.0, 100)),
                make_record(2, 1, write=(20.0, 30.0, 50)),
            ]
        )
        reads = trace.operations("read")
        writes = trace.operations("write")
        assert len(reads) == 1 and reads.total_volume == 100
        assert len(writes) == 1 and writes.total_volume == 50

    def test_totals(self):
        trace = make_trace(
            [
                make_record(1, 0, read=(0.0, 1.0, 10), write=(2.0, 3.0, 20)),
                make_record(2, 1, write=(4.0, 5.0, 30)),
            ]
        )
        assert trace.total_bytes_read == 10
        assert trace.total_bytes_written == 50
        assert trace.total_bytes == 60

    def test_io_weight_includes_metadata(self):
        t1 = make_trace([make_record(1, 0, read=(0.0, 1.0, 10), opens=0)])
        t2 = make_trace([make_record(1, 0, read=(0.0, 1.0, 10), opens=50)])
        assert t2.io_weight() > t1.io_weight()

    def test_zero_duration_window_gets_min_duration(self):
        trace = make_trace([make_record(1, 0, read=(5.0, 5.0, 10))])
        reads = trace.operations("read")
        assert reads.ends[0] > reads.starts[0]

    def test_dict_roundtrip(self):
        trace = make_trace([make_record(1, 0, read=(0.0, 1.0, 10))])
        again = Trace.from_dict(trace.to_dict())
        assert again.meta == trace.meta
        assert again.records == trace.records


class TestMetadataEvents:
    def test_single_open_places_events_at_window_edges(self):
        trace = make_trace([make_record(1, 0, read=(10.0, 20.0, 100), opens=1, seeks=1)])
        times, counts = metadata_events(trace)
        # opens+seeks at open_start, closes at close_end
        assert times[0] == pytest.approx(10.0)
        assert counts.sum() == pytest.approx(3.0)

    def test_many_opens_spread_over_window(self):
        rec = make_record(1, 0, read=(0.0, 100.0, 100), opens=50)
        trace = make_trace([rec])
        times, counts = metadata_events(trace)
        assert counts.sum() == pytest.approx(rec.metadata_ops)
        assert times.min() >= 0.0 and times.max() <= 100.0
        # spread, not a single point
        assert len(np.unique(np.floor(times / 10.0))) > 5

    def test_no_metadata(self):
        trace = make_trace([make_record(1, 0, read=(0.0, 1.0, 10), opens=0)])
        times, counts = metadata_events(trace)
        assert len(times) == 0 and len(counts) == 0

    def test_times_sorted(self):
        trace = make_trace(
            [
                make_record(1, 0, read=(50.0, 60.0, 10)),
                make_record(2, 0, read=(0.0, 5.0, 10)),
            ]
        )
        times, _ = metadata_events(trace)
        assert np.all(np.diff(times) >= 0)


class TestMetadataColumns:
    def test_columns_carry_window_and_counters(self):
        rec = make_record(1, 0, read=(10.0, 20.0, 100), opens=3, seeks=2)
        t0, t1, opens, n_open, n_close = make_trace([rec]).metadata_columns()
        assert (t0[0], t1[0]) == (rec.open_start, rec.close_end)
        assert (opens[0], n_open[0], n_close[0]) == (3, 5, rec.closes)

    def test_missing_open_falls_back_to_first_read(self):
        t0, t1 = metadata_windows(
            np.array([-1.0, -1.0]), np.array([30.0, -1.0]), np.array([12.5, -1.0])
        )
        assert list(t0) == [12.5, 0.0]
        # a missing close collapses the window onto t0
        assert list(t1) == [30.0, 0.0]

    def test_inverted_window_is_swapped(self):
        t0, t1 = metadata_windows(
            np.array([40.0]), np.array([10.0]), np.array([-1.0])
        )
        assert (t0[0], t1[0]) == (10.0, 40.0)

    def test_empty_trace(self):
        columns = make_trace([]).metadata_columns()
        assert [len(c) for c in columns] == [0] * 5
