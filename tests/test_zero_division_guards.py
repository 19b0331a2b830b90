"""Regression tests for zero-duration / zero-byte edge cases.

Lint rule MOS005 demands every division by a duration or byte count be
guarded; these tests pin the *behavior* of those guards across the
modules that divide most — empty windows, instantaneous operations, and
zero-volume traces are data at corpus scale, not errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.accuracy import wilson_interval
from repro.analysis.stats import category_shares, periodicity_table
from repro.cluster.bandwidth import estimate_bandwidth
from repro.darshan.statistics import TraceSummary
from repro.darshan.tolerance import TIME_TOLERANCE_S, close_to
from repro.darshan.trace import OperationArray
from repro.interference.profiles import IOProfile
from repro.kernels import get_backend
from repro.segment.op_segments import segment_operations
from repro.viz.timeline import render_ops_lane


def _summary(**overrides) -> TraceSummary:
    base = dict(
        job_id=1,
        uid=100,
        exe="app.exe",
        nprocs=8,
        run_time=1000.0,
        n_records=1,
        n_files=1,
        bytes_read=0,
        bytes_written=0,
        reads=0,
        writes=0,
        metadata_ops=0,
        read_time=0.0,
        write_time=0.0,
        meta_time=0.0,
        ranks_doing_io=0,
    )
    base.update(overrides)
    return TraceSummary(**base)


class TestTraceSummaryZeroDenominators:
    def test_io_time_fraction_zero_runtime(self):
        s = _summary(run_time=0.0, read_time=5.0)
        assert s.io_time_fraction == 0.0

    def test_io_time_fraction_zero_nprocs(self):
        s = _summary(nprocs=0, read_time=5.0)
        assert s.io_time_fraction == 0.0

    def test_mean_sizes_with_no_operations(self):
        s = _summary(bytes_read=0, reads=0, bytes_written=0, writes=0)
        assert s.mean_read_size == 0.0
        assert s.mean_write_size == 0.0


class TestBandwidthDegenerateInputs:
    def test_empty_input(self):
        assert estimate_bandwidth(np.empty((0, 2))) == 0.0

    def test_single_point(self):
        assert estimate_bandwidth(np.array([[1.0, 2.0]])) == 0.0

    def test_identical_points(self):
        X = np.ones((10, 2))
        assert estimate_bandwidth(X) == 0.0


class TestStatsEmptyCorpus:
    def test_category_shares_empty(self):
        shares = category_shares([], [])
        assert shares.n_apps == 0
        assert shares.n_runs == 0
        assert all(v == 0.0 for v in shares.single_run.values())
        assert all(v == 0.0 for v in shares.all_runs.values())

    def test_periodicity_table_empty(self):
        table = periodicity_table([], [])
        assert table["single_run"]["periodic"] == 0.0
        assert table["all_runs"]["non_periodic"] == 0.0


class TestWilsonInterval:
    def test_zero_samples(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_bounds_stay_in_unit_interval(self):
        lo, hi = wilson_interval(1, 1)
        assert 0.0 <= lo <= hi <= 1.0


class TestInstantaneousWindows:
    def test_render_ops_lane_zero_runtime(self):
        ops = OperationArray.from_tuples([(0.0, 0.0, 100.0)])
        lane = render_ops_lane(ops, run_time=0.0, width=20)
        assert "|....................|" in lane

    def test_segment_activity_rate_instantaneous_segment(self):
        # two ops closer than clock resolution: the first segment is
        # "instantaneous" and must read as fully busy, not divide by ~0
        ops = OperationArray.from_tuples(
            [(10.0, 10.0, 50.0), (10.0 + TIME_TOLERANCE_S / 10, 20.0, 50.0)]
        )
        segments = segment_operations(ops, run_time=100.0)
        rates = segments.activity_rates
        assert np.all(np.isfinite(rates))
        assert rates[0] == 1.0

    def test_demand_series_rejects_nonpositive_bins(self):
        profile = IOProfile(name="j", run_time=100.0)
        with pytest.raises(ValueError):
            profile.demand_series(n_bins=0)


class TestToleranceComparison:
    def test_close_to_within_clock_resolution(self):
        assert close_to(1.0, 1.0 + TIME_TOLERANCE_S / 2)
        assert not close_to(1.0, 1.0 + TIME_TOLERANCE_S * 10)

    def test_close_to_vectorized(self):
        a = np.array([0.0, 1.0])
        b = np.array([TIME_TOLERANCE_S / 2, 2.0])
        assert list(close_to(a, b)) == [True, False]

    def test_overlap_groups_subresolution_gap_merges(self):
        starts = np.array([0.0, 1.0 + TIME_TOLERANCE_S / 10])
        ends = np.array([1.0, 2.0])
        groups = get_backend().overlap_groups(starts, ends, np.array([0, 2]))
        assert list(groups) == [0, 0]

    def test_overlap_groups_real_gap_splits(self):
        starts = np.array([0.0, 1.5])
        ends = np.array([1.0, 2.0])
        groups = get_backend().overlap_groups(starts, ends, np.array([0, 2]))
        assert list(groups) == [0, 1]
