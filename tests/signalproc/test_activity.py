"""Unit tests for activity-signal construction and the event-binning oracle."""

import numpy as np
import pytest

from repro.signalproc import build_activity_signal
from repro.testing.metadata import bin_events

from tests.conftest import ops


class TestBuildActivitySignal:
    def test_volume_conserved(self):
        arr = ops((0.0, 100.0, 500.0), (400.0, 450.0, 100.0))
        sig = build_activity_signal(arr, 1000.0, n_bins=100)
        assert sig.total == pytest.approx(600.0)

    def test_uniform_spread(self):
        arr = ops((0.0, 1000.0, 1000.0))
        sig = build_activity_signal(arr, 1000.0, n_bins=10)
        assert np.allclose(sig.values, 100.0)

    def test_instantaneous_burst_lands_in_one_bin(self):
        arr = ops((550.0, 550.0, 42.0))
        sig = build_activity_signal(arr, 1000.0, n_bins=10)
        assert sig.values[5] == pytest.approx(42.0)
        assert np.count_nonzero(sig.values) == 1

    def test_bin_width_mode(self):
        arr = ops((0.0, 10.0, 10.0))
        sig = build_activity_signal(arr, 100.0, bin_width=1.0)
        assert len(sig) == 100
        assert sig.bin_width == pytest.approx(1.0)

    def test_times_are_bin_centers(self):
        sig = build_activity_signal(ops(), 100.0, n_bins=4)
        assert sig.times().tolist() == [12.5, 37.5, 62.5, 87.5]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_activity_signal(ops(), 0.0)
        with pytest.raises(ValueError):
            build_activity_signal(ops(), 10.0, n_bins=4, bin_width=1.0)
        with pytest.raises(ValueError):
            build_activity_signal(ops(), 10.0, bin_width=0.0)

    def test_empty_ops(self):
        sig = build_activity_signal(ops(), 100.0, n_bins=10)
        assert sig.total == 0.0


class TestBinEvents:
    def test_counts_per_second(self):
        times = np.array([0.5, 0.9, 1.5, 10.2])
        counts = np.array([3.0, 2.0, 1.0, 5.0])
        rate = bin_events(times, counts, 20.0, 1.0)
        assert rate[0] == pytest.approx(5.0)
        assert rate[1] == pytest.approx(1.0)
        assert rate[10] == pytest.approx(5.0)
        assert rate.sum() == pytest.approx(11.0)

    def test_events_beyond_runtime_clip_to_last_bin(self):
        rate = bin_events(np.array([99.9, 150.0]), np.array([1.0, 1.0]), 100.0, 1.0)
        assert rate[-1] == pytest.approx(2.0)

    def test_empty(self):
        rate = bin_events(np.empty(0), np.empty(0), 100.0)
        assert rate.sum() == 0.0
        assert len(rate) == 100

    def test_invalid(self):
        with pytest.raises(ValueError):
            bin_events(np.empty(0), np.empty(0), -1.0)
        with pytest.raises(ValueError):
            bin_events(np.empty(0), np.empty(0), 10.0, 0.0)
