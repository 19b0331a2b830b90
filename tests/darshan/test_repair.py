"""Unit tests for the per-``Trace`` repair heuristics (the oracle of
``repro.darshan.repair.repair_rows``)."""

import numpy as np
import pytest

from repro.darshan import is_valid
from repro.testing import repair_trace
from repro.synth import CORRUPTION_KINDS, corrupt_trace

from tests.conftest import make_record, make_trace


@pytest.fixture
def clean():
    return make_trace(
        [
            make_record(1, 0, read=(0.0, 100.0, 500_000_000)),
            make_record(2, 1, write=(500.0, 600.0, 200_000_000)),
        ]
    )


class TestRepairTrace:
    def test_valid_trace_untouched(self, clean):
        outcome = repair_trace(clean)
        assert outcome.repaired
        assert outcome.actions == []
        assert outcome.trace is clean

    def test_input_never_mutated(self, clean):
        rng = np.random.default_rng(0)
        bad = corrupt_trace(clean, rng, "inverted_window")
        snapshot = [r.read_start for r in bad.records]
        repair_trace(bad)
        assert [r.read_start for r in bad.records] == snapshot

    def test_inverted_window_swapped(self, clean):
        rng = np.random.default_rng(1)
        bad = corrupt_trace(clean, rng, "inverted_window")
        outcome = repair_trace(bad)
        assert outcome.repaired
        assert is_valid(outcome.trace)
        assert any("swap" in a for a in outcome.actions)

    def test_dealloc_before_end_extended(self, clean):
        rng = np.random.default_rng(2)
        bad = corrupt_trace(clean, rng, "dealloc_before_end")
        outcome = repair_trace(bad)
        assert outcome.repaired
        assert any("extend close" in a for a in outcome.actions)

    def test_negative_counter_drops_record(self, clean):
        rng = np.random.default_rng(3)
        bad = corrupt_trace(clean, rng, "negative_counter")
        outcome = repair_trace(bad)
        assert outcome.repaired
        assert outcome.n_dropped_records == 1
        assert len(outcome.trace.records) == 1

    def test_timestamp_overshoot_clamped_or_dropped(self, clean):
        rng = np.random.default_rng(4)
        bad = corrupt_trace(clean, rng, "timestamp_after_end")
        outcome = repair_trace(bad)
        assert outcome.repaired
        assert is_valid(outcome.trace)

    def test_negative_runtime_unrepairable(self, clean):
        rng = np.random.default_rng(5)
        bad = corrupt_trace(clean, rng, "negative_runtime")
        outcome = repair_trace(bad)
        assert not outcome.repaired
        assert "unrepairable" in outcome.actions[0]

    def test_repair_preserves_plausible_volume(self, clean):
        rng = np.random.default_rng(6)
        bad = corrupt_trace(clean, rng, "inverted_window")
        outcome = repair_trace(bad)
        assert outcome.trace.total_bytes == clean.total_bytes

    @pytest.mark.parametrize("kind", sorted(CORRUPTION_KINDS))
    def test_repair_rate_by_kind(self, clean, kind):
        """Every kind except the corrupt job header is recoverable."""
        rng = np.random.default_rng(7)
        outcome = repair_trace(corrupt_trace(clean, rng, kind))
        if kind == "negative_runtime":
            assert not outcome.repaired
        else:
            assert outcome.repaired, kind
