"""Unit tests for the deterministic chaos harness."""

import pickle

import pytest

from repro.core.preprocess import SelectedRef
from repro.darshan.source import TraceRef
from repro.testing.faults import (
    FAULT_CRASH,
    FAULT_FLAKY,
    FAULT_HANG,
    FAULT_NONE,
    ChaosInjector,
    item_key,
)


def _inner(x: int) -> int:
    return x + 100


class TestItemKey:
    def test_trace_like_objects_key_by_job_id(self):
        class Meta:
            job_id = 42

        class TraceLike:
            meta = Meta()

        assert item_key(TraceLike()) == "job:42"

    def test_selected_refs_key_by_job_id(self):
        # stream units ship refs; they key like the trace they name
        ref = SelectedRef(
            ref=TraceRef(key="/corpus/job42.mosd", size_bytes=10),
            job_id=42,
            app_key=(1, "app"),
            io_weight=1.0,
        )
        assert item_key(ref) == "job:42"

    def test_scalars_key_by_value(self):
        assert item_key(7) == "val:7"
        assert item_key("abc") == "val:abc"

    def test_fallback_is_stable(self):
        assert item_key((1, 2)) == item_key((1, 2))
        assert item_key((1, 2)) != item_key((1, 3))


class TestSchedule:
    def test_explicit_keys_take_precedence(self):
        chaos = ChaosInjector(
            inner=_inner,
            crash_keys=frozenset({"val:1"}),
            hang_keys=frozenset({"val:2"}),
            flaky_keys=frozenset({"val:3"}),
        )
        assert chaos.fault_for("val:1") == FAULT_CRASH
        assert chaos.fault_for("val:2") == FAULT_HANG
        assert chaos.fault_for("val:3") == FAULT_FLAKY
        assert chaos.fault_for("val:4") == FAULT_NONE

    def test_seeded_schedule_is_deterministic(self):
        a = ChaosInjector(inner=_inner, seed=7, crash_rate=0.3, flaky_rate=0.3)
        b = ChaosInjector(inner=_inner, seed=7, crash_rate=0.3, flaky_rate=0.3)
        keys = [f"val:{i}" for i in range(64)]
        assert [a.fault_for(k) for k in keys] == [b.fault_for(k) for k in keys]

    def test_different_seeds_differ(self):
        keys = [f"val:{i}" for i in range(64)]
        a = ChaosInjector(inner=_inner, seed=1, crash_rate=0.5)
        b = ChaosInjector(inner=_inner, seed=2, crash_rate=0.5)
        assert [a.fault_for(k) for k in keys] != [b.fault_for(k) for k in keys]

    def test_rates_partition_roughly(self):
        chaos = ChaosInjector(inner=_inner, seed=0, crash_rate=0.5)
        keys = [f"val:{i}" for i in range(256)]
        crashes = sum(chaos.fault_for(k) == FAULT_CRASH for k in keys)
        assert 64 < crashes < 192  # ~128 expected

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"hang_rate": 1.5},
            {"crash_rate": 0.6, "hang_rate": 0.6},
            {"hang_seconds": 0.0},
        ],
    )
    def test_rejects_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            ChaosInjector(inner=_inner, **kwargs)


class TestExecution:
    def test_healthy_items_pass_through(self):
        chaos = ChaosInjector(inner=_inner)
        assert chaos(5) == 105

    def test_flaky_raises_once_then_recovers(self, tmp_path):
        chaos = ChaosInjector(
            inner=_inner,
            flaky_keys=frozenset({"val:5"}),
            state_dir=str(tmp_path),
        )
        with pytest.raises(OSError, match="injected transient fault"):
            chaos(5)
        assert chaos(5) == 105  # marker file remembers the first attempt

    def test_flaky_without_state_dir_never_recovers(self):
        chaos = ChaosInjector(inner=_inner, flaky_keys=frozenset({"val:5"}))
        for _ in range(3):
            with pytest.raises(OSError):
                chaos(5)

    def test_recovery_state_survives_pickling(self, tmp_path):
        # the retry executes in a *different* worker process; the clone
        # must see the original's marker files
        chaos = ChaosInjector(
            inner=_inner,
            flaky_keys=frozenset({"val:9"}),
            state_dir=str(tmp_path),
        )
        with pytest.raises(OSError):
            chaos(9)
        clone = pickle.loads(pickle.dumps(chaos))
        assert clone(9) == 109
