"""Tests for the crash-surviving resilient streaming map.

Faults are injected with the deterministic chaos harness
(:mod:`repro.testing.faults`): explicit key sets pin each item's fate,
and marker files under ``state_dir`` let flaky items recover on retry
even when the retry lands in a fresh worker process.
"""

import os
from dataclasses import replace

import pytest

from repro.parallel import (
    ParallelConfig,
    PoolRebuildLimit,
    TaskFailure,
    resilient_imap,
)
from repro.parallel.retry import FailureKind, RetryPolicy
from repro.testing import ChaosInjector


def square(x: int) -> int:
    return x * x


def always_value_error(x: int) -> int:
    raise ValueError(f"permanent failure for {x}")


SERIAL = ParallelConfig(max_workers=0)
POOLED = ParallelConfig(max_workers=2)

#: Fast backoff so retry tests don't sleep for real.
FAST = RetryPolicy(backoff_base_s=0.0)


def _drain(stream):
    results, failures = {}, {}
    for index, outcome in stream:
        if isinstance(outcome, TaskFailure):
            failures[index] = outcome
        else:
            results[index] = outcome
    return results, failures


class TestNoFaultEquivalence:
    @pytest.mark.parametrize("config", [SERIAL, POOLED], ids=["serial", "pooled"])
    def test_matches_plain_map(self, config):
        items = list(range(8))
        results, failures = _drain(
            resilient_imap(square, items, replace(config, retry=FAST))
        )
        assert failures == {}
        assert results == {i: i * i for i in items}

    def test_empty_input(self):
        assert _drain(resilient_imap(square, [], replace(SERIAL, retry=FAST))) == ({}, {})

    @pytest.mark.parametrize("workers", [0, 1])
    def test_one_worker_runs_in_process(self, workers):
        """0 and 1 worker both take the serial path: a lambda, which no
        pool could pickle, maps in input order in this process."""
        items = list(range(5))
        config = ParallelConfig(max_workers=workers, retry=FAST)
        stream = resilient_imap(lambda x: (os.getpid(), x * x), items, config)
        assert list(stream) == [(i, (os.getpid(), i * i)) for i in items]


class TestTransientRetry:
    @pytest.mark.parametrize("config", [SERIAL, POOLED], ids=["serial", "pooled"])
    def test_flaky_item_recovers_on_retry(self, config, tmp_path):
        fn = ChaosInjector(
            inner=square,
            flaky_keys=frozenset({"val:3"}),
            state_dir=str(tmp_path),
        )
        counts = {}
        results, failures = _drain(
            resilient_imap(
                fn,
                list(range(6)),
                replace(config, retry=FAST),
                on_count=lambda k, v: counts.__setitem__(k, counts.get(k, 0) + v),
            )
        )
        assert failures == {}
        assert results == {i: i * i for i in range(6)}
        assert counts["n_retries"] == 1

    @pytest.mark.parametrize("config", [SERIAL, POOLED], ids=["serial", "pooled"])
    def test_persistent_transient_error_exhausts_budget(self, config):
        # empty state_dir -> the injected OSError never recovers
        fn = ChaosInjector(inner=square, flaky_keys=frozenset({"val:1"}))
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.0)
        results, failures = _drain(
            resilient_imap(fn, [0, 1, 2], replace(config, retry=policy))
        )
        assert set(results) == {0, 2}
        assert set(failures) == {1}
        assert failures[1].kind is FailureKind.EXCEPTION
        assert failures[1].error_type == "OSError"
        assert failures[1].attempts == 3  # 1 try + 2 retries

    @pytest.mark.parametrize("config", [SERIAL, POOLED], ids=["serial", "pooled"])
    def test_permanent_errors_fail_without_retry(self, config):
        counts = {}
        results, failures = _drain(
            resilient_imap(
                always_value_error,
                [0, 1],
                replace(config, retry=FAST),
                on_count=lambda k, v: counts.__setitem__(k, counts.get(k, 0) + v),
            )
        )
        assert results == {}
        assert set(failures) == {0, 1}
        assert all(f.error_type == "ValueError" for f in failures.values())
        assert all(f.attempts == 1 for f in failures.values())
        assert counts.get("n_retries", 0) == 0


class TestCrashSurvival:
    def test_crashing_item_is_poisoned_and_rest_complete(self):
        fn = ChaosInjector(inner=square, crash_keys=frozenset({"val:3"}))
        counts = {}
        results, failures = _drain(
            resilient_imap(
                fn,
                list(range(6)),
                replace(POOLED, retry=FAST),
                on_count=lambda k, v: counts.__setitem__(k, counts.get(k, 0) + v),
            )
        )
        # every healthy item survives the crash of item 3's workers
        assert results == {i: i * i for i in range(6) if i != 3}
        assert set(failures) == {3}
        assert failures[3].kind is FailureKind.POISON
        assert counts["n_poisoned"] == 1
        assert counts["n_crash_events"] >= 1
        assert counts["n_pool_rebuilds"] >= 1

    def test_rebuild_limit_aborts_the_run(self):
        # every item crashes its worker: the pool can never stay up
        fn = ChaosInjector(inner=square, crash_rate=1.0)
        policy = RetryPolicy(backoff_base_s=0.0, max_pool_rebuilds=1)
        with pytest.raises(PoolRebuildLimit, match="rebuilt"):
            _drain(resilient_imap(fn, list(range(8)), replace(POOLED, retry=policy)))


class TestTimeouts:
    def test_hung_item_quarantined_others_complete(self):
        fn = ChaosInjector(
            inner=square, hang_keys=frozenset({"val:2"}), hang_seconds=60.0
        )
        policy = RetryPolicy(task_timeout_s=1.0, backoff_base_s=0.0)
        counts = {}
        results, failures = _drain(
            resilient_imap(
                fn,
                list(range(5)),
                replace(POOLED, retry=policy),
                on_count=lambda k, v: counts.__setitem__(k, counts.get(k, 0) + v),
            )
        )
        assert results == {i: i * i for i in range(5) if i != 2}
        assert set(failures) == {2}
        assert failures[2].kind is FailureKind.TIMEOUT
        assert failures[2].error_type == "TaskTimeout"
        assert counts["n_timeouts"] == 1
        assert counts["n_pool_rebuilds"] >= 1

    def test_no_deadline_means_no_timeout_machinery(self):
        results, failures = _drain(
            resilient_imap(square, list(range(4)), replace(POOLED, retry=FAST))
        )
        assert failures == {}
        assert len(results) == 4
