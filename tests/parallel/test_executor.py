"""Unit tests for the streaming executor's plain-map contract: order,
laziness, bounded draw-ahead, failure capture, and pool shutdown.

Crash, hang and retry recovery are covered in ``test_resilient.py``.
"""

import multiprocessing
import time

import pytest

from repro.parallel import (
    FailureKind,
    RetryPolicy,
    ParallelConfig,
    TaskFailure,
    resilient_imap,
)
from repro.parallel.executor import PENDING_PER_WORKER

SERIAL = ParallelConfig(max_workers=0)


def square(x: int) -> int:
    return x * x


def fail_on_odd(x: int) -> int:
    if x % 2 == 1:
        raise ValueError(f"odd input {x}")
    return x


def none_on_even(x: int):
    return None if x % 2 == 0 else x


class PickleCountingFn:
    """Module-level picklable callable that counts parent-side pickling."""

    pickled = 0

    def __call__(self, x: int) -> int:
        return x + 1

    def __getstate__(self):
        type(self).pickled += 1
        return {}

    def __setstate__(self, state):
        pass


def _failures(pairs):
    return [r for _i, r in sorted(pairs, key=lambda p: p[0]) if isinstance(r, TaskFailure)]


class TestSerialMode:
    def test_results_in_input_order(self):
        assert list(resilient_imap(square, [3, 1, 2], SERIAL)) == [(0, 9), (1, 1), (2, 4)]

    def test_failures_captured_not_raised(self):
        pairs = list(resilient_imap(fail_on_odd, [0, 1, 2, 3], SERIAL))
        assert pairs[0] == (0, 0) and pairs[2] == (2, 2)
        assert isinstance(pairs[1][1], TaskFailure)
        assert isinstance(pairs[3][1], TaskFailure)
        failures = _failures(pairs)
        assert [f.index for f in failures] == [1, 3]
        assert failures[0].error_type == "ValueError"
        assert "odd input 1" in failures[0].message

    def test_legitimate_none_results_survive(self):
        # regression: None used to double as the failure sentinel, so a
        # mapped fn returning None was dropped as a failure
        pairs = list(resilient_imap(none_on_even, [0, 1, 2], SERIAL))
        assert pairs == [(0, None), (1, 1), (2, None)]

    def test_empty_input(self):
        assert list(resilient_imap(square, [], SERIAL)) == []

    def test_lambda_allowed_in_serial_mode(self):
        pairs = list(resilient_imap(lambda x: x + 1, [1, 2], SERIAL))
        assert pairs == [(0, 2), (1, 3)]


class TestProcessPool:
    def test_parallel_results_match_serial(self):
        items = list(range(30))
        par = resilient_imap(square, items, ParallelConfig(max_workers=2))
        ser = resilient_imap(square, items, SERIAL)
        assert dict(par) == dict(ser)

    def test_parallel_failures_isolated(self):
        pairs = list(resilient_imap(fail_on_odd, list(range(10)), ParallelConfig(max_workers=2)))
        assert len(pairs) == 10
        assert [f.index for f in _failures(pairs)] == [1, 3, 5, 7, 9]

    def test_traceback_captured(self):
        pairs = list(resilient_imap(fail_on_odd, [1, 2], ParallelConfig(max_workers=2)))
        assert "ValueError" in _failures(pairs)[0].traceback_text

    def test_fn_pickled_at_most_once_per_worker(self):
        # regression: fn used to travel inside every task tuple, so it
        # was re-pickled per submitted item; with the pool initializer
        # it ships once per worker process.
        fn = PickleCountingFn()
        PickleCountingFn.pickled = 0
        pairs = dict(
            resilient_imap(fn, list(range(64)), ParallelConfig(max_workers=2))
        )
        assert pairs == {x: x + 1 for x in range(64)}
        # <= workers (0 under the fork start method, where initargs are
        # inherited); a per-task scheme would pickle once per item
        # regardless of start method
        assert PickleCountingFn.pickled <= 2

    def test_none_results_survive_pool(self):
        pairs = resilient_imap(none_on_even, [0, 1, 2, 3], ParallelConfig(max_workers=2))
        assert sorted(pairs) == [(0, None), (1, 1), (2, None), (3, 3)]


class TestParallelImap:
    def test_serial_streams_in_order(self):
        pairs = list(resilient_imap(square, iter([3, 1, 2]), SERIAL))
        assert pairs == [(0, 9), (1, 1), (2, 4)]

    def test_serial_is_lazy(self):
        pulled = []

        def gen():
            for i in range(100):
                pulled.append(i)
                yield i

        stream = resilient_imap(square, gen(), SERIAL)
        assert next(stream) == (0, 0)
        assert next(stream) == (1, 1)
        # only as many items drawn as results consumed (plus none ahead)
        assert len(pulled) == 2
        stream.close()

    def test_serial_failures_yield_taskfailure(self):
        pairs = list(resilient_imap(fail_on_odd, [0, 1, 2], SERIAL))
        assert pairs[0] == (0, 0) and pairs[2] == (2, 2)
        assert isinstance(pairs[1][1], TaskFailure)
        assert pairs[1][0] == 1

    def test_pool_results_complete_and_indexed(self):
        items = list(range(40))
        pairs = list(
            resilient_imap(square, iter(items), ParallelConfig(max_workers=2))
        )
        assert sorted(i for i, _ in pairs) == items
        for i, r in pairs:
            assert r == i * i

    def test_pool_backpressure_bounds_draw_ahead(self):
        drawn = []

        def gen():
            for i in range(50):
                drawn.append(i)
                yield i

        cfg = ParallelConfig(max_workers=2)
        assert cfg.resolved_pending() == 2 * PENDING_PER_WORKER == 16
        stream = resilient_imap(square, gen(), cfg)
        first = next(stream)
        assert first[1] == first[0] ** 2
        # one full window is drawn before the first result — never all 50
        assert len(drawn) == 16
        stream.close()

    def test_pool_failures_isolated(self):
        pairs = list(
            resilient_imap(fail_on_odd, range(10), ParallelConfig(max_workers=2))
        )
        fails = [i for i, r in pairs if isinstance(r, TaskFailure)]
        assert sorted(fails) == [1, 3, 5, 7, 9]

    def test_empty_iterable(self):
        assert list(resilient_imap(square, [], SERIAL)) == []
        assert list(resilient_imap(square, [], ParallelConfig(max_workers=2))) == []


class TestConfig:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(max_workers=-1).resolved_workers()

    def test_none_resolves_to_cpu_count(self):
        assert ParallelConfig(max_workers=None).resolved_workers() >= 1

    def test_default_pending_window(self):
        assert ParallelConfig(max_workers=3).resolved_pending() == 24
        # serial runs still bound their draw-ahead by one worker's share
        assert SERIAL.resolved_pending() == PENDING_PER_WORKER


class CustomError(Exception):
    pass


def fail_custom(x: int) -> int:
    raise CustomError(f"custom failure {x}")


def slow_square(x: int) -> int:
    time.sleep(0.2)
    return x * x


class TestFailureTaxonomy:
    def test_builtin_errors_keep_bare_qualname(self):
        [(_index, failure)] = resilient_imap(fail_on_odd, [1], SERIAL)
        assert failure.error_type == "ValueError"
        assert failure.qualname == "ValueError"
        assert failure.kind is FailureKind.EXCEPTION
        assert failure.attempts == 1

    def test_custom_errors_carry_module_qualified_name(self):
        [(_index, failure)] = resilient_imap(fail_custom, [1], SERIAL)
        assert failure.error_type == "CustomError"
        assert "." in failure.qualname
        assert failure.qualname.endswith(".CustomError")

    def test_str_includes_kind_and_attempts(self):
        failure = TaskFailure(
            index=3,
            error_type="OSError",
            message="disk gone",
            traceback_text="",
            kind=FailureKind.TIMEOUT,
            attempts=4,
        )
        text = str(failure)
        assert "[timeout]" in text and "after 4 attempts" in text


class TestImapAbandonment:
    def test_breaking_midstream_leaves_no_orphaned_workers(self):
        # regression: abandoning the generator used to leave the pool
        # draining its whole pending window before shutdown
        before = {p.pid for p in multiprocessing.active_children()}
        stream = resilient_imap(
            slow_square, range(64), ParallelConfig(max_workers=2)
        )
        for _index, _result in stream:
            break  # consumer walks away mid-stream
        stream.close()  # triggers the generator's finally
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            orphans = {
                p.pid for p in multiprocessing.active_children()
            } - before
            if not orphans:
                break
            time.sleep(0.05)
        assert not orphans, f"pool workers outlived the consumer: {orphans}"

    def test_full_consumption_still_shuts_down_cleanly(self):
        before = {p.pid for p in multiprocessing.active_children()}
        pairs = list(
            resilient_imap(square, range(6), ParallelConfig(max_workers=2))
        )
        assert len(pairs) == 6
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not ({p.pid for p in multiprocessing.active_children()} - before):
                return
            time.sleep(0.05)
        raise AssertionError("pool did not shut down after full consumption")


class TestResilienceConfig:
    """Every retry knob lives on ``ParallelConfig.retry``."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout_s": -1.0},
            {"max_retries": -1},
            {"backoff_base_s": -0.5},
            {"backoff_cap_s": -1.0},
            {"max_pool_rebuilds": -1},
            {"max_item_crashes": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ParallelConfig(retry=RetryPolicy(**kwargs))

    def test_no_base_uses_policy_defaults(self):
        assert ParallelConfig().retry == RetryPolicy()
