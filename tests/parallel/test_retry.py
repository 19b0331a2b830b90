"""Unit tests for the failure taxonomy, retry policy, and backoff."""

import pytest

from repro.darshan.errors import TraceReadError
from repro.parallel.executor import ParallelConfig, TaskFailure
from repro.parallel.resilient import resilient_imap
from repro.parallel.retry import (
    TRANSIENT_BUILTIN_TYPES,
    TRANSIENT_ERROR_TYPES,
    TRANSIENT_QUALIFIED_TYPES,
    FailureKind,
    RetryPolicy,
    is_transient,
)


class TestFailureKind:
    def test_taxonomy_members(self):
        assert {k.value for k in FailureKind} == {
            "exception",
            "timeout",
            "crash",
            "poison",
        }

    def test_round_trips_through_value(self):
        for kind in FailureKind:
            assert FailureKind(kind.value) is kind


class TestIsTransient:
    @pytest.mark.parametrize(
        "name",
        ["OSError", "TimeoutError", "BrokenPipeError", "builtins.OSError"],
    )
    def test_transient_builtins_match_bare(self, name):
        assert is_transient(name)

    @pytest.mark.parametrize(
        "name",
        [
            "repro.darshan.errors.TraceFormatError",
            "repro.darshan.errors.TraceReadError",
        ],
    )
    def test_repro_internals_match_by_qualified_name(self, name):
        assert is_transient(name)

    @pytest.mark.parametrize(
        "name",
        ["ValueError", "KeyError", "TraceUnavailableError", "RuntimeError", ""],
    )
    def test_permanent_classes(self, name):
        assert not is_transient(name)

    def test_qualified_names_do_not_suffix_match(self):
        assert not is_transient("repro.darshan.errors.TraceUnavailableError")

    @pytest.mark.parametrize(
        "name",
        [
            # a third-party class shadowing a transient builtin name
            "somepkg.errors.ConnectionError",
            "somepkg.errors.OSError",
            # a third-party class shadowing a repro-internal name
            "somepkg.errors.TraceReadError",
            # bare repro-internal names are untrusted: only the
            # module-qualified spelling proves it is *our* class
            "TraceFormatError",
            "TraceReadError",
        ],
    )
    def test_shadowed_names_are_not_transient(self, name):
        assert not is_transient(name)

    def test_table_is_names_not_classes(self):
        assert all(isinstance(t, str) for t in TRANSIENT_ERROR_TYPES)

    def test_table_is_the_union_of_the_two_match_sets(self):
        assert (
            TRANSIENT_ERROR_TYPES
            == TRANSIENT_BUILTIN_TYPES | TRANSIENT_QUALIFIED_TYPES
        )


class _ShadowTraceReadError(Exception):
    """A class merely *named* like the transient repro error."""


_ShadowTraceReadError.__name__ = "TraceReadError"
_ShadowTraceReadError.__qualname__ = "TraceReadError"


_CALLS: dict[str, int] = {}


def _raise_shadow(item):
    _CALLS["shadow"] = _CALLS.get("shadow", 0) + 1
    raise _ShadowTraceReadError("pretends to be transient")


def _raise_genuine(item):
    _CALLS["genuine"] = _CALLS.get("genuine", 0) + 1
    raise TraceReadError("environmental hiccup")


class TestShadowedNameRetryBehaviour:
    """End-to-end: the executor classifies on the qualified name."""

    def _run_one(self, fn):
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.0)
        pairs = list(
            resilient_imap(
                fn, [object()], ParallelConfig(max_workers=0, retry=policy)
            )
        )
        assert len(pairs) == 1
        failure = pairs[0][1]
        assert isinstance(failure, TaskFailure)
        return failure

    def test_shadowed_class_fails_immediately(self):
        _CALLS.clear()
        failure = self._run_one(_raise_shadow)
        assert failure.error_type == "TraceReadError"
        assert failure.qualname.endswith(".TraceReadError")
        assert "." in failure.qualname  # module-qualified, not bare
        assert _CALLS["shadow"] == 1  # never retried
        assert failure.attempts == 1

    def test_genuine_class_is_retried(self):
        _CALLS.clear()
        failure = self._run_one(_raise_genuine)
        assert failure.qualname == "repro.darshan.errors.TraceReadError"
        assert _CALLS["genuine"] == 3  # initial + max_retries
        assert failure.attempts == 3


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        pol = RetryPolicy()
        assert pol.max_retries == 2
        assert pol.deadline_s is None  # 0 disables

    def test_deadline_property(self):
        assert RetryPolicy(task_timeout_s=7.5).deadline_s == 7.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout_s": -1.0},
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"backoff_cap_s": 0.0},
            {"max_pool_rebuilds": -1},
            {"max_item_crashes": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestBackoffDelay:
    """The retry schedule, ``RetryPolicy.backoff``: retry n (1-based)
    sleeps ``backoff_s(n - 1)``."""

    def test_deterministic_for_same_key_and_attempt(self):
        pol = RetryPolicy(backoff_base_s=0.1)
        assert pol.backoff.backoff_s(0, key=42) == pol.backoff.backoff_s(0, key=42)

    def test_jitter_varies_with_key(self):
        pol = RetryPolicy(backoff_base_s=0.1)
        delays = {pol.backoff.backoff_s(0, key=k) for k in range(16)}
        assert len(delays) > 1

    def test_grows_exponentially_until_cap(self):
        pol = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=100.0)
        # jitter is in [0.5, 1.0), so attempt n+1's floor (0.5 * 2x)
        # equals attempt n's ceiling: growth holds per-key
        d1 = pol.backoff.backoff_s(0, key=7)
        d3 = pol.backoff.backoff_s(2, key=7)
        assert d3 > d1

    def test_cap_bounds_delay(self):
        pol = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=2.0)
        assert pol.backoff.backoff_s(9, key=0) <= 2.0

    def test_zero_base_disables_sleep(self):
        pol = RetryPolicy(backoff_base_s=0.0)
        assert pol.backoff.backoff_s(0, key=0) == 0.0

    def test_jitter_keeps_half_to_full_band(self):
        pol = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=64.0)
        for key in range(32):
            d = pol.backoff.backoff_s(0, key=key)
            assert 0.5 <= d < 1.0
