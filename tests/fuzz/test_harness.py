"""Fuzz harness tests: the guard detects every finding class, case
generation is deterministic, and the committed regression corpus stays
green forever."""

import os
import time

import pytest

from repro.darshan.errors import TraceFormatError
from repro.fuzz import (
    FORMATS,
    MUTATIONS,
    generate_cases,
    load_corpus,
    replay_corpus,
    run_fuzz,
    seed_payloads,
)
from repro.fuzz.harness import _run_guarded, run_case
from repro.fuzz.mutators import mutations_for, rebuild_case

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


class TestRunGuarded:
    def test_clean_parse(self):
        payload = seed_payloads("binary", 0)[0]
        outcome, etype, _ = _run_guarded(FORMATS["binary"], payload, 5.0, 0)
        assert outcome == "parsed" and etype == ""

    def test_clean_rejection(self):
        outcome, etype, _ = _run_guarded(FORMATS["binary"], b"garbage", 5.0, 0)
        assert outcome == "rejected" and etype == "TraceFormatError"

    def test_crash_detected(self):
        def boom(data: bytes) -> None:
            raise KeyError("planted")

        outcome, etype, msg = _run_guarded(boom, b"", 5.0, 0)
        assert outcome == "crash" and etype == "KeyError" and "planted" in msg

    def test_trace_format_error_is_not_a_crash(self):
        def refuse(data: bytes) -> None:
            raise TraceFormatError("nope")

        outcome, _, _ = _run_guarded(refuse, b"", 5.0, 0)
        assert outcome == "rejected"

    def test_hang_detected(self):
        def stall(data: bytes) -> None:
            time.sleep(5.0)

        outcome, etype, _ = _run_guarded(stall, b"", 0.2, 0)
        assert outcome == "hang" and etype == "DeadlineExceeded"

    def test_allocation_bomb_detected(self):
        def bomb(data: bytes) -> None:
            _ = bytearray(32 * 1024 * 1024)

        outcome, etype, _ = _run_guarded(bomb, b"", 5.0, 1024 * 1024)
        assert outcome == "alloc" and etype == "AllocationBudget"

    def test_zero_budgets_disable_the_guards(self):
        def slowish(data: bytes) -> None:
            _ = bytearray(4 * 1024 * 1024)

        outcome, _, _ = _run_guarded(slowish, b"", 0.0, 0)
        assert outcome == "parsed"

    def test_guards_leave_no_process_state_behind(self):
        """tracemalloc must not stay enabled after a guarded run: it slows
        every later allocation in this process and in forked workers."""
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        payload = seed_payloads("binary", 0)[0]
        _run_guarded(FORMATS["binary"], payload, 5.0, 64 * 1024 * 1024)

        def bomb(data: bytes) -> None:
            _ = bytearray(32 * 1024 * 1024)

        _run_guarded(bomb, b"", 5.0, 1024 * 1024)

        def boom(data: bytes) -> None:
            raise KeyError("planted")

        _run_guarded(boom, b"", 5.0, 1024 * 1024)
        assert tracemalloc.is_tracing() == was_tracing


class TestCaseGeneration:
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_deterministic(self, fmt):
        a = [c.data for c in generate_cases(fmt, 60, seed=7)]
        b = [c.data for c in generate_cases(fmt, 60, seed=7)]
        assert a == b

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_seed_changes_cases(self, fmt):
        a = [c.data for c in generate_cases(fmt, 60, seed=7)]
        b = [c.data for c in generate_cases(fmt, 60, seed=8)]
        assert a != b

    def test_reproducer_triple_rebuilds_payload(self):
        for case in generate_cases("binary", 40, seed=3):
            again = rebuild_case(case.fmt, 3, case.seed)
            assert again.data == case.data and again.mutation == case.mutation

    def test_every_mutation_scheduled(self):
        seen = {c.mutation for c in generate_cases("json", 200, seed=1)}
        base_names = {m.split("+")[0] for m in seen}
        assert base_names == set(mutations_for("json"))

    def test_format_only_mutations_stay_in_format(self):
        assert "lie_counts" in mutations_for("binary")
        assert "lie_counts" not in mutations_for("text")
        assert set(mutations_for("binary")) <= set(MUTATIONS)


class TestRunFuzz:
    def test_smoke_run_is_finding_free(self):
        report = run_fuzz(n_cases=50, seed=20190101)
        assert report.ok, report.summary()
        assert report.n_cases == 150
        assert report.n_parsed + report.n_rejected == report.n_cases

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="xml"):
            run_fuzz(formats=("xml",), n_cases=1)

    def test_run_case_returns_finding_for_planted_crash(self, monkeypatch):
        def boom(data: bytes) -> None:
            raise RuntimeError("planted")

        monkeypatch.setitem(FORMATS, "binary", boom)
        case = next(iter(generate_cases("binary", 1, seed=0)))
        finding = run_case(case)
        assert finding is not None and finding.kind == "crash"
        assert finding.data == case.data


class TestReaderCrossCheck:
    """The binary entry runs loads_binary and the scan's batch reader on
    every payload and reports any disagreement as a mismatch."""

    @staticmethod
    def _skewed(field, value):
        from repro.darshan.source import batch_payloads

        def reader(payloads):
            batch = batch_payloads(payloads)
            setattr(batch, field, value(batch))
            return batch

        return reader

    @pytest.mark.parametrize(
        "field, value, expect",
        [
            ("unreadable", lambda b: ~b.unreadable, "accepted"),
            ("records", lambda b: b.records[:-1], "records"),
            ("run_time", lambda b: -b.run_time, "violations"),
        ],
    )
    def test_disagreement_is_a_mismatch_finding(self, monkeypatch, field, value, expect):
        import repro.fuzz.harness as harness

        monkeypatch.setattr(harness, "batch_payloads", self._skewed(field, value))
        payload = seed_payloads("binary", 0)[0]
        outcome, etype, msg = _run_guarded(FORMATS["binary"], payload, 5.0, 0)
        assert (outcome, etype) == ("mismatch", "ReaderMismatch")
        assert expect in msg

    def test_refused_payload_checks_both_readers(self, monkeypatch):
        import repro.fuzz.harness as harness

        monkeypatch.setattr(
            harness, "batch_payloads", self._skewed("unreadable", lambda b: ~b.unreadable)
        )
        outcome, _, msg = _run_guarded(FORMATS["binary"], b"garbage", 5.0, 0)
        assert outcome == "mismatch" and "batch reader" in msg

    @pytest.mark.parametrize("refused", [False, True])
    def test_a_row_that_moves_a_neighbour_is_a_mismatch(self, monkeypatch, refused):
        import repro.fuzz.harness as harness
        from repro.darshan.source import batch_payloads

        def reader(payloads):
            batch = batch_payloads(payloads)
            if len(batch) == 3:
                batch.uid[2] += 1
            return batch

        monkeypatch.setattr(harness, "batch_payloads", reader)
        payload = b"garbage" if refused else seed_payloads("binary", 0)[0]
        outcome, etype, msg = _run_guarded(FORMATS["binary"], payload, 5.0, 0)
        assert (outcome, etype) == ("mismatch", "ReaderMismatch")
        assert "neighbour" in msg

    def test_readers_agree_on_seed_payloads(self):
        for payload in seed_payloads("binary", 0):
            outcome, _, _ = _run_guarded(FORMATS["binary"], payload, 5.0, 0)
            assert outcome == "parsed"


class TestCommittedCorpus:
    def test_corpus_is_nonempty_per_format(self):
        by_fmt = {}
        for fmt, _, _ in load_corpus(CORPUS):
            by_fmt[fmt] = by_fmt.get(fmt, 0) + 1
        assert set(by_fmt) == set(FORMATS)
        assert all(n >= 3 for n in by_fmt.values())

    def test_replay_stays_green(self):
        report = replay_corpus(load_corpus(CORPUS))
        assert report.ok, report.summary()
        assert report.n_cases >= 15
