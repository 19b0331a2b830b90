"""Unit tests for the append-only run journal and quarantine manifest."""

import json
import os
import subprocess
import sys

import pytest

from repro.io import StorageError
from repro.parallel.jobstore import JobStore
from repro.parallel.journal import (
    JOURNAL_VERSION,
    JournalLockHeld,
    JournalState,
    JournalWriter,
    write_quarantine_manifest,
)


def _write_run(path, *, n_selected=3):
    with JournalWriter(path) as journal:
        journal.write_header(n_selected=n_selected)
        journal.record_result(10, json.dumps({"job_id": 10, "categories": ["a"]}))
        journal.record_failure(
            {
                "job_id": 11,
                "failure_kind": "timeout",
                "error_type": "TaskTimeout",
                "message": "exceeded deadline",
                "trace_key": "/corpus/job11.mosd",
                "attempts": 1,
            }
        )
        journal.record_failure(
            {
                "job_id": 12,
                "failure_kind": "exception",
                "error_type": "ValueError",
                "message": "bad trace",
                "attempts": 3,
            }
        )
    return path


class TestRoundTrip:
    def test_load_recovers_every_settled_outcome(self, tmp_path):
        path = _write_run(str(tmp_path / "run.jsonl"))
        state = JournalState.load(path)
        assert state.n_selected == 3
        assert state.completed == {10: {"job_id": 10, "categories": ["a"]}}
        assert set(state.quarantined) == {11}
        assert state.quarantined[11]["error_type"] == "TaskTimeout"
        assert state.n_malformed == 0

    def test_plain_exception_failures_are_rerun_on_resume(self, tmp_path):
        path = _write_run(str(tmp_path / "run.jsonl"))
        state = JournalState.load(path)
        # EXCEPTION failures are not settled: resume re-attempts them
        settled = set(state.completed) | set(state.quarantined)
        assert settled == {10, 11}
        assert [f["job_id"] for f in state.transient_failures] == [12]

    def test_append_mode_extends_existing_journal(self, tmp_path):
        path = _write_run(str(tmp_path / "run.jsonl"))
        with JournalWriter(path, append=True) as journal:
            journal.record_result(12, json.dumps({"job_id": 12}))
        state = JournalState.load(path)
        assert set(state.completed) == {10, 12}

    def test_writer_refuses_after_close(self, tmp_path):
        journal = JournalWriter(str(tmp_path / "run.jsonl"))
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.record_result(1, "{}")


class TestCrashTolerance:
    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = _write_run(str(tmp_path / "run.jsonl"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "result", "job_id": 99, "resu')  # kill -9
        state = JournalState.load(path)
        assert 99 not in state.completed
        assert state.n_malformed == 1

    def test_unknown_record_kinds_count_as_malformed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "mystery"}\n[1, 2]\n')
        state = JournalState.load(path)
        assert state.n_malformed == 2

    def test_version_mismatch_refuses_to_load(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", "version": 999}) + "\n")
        with pytest.raises(ValueError, match="version"):
            JournalState.load(path)

    def test_headerless_journal_loads_with_unknown_selection(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "result", "job_id": 5, "result": {}}\n')
        state = JournalState.load(path)
        assert state.n_selected is None
        assert 5 in state.completed


class TestQuarantineManifest:
    def test_manifest_written_next_to_journal(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        entries = [
            {"job_id": 7, "failure_kind": "poison", "trace_key": "b.mosd"},
            {"job_id": 3, "failure_kind": "timeout", "trace_key": "a.mosd"},
        ]
        path = write_quarantine_manifest(journal, entries)
        assert path == journal + ".quarantine.json"
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["version"] == JOURNAL_VERSION
        assert payload["n_quarantined"] == 2
        # sorted by job_id: the operator's worklist is stable
        assert [e["job_id"] for e in payload["quarantined"]] == [3, 7]

    def test_empty_manifest_still_written(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        path = write_quarantine_manifest(journal, [])
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["n_quarantined"] == 0


class TestJournalLock:
    """The O_EXCL lock sidecar: one live writer per journal path."""

    def test_sidecar_exists_while_open_and_is_released_on_close(
        self, tmp_path
    ):
        path = str(tmp_path / "run.jsonl")
        writer = JournalWriter(path)
        lock = path + ".lock"
        assert os.path.exists(lock)
        with open(lock, "rb") as fh:
            assert int(fh.read()) == os.getpid()
        writer.close()
        assert not os.path.exists(lock)

    def test_second_writer_fails_fast_with_typed_error(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with JournalWriter(path):
            with pytest.raises(JournalLockHeld):
                JournalWriter(path)
            # typed: the CLI's StorageError exit path applies
            with pytest.raises(StorageError):
                JournalWriter(path, append=True)
        # released: a later run proceeds normally
        JournalWriter(path, append=True).close()

    def test_contention_does_not_corrupt_the_journal(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with JournalWriter(path) as journal:
            journal.write_header(n_selected=2)
            journal.record_result(0, json.dumps({"job_id": 0}))
            with pytest.raises(JournalLockHeld):
                JournalWriter(path)
            journal.record_result(1, json.dumps({"job_id": 1}))
        state = JournalState.load(path)
        assert sorted(state.completed) == [0, 1]
        assert state.n_malformed == 0

    def test_lock_held_by_live_foreign_process(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        # pid 1 is alive and not ours; os.kill(1, 0) raises
        # PermissionError, which must read as "live", not "stale"
        with open(path + ".lock", "wb") as fh:
            fh.write(b"1")
        with pytest.raises(JournalLockHeld) as exc_info:
            JournalWriter(path)
        assert exc_info.value.path == path + ".lock"

    def test_stale_lock_of_dead_pid_is_broken(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        # Spawn-and-reap a real process so the pid is guaranteed dead.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        with open(path + ".lock", "wb") as fh:
            fh.write(str(proc.pid).encode())
        with JournalWriter(path) as journal:
            journal.write_header(n_selected=0)
            with open(path + ".lock", "rb") as fh:
                assert int(fh.read()) == os.getpid()

    def test_leftover_lock_naming_our_pid_does_not_block_resume(self, tmp_path):
        # A server restarted under the killed one's pid (a container's
        # PID 1, an in-process restart) finds its own pid in the
        # leftover sidecar; only a lock this process holds is live.
        path = str(tmp_path / "run.jsonl")
        _write_run(path, n_selected=3)
        with open(path + ".lock", "wb") as fh:
            fh.write(str(os.getpid()).encode())
        store = JobStore(path, resume=True)
        state = store.open(n_selected=3)
        try:
            assert sorted(state.completed) == [10]
            with pytest.raises(JournalLockHeld):
                JournalWriter(path, append=True)
        finally:
            store.close()
        assert not os.path.exists(path + ".lock")

    def test_garbled_lock_sidecar_counts_as_stale(self, tmp_path):
        # The previous owner died between the exclusive create and the
        # pid write: an empty/garbled sidecar must not wedge the path.
        path = str(tmp_path / "run.jsonl")
        with open(path + ".lock", "wb") as fh:
            fh.write(b"not-a-pid")
        JournalWriter(path).close()
        assert not os.path.exists(path + ".lock")

    def test_lock_released_when_appender_open_fails(self, tmp_path):
        # Journal path is a directory: DurableAppender cannot open it,
        # and the half-constructed writer must not leak the lock.
        path = str(tmp_path / "run.jsonl")
        os.mkdir(path)
        with pytest.raises(StorageError):
            JournalWriter(path)
        assert not os.path.exists(path + ".lock")
