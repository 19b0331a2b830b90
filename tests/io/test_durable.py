"""Unit tests for the durability policies: atomic writes and appends.

Every claim docs/ROBUSTNESS.md makes about the write path is pinned
here against scripted faults: crash-atomicity of the temp + fsync +
rename sequence, bounded transient retry, short-write replay without a
doubled prefix, and the appender's fsync-checkpoint cadence.
"""

import errno
import json
import os

import pytest

from repro.io import (
    DEFAULT_RETRY,
    DurableAppender,
    FaultableIO,
    IORetryPolicy,
    StorageError,
    atomic_write,
    atomic_write_bytes,
    atomic_write_text,
    durable_append,
    get_io,
    scoped_io,
    set_io,
)
from repro.testing import FAULT_SHORT_WRITE, PowerCut, StorageChaos


def _no_stray_tmp(directory):
    return [n for n in os.listdir(directory) if ".tmp." in n] == []


class TestAtomicWrite:
    def test_publishes_payload(self, tmp_path):
        out = tmp_path / "artifact.bin"
        atomic_write_bytes(out, b"payload")
        assert out.read_bytes() == b"payload"
        assert _no_stray_tmp(tmp_path)

    def test_replaces_existing_content(self, tmp_path):
        out = tmp_path / "artifact.bin"
        out.write_bytes(b"old")
        atomic_write_bytes(out, b"new content, longer than old")
        assert out.read_bytes() == b"new content, longer than old"

    def test_text_form_is_bytes_exact(self, tmp_path):
        out = tmp_path / "report.txt"
        atomic_write_text(out, "line\nline\n")
        # no newline translation, matching open(..., newline="")
        assert out.read_bytes() == b"line\nline\n"

    def test_context_manager_text_and_binary(self, tmp_path):
        with atomic_write(tmp_path / "t.txt", "w") as fh:
            fh.write("hello")
        with atomic_write(tmp_path / "b.bin", "wb") as fh:
            fh.write(b"\x00\x01")
        assert (tmp_path / "t.txt").read_text() == "hello"
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"

    def test_context_manager_rejects_read_modes(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_write(tmp_path / "x", "rb"):
                pass

    def test_body_exception_writes_nothing(self, tmp_path):
        out = tmp_path / "x.json"
        with pytest.raises(RuntimeError):
            with atomic_write(out, "w") as fh:
                fh.write("partial")
                raise RuntimeError("builder failed")
        assert not out.exists()
        assert _no_stray_tmp(tmp_path)


class TestAtomicWriteUnderFaults:
    def test_enospc_is_typed_and_leaves_old_artifact(self, tmp_path):
        out = tmp_path / "a.bin"
        out.write_bytes(b"old")
        chaos = StorageChaos(tmp_path, script={("write", 0): errno.ENOSPC})
        with pytest.raises(StorageError) as exc_info:
            atomic_write_bytes(out, b"new", io=chaos)
        err = exc_info.value
        assert err.op == "write"
        assert err.errno == errno.ENOSPC
        assert out.read_bytes() == b"old"
        assert _no_stray_tmp(tmp_path)

    def test_enospc_on_fresh_path_leaves_nothing(self, tmp_path):
        out = tmp_path / "fresh.bin"
        chaos = StorageChaos(tmp_path, script={("fsync", 0): errno.ENOSPC})
        with pytest.raises(StorageError):
            atomic_write_bytes(out, b"new", io=chaos)
        assert not out.exists()
        assert _no_stray_tmp(tmp_path)

    def test_transient_eio_is_retried_to_success(self, tmp_path):
        out = tmp_path / "a.bin"
        chaos = StorageChaos(tmp_path, script={("write", 0): errno.EIO})
        atomic_write_bytes(out, b"payload", io=chaos)
        assert out.read_bytes() == b"payload"
        assert ("write", 0, errno.EIO) in chaos.injected

    def test_short_write_retry_never_doubles_prefix(self, tmp_path):
        out = tmp_path / "a.bin"
        payload = b"0123456789" * 20
        chaos = StorageChaos(tmp_path, script={("write", 0): FAULT_SHORT_WRITE})
        atomic_write_bytes(out, payload, io=chaos)
        assert out.read_bytes() == payload

    def test_persistent_transient_fault_exhausts_retries(self, tmp_path):
        out = tmp_path / "a.bin"
        n = DEFAULT_RETRY.attempts
        chaos = StorageChaos(
            tmp_path, script={("write", i): errno.EINTR for i in range(n)}
        )
        with pytest.raises(StorageError, match="transient fault persisted"):
            atomic_write_bytes(out, b"x", io=chaos)
        assert not out.exists()

    def test_power_cut_before_rename_leaves_old_artifact(self, tmp_path):
        out = tmp_path / "a.bin"
        out.write_bytes(b"old")
        chaos = StorageChaos(tmp_path, script={("replace", 0): "power-cut"})
        with pytest.raises(PowerCut):
            atomic_write_bytes(out, b"new", io=chaos)
        chaos.power_cut()
        # the contract is about the final path only: a resurrected tmp
        # file (its content was fsynced pre-cut) is deletable noise
        assert out.read_bytes() == b"old"

    def test_torn_rename_window_restores_old_content(self, tmp_path):
        # replace happened but the directory entry was never fsynced:
        # the rename is real now, gone after the power cut.
        out = tmp_path / "a.bin"
        out.write_bytes(b"old")
        chaos = StorageChaos(tmp_path, script={("fsync_dir", 0): "power-cut"})
        with pytest.raises(PowerCut):
            atomic_write_bytes(out, b"new", io=chaos)
        assert out.read_bytes() == b"new"  # visible pre-cut
        chaos.power_cut()
        assert out.read_bytes() == b"old"  # durable truth

    def test_fsync_dir_failure_still_leaves_complete_new_artifact(
        self, tmp_path
    ):
        # the rename already landed; only its *durability* is unconfirmed,
        # so the error is raised but the artifact is complete, not torn.
        out = tmp_path / "a.bin"
        out.write_bytes(b"old")
        chaos = StorageChaos(tmp_path, script={("fsync_dir", 0): errno.EROFS})
        with pytest.raises(StorageError):
            atomic_write_bytes(out, b"new", io=chaos)
        assert out.read_bytes() == b"new"


class TestRetryPolicy:
    def test_backoff_doubles_deterministically(self):
        p = IORetryPolicy(max_attempts=5, backoff_base_s=0.01)
        assert [p.backoff_s(a) for a in range(3)] == [0.01, 0.02, 0.04]

    def test_validation(self):
        with pytest.raises(ValueError):
            IORetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            IORetryPolicy(backoff_base_s=-1.0)

    def test_tighter_policy_fails_sooner(self, tmp_path):
        chaos = StorageChaos(
            tmp_path, script={("write", i): errno.EIO for i in range(2)}
        )
        with pytest.raises(StorageError):
            atomic_write_bytes(
                tmp_path / "a",
                b"x",
                io=chaos,
                policy=IORetryPolicy(max_attempts=1, backoff_base_s=0.0),
            )


class TestDurableAppender:
    def test_lines_land_and_are_newline_terminated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with durable_append(path) as app:
            app.append_line('{"n": 1}')
            app.append_line('{"n": 2}\n')  # already terminated
        lines = path.read_text().splitlines()
        assert [json.loads(l)["n"] for l in lines] == [1, 2]

    def test_append_mode_preserves_existing_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("first\n")
        with durable_append(path, append=True) as app:
            app.append_line("second")
        assert path.read_text().splitlines() == ["first", "second"]

    def test_sync_interval_zero_syncs_only_on_close(self, tmp_path):
        # group commit is the only cadence: appends alone never fsync
        chaos = StorageChaos(tmp_path)
        app = DurableAppender(tmp_path / "l.jsonl", io=chaos)
        app.append_line("a")
        app.append_line("b")
        assert chaos.counts["fsync"] == 0
        app.close()
        assert chaos.counts["fsync"] == 1

    def test_commit_fsyncs_a_group_once_and_an_empty_group_never(self, tmp_path):
        chaos = StorageChaos(tmp_path)
        app = DurableAppender(tmp_path / "l.jsonl", io=chaos)
        assert app.commit() is False
        app.append_line("a")
        app.append_line("b")
        assert app.size() == len("a\nb\n")
        assert app.commit() is True
        assert app.commit() is False
        app.close()  # nothing left to sync
        assert chaos.counts["fsync"] == 1

    def test_append_after_close_raises(self, tmp_path):
        app = durable_append(tmp_path / "l.jsonl")
        app.close()
        assert app.closed
        with pytest.raises(ValueError):
            app.append_line("late")
        app.close()  # idempotent

    def test_torn_fragment_is_terminated_before_retry(self, tmp_path):
        # a short write tears the line; the appender newline-terminates
        # the fragment and rewrites the whole line, so the loader sees
        # one malformed fragment and one complete retried entry.
        path = tmp_path / "l.jsonl"
        chaos = StorageChaos(tmp_path, script={("write", 1): FAULT_SHORT_WRITE})
        with DurableAppender(path, io=chaos) as app:
            app.append_line('{"n": 1}')
            app.append_line('{"n": 2}')
        lines = path.read_text().splitlines()
        assert lines[0] == '{"n": 1}'
        assert lines[-1] == '{"n": 2}'
        complete = [l for l in lines if l in ('{"n": 1}', '{"n": 2}')]
        assert len(complete) == 2

    def test_enospc_append_is_typed(self, tmp_path):
        chaos = StorageChaos(tmp_path, script={("write", 0): errno.ENOSPC})
        app = DurableAppender(tmp_path / "l.jsonl", io=chaos)
        with pytest.raises(StorageError) as exc_info:
            app.append_line("x")
        assert exc_info.value.op == "append"
        assert exc_info.value.errno == errno.ENOSPC

    def test_settled_lines_survive_power_cut(self, tmp_path):
        path = tmp_path / "l.jsonl"
        chaos = StorageChaos(tmp_path, script={("write", 2): "power-cut"})
        app = DurableAppender(path, io=chaos)
        app.append_line('{"n": 1}')
        app.commit()
        app.append_line('{"n": 2}')
        app.commit()
        with pytest.raises(PowerCut):
            app.append_line('{"n": 3}')
        chaos.power_cut()
        assert path.read_text().splitlines() == ['{"n": 1}', '{"n": 2}']


class TestVfsSeam:
    def test_scoped_io_installs_and_restores(self, tmp_path):
        default = get_io()
        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos) as active:
            assert active is chaos
            assert get_io() is chaos
        assert get_io() is default

    def test_scoped_io_restores_on_exception(self, tmp_path):
        default = get_io()
        with pytest.raises(RuntimeError):
            with scoped_io(StorageChaos(tmp_path)):
                raise RuntimeError
        assert get_io() is default

    def test_set_io_none_restores_default(self, tmp_path):
        chaos = StorageChaos(tmp_path)
        set_io(chaos)
        try:
            assert get_io() is chaos
        finally:
            set_io(None)
        assert isinstance(get_io(), FaultableIO)
        assert not isinstance(get_io(), StorageChaos)

    def test_helpers_use_the_active_io_by_default(self, tmp_path):
        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos):
            atomic_write_bytes(tmp_path / "a.bin", b"x")
        assert chaos.counts["write"] == 1
        assert chaos.counts["replace"] == 1
