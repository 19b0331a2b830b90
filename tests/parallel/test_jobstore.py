"""JobStore group commit: settles append, one commit makes them durable.

Every settle appends and flushes its journal line, but only
:meth:`JobStore.commit` fsyncs — once for the whole group — and only
after that fsync is ``on_settle`` told about the group.  These tests pin
the ordering with :class:`~repro.testing.StorageChaos`, whose op log
records every write and fsync the journal performs.
"""

import pytest

from repro.io import scoped_io
from repro.parallel.jobstore import JobStore, replay_settles
from repro.parallel.journal import JournalState
from repro.testing import FAULT_POWER_CUT, PowerCut, StorageChaos


class _LoggingChaos(StorageChaos):
    """StorageChaos whose op log also receives the settle callbacks."""

    def settle_hook(self, kind, job_id, record, seq):
        self.ops_log.append(("on_settle", seq))


def _journal_fsyncs(chaos):
    """fsyncs of the journal itself (the close-time quarantine manifest
    is a separate atomic write)."""
    return sum(
        1 for op, path in chaos.ops_log if op == "fsync" and path.endswith(".jsonl")
    )


def _settle_units(store, units):
    """Settle ``units`` (lists of job ids) with one commit per unit."""
    for unit in units:
        for job_id in unit:
            store.settle_result(job_id, {"job_id": job_id})
        store.commit()


class TestGroupCommit:
    def test_one_fsync_per_commit(self, tmp_path):
        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos):
            store = JobStore(tmp_path / "j.jsonl")
            store.open(n_selected=9)
            _settle_units(store, [[0, 1, 2, 3], [4, 5], [6, 7, 8]])
            assert _journal_fsyncs(chaos) == 3
            store.close()
        assert _journal_fsyncs(chaos) == 3  # close found nothing pending
        state = JournalState.load(tmp_path / "j.jsonl")
        assert sorted(state.completed) == list(range(9))

    def test_commit_with_nothing_pending_does_no_fsync(self, tmp_path):
        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos):
            store = JobStore(tmp_path / "j.jsonl")
            store.open(n_selected=2)
            assert store.commit() is True  # the header
            assert store.commit() is False
            store.settle_result(0, {"job_id": 0})
            assert store.commit() is True
            assert store.commit() is False
            store.close()
        assert _journal_fsyncs(chaos) == 2

    def test_no_on_settle_before_its_commit_fsync(self, tmp_path):
        chaos = _LoggingChaos(tmp_path)
        with scoped_io(chaos):
            store = JobStore(tmp_path / "j.jsonl", on_settle=chaos.settle_hook)
            store.open(n_selected=6)
            store.settle_result(0, {"job_id": 0})
            store.settle_failure(
                1, failure_kind="poison", error_type="E", message="m"
            )
            assert ("on_settle", 1) not in chaos.ops_log  # not yet durable
            store.commit()
            _settle_units(store, [[2, 3], [4, 5]])
            store.close()
        # journal ops only: the manifest's fsync at close is not a commit
        log = [
            op if op == "on_settle" or arg.endswith(".jsonl") else "other"
            for op, arg in chaos.ops_log
        ]
        published = [arg for op, arg in chaos.ops_log if op == "on_settle"]
        assert published == [1, 2, 3, 4, 5, 6]  # every settle, in seq order
        # the n-th settle line is the (n+1)-th write (after the header);
        # its callback must come after an fsync that followed that write
        writes = [i for i, op in enumerate(log) if op == "write"]
        for seq in published:
            wrote = writes[seq]
            called = chaos.ops_log.index(("on_settle", seq))
            assert "fsync" in log[wrote:called], f"settle {seq} published early"

    def test_committed_seq_trails_seq_until_commit(self, tmp_path):
        path = tmp_path / "j.jsonl"
        store = JobStore(path)
        store.open(n_selected=4)
        _settle_units(store, [[0, 1]])
        store.settle_result(2, {"job_id": 2})
        assert (store.seq, store.committed_seq) == (3, 2)
        # replay bounded by committed_seq never shows the pending line
        committed = replay_settles(path, upto=store.committed_seq)
        assert [seq for seq, _kind, _entry in committed] == [1, 2]
        written = replay_settles(path, after=1)
        assert [seq for seq, _kind, _entry in written] == [2, 3]
        store.commit()
        assert store.committed_seq == 3
        store.close()

    def test_close_commits_and_publishes_pending_settles(self, tmp_path):
        seen = []
        store = JobStore(
            tmp_path / "j.jsonl", on_settle=lambda *event: seen.append(event[-1])
        )
        store.open(n_selected=2)
        store.settle_result(0, {"job_id": 0})
        store.settle_result(1, {"job_id": 1})
        assert seen == []
        store.close()
        assert seen == [1, 2]


class TestResume:
    def test_resume_fsyncs_inherited_journal_and_continues_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = JobStore(path)
        first.open(n_selected=5)
        _settle_units(first, [[0, 1, 2]])
        first.close()

        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos):
            store = JobStore(path, resume=True)
            state = store.open(n_selected=5)
            # the inherited lines are made durable before they count
            assert _journal_fsyncs(chaos) == 1
            assert store.committed_seq == store.seq == 3
            assert sorted(state.completed) == [0, 1, 2]
            assert store.commit() is False
            _settle_units(store, [[3, 4]])
            store.close()
        assert _journal_fsyncs(chaos) == 2
        assert [s for s, _k, _e in replay_settles(path)] == [1, 2, 3, 4, 5]

    def test_power_cut_keeps_every_committed_settle(self, tmp_path):
        # cut the power at the second fsync: the second commit's group is
        # lost, the first (published) one survives
        path = tmp_path / "j.jsonl"
        seen = []
        chaos = StorageChaos(tmp_path, script={("fsync", 1): FAULT_POWER_CUT})
        with scoped_io(chaos):
            store = JobStore(path, on_settle=lambda *event: seen.append(event[-1]))
            store.open(n_selected=6)
            _settle_units(store, [[0, 1, 2]])
            with pytest.raises(PowerCut):
                _settle_units(store, [[3, 4, 5]])
        chaos.power_cut()
        assert seen == [1, 2, 3]
        state = JournalState.load(path)
        assert sorted(state.completed) == [0, 1, 2]
