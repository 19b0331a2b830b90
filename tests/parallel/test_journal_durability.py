"""Crash-durability regressions for the run journal.

The journal is the resume contract: an outcome the writer reported as
settled must survive a power cut (the pre-seam writer buffered lines in
the stdlib file object — a cut could lose *every* settled outcome of
the run).  These tests pin the fsync-per-line fix and the torn-tail
tolerance it composes with.
"""

import json
import os

import pytest

from repro.io import scoped_io
from repro.parallel.journal import (
    JournalState,
    JournalWriter,
    write_quarantine_manifest,
)
from repro.testing import PowerCut, StorageChaos


def _entries(path):
    return [json.loads(l) for l in open(path) if l.strip()]


class TestSettledMeansDurable:
    def test_every_recorded_outcome_survives_a_power_cut(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos):
            journal = JournalWriter(path)
            journal.write_header(n_selected=3)
            journal.record_result(10, json.dumps({"job_id": 10, "categories": ["a"]}))
            journal.record_failure(
                {
                    "job_id": 11,
                    "failure_kind": "timeout",
                    "error_type": "TaskTimeout",
                    "message": "deadline",
                    "attempts": 2,
                }
            )
            # no close(): the cut arrives mid-run
        chaos.power_cut()
        state = JournalState.load(path)
        assert state.n_selected == 3
        assert state.completed == {10: {"job_id": 10, "categories": ["a"]}}
        assert set(state.quarantined) == {11}
        assert state.n_malformed == 0

    def test_lost_sync_regression_interval_zero_loses_the_tail(self, tmp_path):
        # sync_interval=0 is the old buffered behavior made explicit:
        # nothing is durable until close.  A cut mid-run loses the run —
        # which is why JournalWriter defaults to fsync-per-line.
        path = str(tmp_path / "run.jsonl")
        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos):
            journal = JournalWriter(path, sync_interval=0)
            journal.write_header(n_selected=1)
            journal.record_result(10, json.dumps({"job_id": 10}))
        chaos.power_cut()
        # file creation itself was never fsynced: the journal vanishes
        assert not os.path.exists(path)

    def test_checkpoint_is_the_durability_boundary(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos):
            journal = JournalWriter(path, sync_interval=0)
            journal.write_header(n_selected=2)
            journal.record_result(10, json.dumps({"job_id": 10}))
            journal.checkpoint()
            journal.record_result(11, json.dumps({"job_id": 11}))  # volatile tail
        chaos.power_cut()
        state = JournalState.load(path)
        assert set(state.completed) == {10}


class TestTornTail:
    def test_resume_after_torn_trailing_line(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with JournalWriter(path) as journal:
            journal.write_header(n_selected=3)
            journal.record_result(10, json.dumps({"job_id": 10}))
        # tear the tail mid-line, as a cut between write and fsync would
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw + b'{"kind": "result", "job_id": 1')

        state = JournalState.load(path)
        assert set(state.completed) == {10}
        assert state.n_malformed == 1

        # resume appends after the torn fragment; the retried outcome
        # and the old settled ones all load
        with JournalWriter(path, append=True) as journal:
            journal.record_result(11, json.dumps({"job_id": 11}))
        state = JournalState.load(path)
        assert set(state.completed) == {10, 11}

    def test_resume_bytes_are_identical_to_an_uninterrupted_run(
        self, tmp_path
    ):
        # a run that dies after settling job 10 and resumes to settle 11
        # leaves the same settled lines as one that never died
        torn = str(tmp_path / "torn.jsonl")
        with JournalWriter(torn) as journal:
            journal.write_header(n_selected=2)
            journal.record_result(10, json.dumps({"job_id": 10}))
        with JournalWriter(torn, append=True) as journal:
            journal.record_result(11, json.dumps({"job_id": 11}))

        straight = str(tmp_path / "straight.jsonl")
        with JournalWriter(straight) as journal:
            journal.write_header(n_selected=2)
            journal.record_result(10, json.dumps({"job_id": 10}))
            journal.record_result(11, json.dumps({"job_id": 11}))

        assert _entries(torn) == _entries(straight)


class TestQuarantineManifest:
    def test_power_cut_mid_write_leaves_no_torn_manifest(self, tmp_path):
        jpath = str(tmp_path / "run.jsonl")
        chaos = StorageChaos(tmp_path, script={("fsync", 0): "power-cut"})
        with scoped_io(chaos):
            with pytest.raises(PowerCut):
                write_quarantine_manifest(jpath, [{"job_id": 1}])
        chaos.power_cut()
        assert not os.path.exists(jpath + ".quarantine.json")

    def test_manifest_replaces_previous_run_atomically(self, tmp_path):
        jpath = str(tmp_path / "run.jsonl")
        old = write_quarantine_manifest(jpath, [{"job_id": 1}])
        chaos = StorageChaos(tmp_path, script={("fsync_dir", 0): "power-cut"})
        with scoped_io(chaos):
            with pytest.raises(PowerCut):
                write_quarantine_manifest(jpath, [{"job_id": 2}])
        chaos.power_cut()
        payload = json.loads(open(old).read())
        assert [e["job_id"] for e in payload["quarantined"]] == [1]
