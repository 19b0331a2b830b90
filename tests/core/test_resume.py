"""Checkpoint/resume tests: a killed corpus run, resumed from its
journal, must produce byte-identical output to an uninterrupted run."""

import json
import os
import shutil

import pytest

from repro.columnar import compile_corpus
from repro.core import (
    DEFAULT_CONFIG,
    DegradationLevel,
    ResourceBudget,
    run_pipeline_store,
    run_pipeline_stream,
    save_results_jsonl,
)
from repro.darshan import DirectorySource, save_binary
from repro.parallel import ParallelConfig
from repro.synth import FleetConfig, generate_fleet

SERIAL = ParallelConfig(max_workers=0)
POOLED = ParallelConfig(max_workers=2)

#: What a killed run left after 15 of ``corpus_dir``'s 30 outcomes, as
#: the journal writer spelled it before journals embedded each result's
#: ``results.jsonl`` line verbatim: compact ``"result"`` objects.
PARENT_JOURNAL = os.path.join(os.path.dirname(__file__), "data", "parent_journal.jsonl")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("resume-corpus")
    fleet = generate_fleet(FleetConfig(n_apps=30, mean_runs=2.0, seed=11))
    for trace in fleet.traces:
        save_binary(trace, path / f"job{trace.meta.job_id:08d}.mosd")
    return path


def _results_bytes(results, path):
    save_results_jsonl(results, str(path))
    with open(path, "rb") as fh:
        return fh.read()


def _truncate_journal(src, dst, n_outcomes):
    """Simulate a kill -9 partway through: header + first n outcomes."""
    with open(src, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(dst, "w", encoding="utf-8") as fh:
        fh.writelines(lines[: 1 + n_outcomes])


class TestJournalWriting:
    def test_fresh_run_journals_every_outcome(self, corpus_dir, tmp_path):
        journal = tmp_path / "run.jsonl"
        result = run_pipeline_stream(
            DirectorySource(corpus_dir), parallel=SERIAL, journal_path=journal
        )
        with open(journal, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert lines[0]["kind"] == "header"
        assert lines[0]["n_selected"] == len(result.results)
        assert len(lines) == 1 + len(result.results)

    def test_result_lines_embed_the_results_jsonl_line(self, corpus_dir, tmp_path):
        journal = tmp_path / "run.jsonl"
        result = run_pipeline_stream(
            DirectorySource(corpus_dir), parallel=SERIAL, journal_path=journal
        )
        saved = _results_bytes(result.results, tmp_path / "results.jsonl")
        with open(journal, encoding="utf-8") as fh:
            settles = fh.read().splitlines()[1:]
        assert settles == [
            '{"kind":"result","job_id":%d,"result":%s}' % (r.job_id, line)
            for r, line in zip(result.results, saved.decode().splitlines())
        ]

    def test_empty_quarantine_manifest_written(self, corpus_dir, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_pipeline_stream(
            DirectorySource(corpus_dir), parallel=SERIAL, journal_path=journal
        )
        with open(f"{journal}.quarantine.json", encoding="utf-8") as fh:
            assert json.load(fh)["n_quarantined"] == 0


class TestResumeEquivalence:
    @pytest.mark.parametrize("parallel", [SERIAL, POOLED], ids=["serial", "pooled"])
    def test_killed_run_resumes_to_identical_output(
        self, corpus_dir, tmp_path, parallel
    ):
        full_journal = tmp_path / "full.jsonl"
        uninterrupted = run_pipeline_stream(
            DirectorySource(corpus_dir), parallel=parallel, journal_path=full_journal
        )
        baseline = _results_bytes(uninterrupted.results, tmp_path / "baseline.jsonl")

        # "kill" the run after 5 journaled outcomes, then resume
        killed_journal = tmp_path / f"killed-{parallel.max_workers}.jsonl"
        _truncate_journal(full_journal, killed_journal, n_outcomes=5)
        resumed = run_pipeline_stream(
            DirectorySource(corpus_dir),
            parallel=parallel,
            journal_path=killed_journal,
            resume=True,
        )
        assert resumed.metrics["n_resumed"] == 5
        assert (
            _results_bytes(resumed.results, tmp_path / "resumed.jsonl") == baseline
        )

    def test_resume_after_torn_final_write(self, corpus_dir, tmp_path):
        full_journal = tmp_path / "full.jsonl"
        uninterrupted = run_pipeline_stream(
            DirectorySource(corpus_dir), parallel=SERIAL, journal_path=full_journal
        )
        baseline = _results_bytes(uninterrupted.results, tmp_path / "baseline.jsonl")

        torn = tmp_path / "torn.jsonl"
        _truncate_journal(full_journal, torn, n_outcomes=3)
        with open(torn, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "result", "job_id": 1, "res')  # mid-write kill
        resumed = run_pipeline_stream(
            DirectorySource(corpus_dir),
            parallel=SERIAL,
            journal_path=torn,
            resume=True,
        )
        assert resumed.metrics["n_resumed"] == 3
        assert resumed.metrics["n_journal_malformed"] == 1
        assert (
            _results_bytes(resumed.results, tmp_path / "resumed.jsonl") == baseline
        )

    def test_fully_complete_journal_resumes_without_recompute(
        self, corpus_dir, tmp_path
    ):
        journal = tmp_path / "full.jsonl"
        first = run_pipeline_stream(
            DirectorySource(corpus_dir), parallel=SERIAL, journal_path=journal
        )
        resumed = run_pipeline_stream(
            DirectorySource(corpus_dir),
            parallel=SERIAL,
            journal_path=journal,
            resume=True,
        )
        assert resumed.metrics["n_resumed"] == len(first.results)
        # pass 2 reloaded nothing: all categorize-stage reads were skipped
        assert resumed.metrics["categorize_bytes_read"] == 0
        assert (
            _results_bytes(resumed.results, tmp_path / "a.jsonl")
            == _results_bytes(first.results, tmp_path / "b.jsonl")
        )


class TestParentJournal:
    @pytest.mark.parametrize("route", ["stream", "store"])
    def test_compact_journal_resumes_byte_identical(self, corpus_dir, tmp_path, route):
        with open(PARENT_JOURNAL, encoding="utf-8") as fh:
            assert '"result":{"job_id":' in fh.read()  # compact spelling
        oracle = run_pipeline_stream(DirectorySource(corpus_dir), parallel=SERIAL)
        baseline = _results_bytes(oracle.results, tmp_path / "baseline.jsonl")
        journal = tmp_path / "run.jsonl"
        shutil.copyfile(PARENT_JOURNAL, journal)
        if route == "stream":
            def run():
                return run_pipeline_stream(
                    DirectorySource(corpus_dir),
                    parallel=SERIAL,
                    journal_path=journal,
                    resume=True,
                )
        else:
            store = tmp_path / "corpus.mosc"
            compile_corpus(DirectorySource(corpus_dir), store)

            def run():
                return run_pipeline_store(
                    store, parallel=SERIAL, journal_path=journal, resume=True
                )

        resumed = run()
        assert resumed.metrics["n_resumed"] == 15
        assert _results_bytes(resumed.results, tmp_path / "resumed.jsonl") == baseline
        # the journal now mixes both spellings, and resumes all the same
        again = run()
        assert again.metrics["n_resumed"] == 30
        assert _results_bytes(again.results, tmp_path / "again.jsonl") == baseline


class TestResumeGuards:
    def test_corpus_change_refused(self, corpus_dir, tmp_path):
        journal = tmp_path / "run.jsonl"
        with open(journal, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "header", "version": 1, "n_selected": 9999}\n')
        with pytest.raises(ValueError, match="refusing to resume"):
            run_pipeline_stream(
                DirectorySource(corpus_dir),
                parallel=SERIAL,
                journal_path=journal,
                resume=True,
            )

    def test_governed_run_resumes_degraded_entries_byte_identically(
        self, corpus_dir, tmp_path
    ):
        """A budget tight enough to degrade most traces must survive the
        kill/resume cycle: degradation level and budget violations ride
        the journal like every other result field."""
        cfg = DEFAULT_CONFIG.with_overrides(budget=ResourceBudget(max_ops=8))
        full_journal = tmp_path / "full.jsonl"
        uninterrupted = run_pipeline_stream(
            DirectorySource(corpus_dir),
            config=cfg,
            parallel=SERIAL,
            journal_path=full_journal,
        )
        degraded = [
            r
            for r in uninterrupted.results
            if r.degradation is not DegradationLevel.FULL
        ]
        assert degraded, "budget should have degraded at least one trace"
        baseline = _results_bytes(uninterrupted.results, tmp_path / "baseline.jsonl")

        killed = tmp_path / "killed.jsonl"
        _truncate_journal(full_journal, killed, n_outcomes=5)
        resumed = run_pipeline_stream(
            DirectorySource(corpus_dir),
            config=cfg,
            parallel=SERIAL,
            journal_path=killed,
            resume=True,
        )
        assert resumed.metrics["n_resumed"] == 5
        assert (
            _results_bytes(resumed.results, tmp_path / "resumed.jsonl") == baseline
        )

    def test_quarantined_traces_stay_quarantined(self, corpus_dir, tmp_path):
        full_journal = tmp_path / "full.jsonl"
        full = run_pipeline_stream(
            DirectorySource(corpus_dir), parallel=SERIAL, journal_path=full_journal
        )
        victim = full.results[0].job_id
        # hand-craft a journal where the victim trace timed out
        journal = tmp_path / "quarantined.jsonl"
        with open(full_journal, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(journal, "w", encoding="utf-8") as fh:
            fh.write(lines[0])
            fh.write(
                json.dumps(
                    {
                        "kind": "failure",
                        "job_id": victim,
                        "failure_kind": "timeout",
                        "error_type": "TaskTimeout",
                        "message": "exceeded deadline",
                        "trace_key": "",
                        "attempts": 1,
                    }
                )
                + "\n"
            )
        resumed = run_pipeline_stream(
            DirectorySource(corpus_dir),
            parallel=SERIAL,
            journal_path=journal,
            resume=True,
        )
        assert victim not in {r.job_id for r in resumed.results}
        assert resumed.n_failures == 1
        assert len(resumed.results) == len(full.results) - 1
        with open(f"{journal}.quarantine.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert [e["job_id"] for e in manifest["quarantined"]] == [victim]
