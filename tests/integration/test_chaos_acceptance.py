"""Chaos acceptance: the ISSUE's fault-tolerance scenario end to end.

A pooled corpus run with injected worker crashes, one hung trace, and
transient read errors must (a) complete, (b) categorize every healthy
trace, (c) quarantine the hung trace as TIMEOUT and the crashing trace
as POISON, (d) surface retry/rebuild counts in the metrics, and (e) be
resumable from its journal to byte-identical results after a mid-run
kill.
"""

import functools
import json

import pytest

from repro.core import run_pipeline_stream, save_results_jsonl
from repro.core.pipeline import PipelineContext
from repro.darshan import DirectorySource, save_binary
from repro.parallel import ParallelConfig
from repro.parallel.retry import FailureKind, RetryPolicy
from repro.synth import FleetConfig, generate_fleet
from repro.testing import ChaosInjector


def _chaos(fn, *, crash_key, hang_key, flaky_key, state_dir):
    return ChaosInjector(
        inner=fn,
        crash_keys=frozenset({crash_key}),
        hang_keys=frozenset({hang_key}),
        flaky_keys=frozenset({flaky_key}),
        hang_seconds=60.0,
        state_dir=state_dir,
    )


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos-corpus")
    fleet = generate_fleet(FleetConfig(n_apps=25, mean_runs=2.0, seed=5))
    for trace in fleet.traces:
        save_binary(trace, path / f"job{trace.meta.job_id:08d}.mosd")
    return path


@pytest.fixture(scope="module")
def clean_job_ids(corpus_dir):
    result = run_pipeline_stream(
        DirectorySource(corpus_dir), parallel=ParallelConfig(max_workers=0)
    )
    return [r.job_id for r in result.results]


def _context(args_state_dir, crash_id, hang_id, flaky_id):
    return PipelineContext(
        parallel=ParallelConfig(
            max_workers=2,
            retry=RetryPolicy(task_timeout_s=3.0, max_pool_rebuilds=10),
        ),
        wrap_worker=functools.partial(
            _chaos,
            crash_key=f"job:{crash_id}",
            hang_key=f"job:{hang_id}",
            flaky_key=f"job:{flaky_id}",
            state_dir=args_state_dir,
        ),
    )


class TestChaosAcceptance:
    @pytest.fixture(scope="class")
    def chaos_run(self, corpus_dir, clean_job_ids, tmp_path_factory):
        assert len(clean_job_ids) >= 6
        crash_id, hang_id, flaky_id = clean_job_ids[:3]
        tmp = tmp_path_factory.mktemp("chaos-run")
        journal = tmp / "run.jsonl"
        ctx = _context(str(tmp / "state"), crash_id, hang_id, flaky_id)
        (tmp / "state").mkdir()
        result = run_pipeline_stream(
            DirectorySource(corpus_dir),
            parallel=ctx.parallel,
            context=ctx,
            journal_path=journal,
        )
        return {
            "result": result,
            "journal": journal,
            "tmp": tmp,
            "crash_id": crash_id,
            "hang_id": hang_id,
            "flaky_id": flaky_id,
        }

    def test_healthy_traces_all_categorized(self, chaos_run, clean_job_ids):
        healthy = set(clean_job_ids) - {
            chaos_run["crash_id"],
            chaos_run["hang_id"],
        }
        categorized = {r.job_id for r in chaos_run["result"].results}
        assert categorized == healthy

    def test_hung_trace_timed_out_and_crasher_poisoned(self, chaos_run):
        journal_state = {}
        with open(chaos_run["journal"], encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                if entry["kind"] == "failure":
                    journal_state[entry["job_id"]] = entry["failure_kind"]
        assert journal_state[chaos_run["hang_id"]] == FailureKind.TIMEOUT.value
        assert journal_state[chaos_run["crash_id"]] == FailureKind.POISON.value

    def test_recovery_counters_in_metrics(self, chaos_run):
        m = chaos_run["result"].metrics
        assert m["n_retries"] >= 1  # the flaky trace recovered
        assert m["n_timeouts"] == 1
        assert m["n_poisoned"] == 1
        assert m["n_crash_events"] >= 1
        assert m["n_pool_rebuilds"] >= 2  # crash recovery + hang recycle
        assert m["n_quarantined"] == 2
        assert m["n_failures"] == 2

    def test_quarantine_manifest_lists_both_victims(self, chaos_run):
        with open(f"{chaos_run['journal']}.quarantine.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["n_quarantined"] == 2
        assert {e["job_id"] for e in manifest["quarantined"]} == {
            chaos_run["crash_id"],
            chaos_run["hang_id"],
        }
        assert all(e["trace_key"] for e in manifest["quarantined"])

    def test_killed_chaos_run_resumes_to_identical_results(
        self, chaos_run, corpus_dir
    ):
        tmp = chaos_run["tmp"]
        baseline_path = tmp / "baseline.jsonl"
        save_results_jsonl(chaos_run["result"].results, str(baseline_path))

        # kill the run after 4 journaled outcomes
        killed = tmp / "killed.jsonl"
        with open(chaos_run["journal"], encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(killed, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:5])

        ctx = _context(
            str(tmp / "state"),  # flaky markers persist: already recovered
            chaos_run["crash_id"],
            chaos_run["hang_id"],
            chaos_run["flaky_id"],
        )
        resumed = run_pipeline_stream(
            DirectorySource(corpus_dir),
            parallel=ctx.parallel,
            context=ctx,
            journal_path=killed,
            resume=True,
        )
        assert resumed.metrics["n_resumed"] == 4
        resumed_path = tmp / "resumed.jsonl"
        save_results_jsonl(resumed.results, str(resumed_path))
        assert resumed_path.read_bytes() == baseline_path.read_bytes()
