"""The store-backed pipeline is indistinguishable from the stream path.

``run_pipeline_store`` is only allowed to be fast because nothing it
emits differs from ``run_pipeline_stream`` over the same corpus: same
results (bitwise, via the serialized form), same funnel counters, and
the same journal contract — a journal written by one path resumes on
the other, byte-identically.
"""

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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("equivalence")
    fleet = generate_fleet(FleetConfig(n_apps=30, mean_runs=2.0, seed=11))
    trace_dir = base / "traces"
    trace_dir.mkdir()
    for trace in fleet.traces:
        save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
    store_path = base / "corpus.mosc"
    compile_corpus(DirectorySource(trace_dir), store_path)
    return trace_dir, store_path


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


class TestStoreStreamEquivalence:
    def test_results_byte_identical(self, corpus, tmp_path):
        trace_dir, store_path = corpus
        stream = run_pipeline_stream(DirectorySource(trace_dir), parallel=SERIAL)
        store = run_pipeline_store(store_path, parallel=SERIAL)
        assert _results_bytes(stream.results, tmp_path / "a.jsonl") == (
            _results_bytes(store.results, tmp_path / "b.jsonl")
        )

    def test_funnel_counters_identical(self, corpus):
        trace_dir, store_path = corpus
        stream = run_pipeline_stream(DirectorySource(trace_dir), parallel=SERIAL)
        store = run_pipeline_store(store_path, parallel=SERIAL)
        for field in ("n_input", "n_corrupted", "n_repaired"):
            assert getattr(store.preprocess, field) == (
                getattr(stream.preprocess, field)
            ), field
        assert store.preprocess.n_selected == stream.preprocess.n_selected
        assert store.n_failures == stream.n_failures == 0


#: Count-based budgets only: a stage deadline is wall clock, measured
#: per trace on the stream route and per slice on the store route.
BUDGETS = (
    {"max_ops": 2},
    {"max_ops": 4},
    {"max_ops": 20},
    {"max_bytes": 768},
)


class TestBudgetedEquivalence:
    """The degradation ladder gives the same level and violations per
    trace on both routes, at every rung."""

    @pytest.fixture(scope="class")
    def budgeted_runs(self, corpus):
        trace_dir, store_path = corpus
        runs = []
        for budget in BUDGETS:
            config = DEFAULT_CONFIG.with_overrides(
                budget=ResourceBudget(**budget)
            )
            stream = run_pipeline_stream(
                DirectorySource(trace_dir), config, parallel=SERIAL
            )
            store = run_pipeline_store(store_path, config, parallel=SERIAL)
            runs.append((budget, stream, store))
        return runs

    def test_results_byte_identical_under_budget(self, budgeted_runs, tmp_path):
        for budget, stream, store in budgeted_runs:
            assert _results_bytes(stream.results, tmp_path / "a.jsonl") == (
                _results_bytes(store.results, tmp_path / "b.jsonl")
            ), budget

    def test_budgets_reach_every_degraded_rung(self, budgeted_runs):
        levels = {
            r.degradation
            for _budget, stream, _store in budgeted_runs
            for r in stream.results
        }
        assert {
            DegradationLevel.COARSE,
            DegradationLevel.MINIMAL,
            DegradationLevel.FLAGGED,
        } <= levels


class TestStorePathResume:
    def test_killed_store_run_resumes_byte_identical(self, corpus, tmp_path):
        _trace_dir, store_path = corpus
        full_journal = tmp_path / "full.jsonl"
        uninterrupted = run_pipeline_store(
            store_path, parallel=SERIAL, journal_path=full_journal
        )
        baseline = _results_bytes(
            uninterrupted.results, tmp_path / "baseline.jsonl"
        )

        killed = tmp_path / "killed.jsonl"
        _truncate_journal(full_journal, killed, n_outcomes=5)
        resumed = run_pipeline_store(
            store_path, parallel=SERIAL, journal_path=killed, resume=True
        )
        assert resumed.metrics["n_resumed"] == 5
        assert (
            _results_bytes(resumed.results, tmp_path / "resumed.jsonl")
            == baseline
        )

    def test_stream_journal_resumes_on_store_path(self, corpus, tmp_path):
        """The journal contract is path-agnostic: kill a *stream* run,
        resume it on the *store* fast path, get the same bytes."""
        trace_dir, store_path = corpus
        full_journal = tmp_path / "full.jsonl"
        uninterrupted = run_pipeline_stream(
            DirectorySource(trace_dir),
            parallel=SERIAL,
            journal_path=full_journal,
        )
        baseline = _results_bytes(
            uninterrupted.results, tmp_path / "baseline.jsonl"
        )

        killed = tmp_path / "killed.jsonl"
        _truncate_journal(full_journal, killed, n_outcomes=7)
        resumed = run_pipeline_store(
            store_path, parallel=SERIAL, journal_path=killed, resume=True
        )
        assert resumed.metrics["n_resumed"] == 7
        assert (
            _results_bytes(resumed.results, tmp_path / "resumed.jsonl")
            == baseline
        )
