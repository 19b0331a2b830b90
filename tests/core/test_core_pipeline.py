"""Unit tests for the corpus pipeline (Fig. 1 end to end)."""

import pytest

from repro.columnar import compile_corpus
from repro.core import Category, run_pipeline, run_pipeline_store, run_pipeline_stream
from repro.darshan import InMemorySource
from repro.parallel import ParallelConfig
from repro.synth import FleetConfig, generate_fleet

from tests.conftest import make_record, make_trace

SIG = 500 * 1024 * 1024


def app_runs(uid, exe, n_runs, nbytes=SIG):
    traces = []
    for k in range(n_runs):
        traces.append(
            make_trace(
                [make_record(1, 0, read=(0.0, 30.0, nbytes + k))],
                job_id=uid * 1000 + k,
                uid=uid,
                exe=exe,
            )
        )
    return traces


class TestRunPipeline:
    def test_pipeline_categorizes_unique_apps(self):
        traces = app_runs(1, "a", 5) + app_runs(2, "b", 3)
        result = run_pipeline(traces)
        assert result.n_categorized == 2
        assert result.preprocess.n_input == 8

    def test_run_weights_align_with_results(self):
        traces = app_runs(1, "a", 5) + app_runs(2, "b", 3)
        result = run_pipeline(traces)
        weights = dict(zip([r.exe for r in result.results], result.run_weights()))
        assert weights == {"a": 5, "b": 3}

    def test_corrupted_traces_do_not_reach_categorization(self):
        bad = make_trace([], job_id=999)
        bad.meta.end_time = bad.meta.start_time - 5.0
        result = run_pipeline(app_runs(1, "a", 2) + [bad])
        assert result.preprocess.n_corrupted == 1
        assert all(r.job_id != 999 for r in result.results)

    def test_timings_recorded(self):
        result = run_pipeline(app_runs(1, "a", 2))
        assert set(result.timings) == {
            "scan_s", "preprocess_s", "categorize_s", "total_s"
        }
        assert result.timings["total_s"] >= 0.0

    def test_parallel_matches_serial(self):
        traces = app_runs(1, "a", 3) + app_runs(2, "b", 3) + app_runs(3, "c", 3)
        serial = run_pipeline(traces)
        parallel = run_pipeline(traces, parallel=ParallelConfig(max_workers=2))
        assert len(serial.results) == len(parallel.results)
        for a, b in zip(serial.results, parallel.results):
            assert a.job_id == b.job_id
            assert a.categories == b.categories

    def test_empty_corpus(self):
        result = run_pipeline([])
        assert result.n_categorized == 0
        assert result.n_failures == 0

    def test_categories_present_in_results(self):
        result = run_pipeline(app_runs(1, "a", 1))
        assert Category.READ_ON_START in result.results[0].categories


class TestEntryPointEquivalence:
    """The three entry points only build plans for one driver: over
    the same fleet they must agree result for result."""

    @pytest.fixture(scope="class")
    def fleet_and_store(self, tmp_path_factory):
        fleet = generate_fleet(FleetConfig(n_apps=20, mean_runs=2.0, seed=13))
        store = tmp_path_factory.mktemp("entry-points") / "fleet.mosc"
        compile_corpus(InMemorySource(fleet.traces), store)
        return fleet.traces, store

    @pytest.mark.parametrize("workers", [0, 2])
    def test_all_entry_points_agree(self, fleet_and_store, workers):
        traces, store = fleet_and_store
        parallel = ParallelConfig(max_workers=workers)
        runs = (
            run_pipeline(traces, parallel=parallel),
            run_pipeline_stream(InMemorySource(traces), parallel=parallel),
            run_pipeline_store(store, parallel=parallel),
        )
        batch, stream, stored = ([r.to_dict() for r in run.results] for run in runs)
        assert batch and batch == stream == stored
        assert [t.meta.job_id for t in runs[0].preprocess.selected] == [
            r["job_id"] for r in batch
        ]
