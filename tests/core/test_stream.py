"""Tests for the incremental application catalog."""

import pytest

from repro.core import categorize_trace, preprocess_corpus, run_pipeline
from repro.core.stream import ApplicationCatalog
from repro.darshan.validate import validate_trace
from repro.service import result_weight
from repro.synth import FleetConfig, generate_fleet

from tests.conftest import make_record, make_trace

SIG = 500 * 1024 * 1024


def run(job_id, uid=1, exe="a", nbytes=SIG):
    return make_trace(
        [make_record(1, 0, read=(0.0, 30.0, nbytes))],
        job_id=job_id, uid=uid, exe=exe,
    )


def fold(catalog, trace):
    """Fold one trace the way the driver would: categorized, weighed."""
    return catalog.fold(categorize_trace(trace), trace.io_weight())


class TestApplicationCatalog:
    def test_first_run_creates_entry(self):
        catalog = ApplicationCatalog()
        entry = fold(catalog, run(1))
        assert entry is not None
        assert len(catalog) == 1
        assert entry.n_runs == 1

    def test_lookup(self):
        catalog = ApplicationCatalog()
        fold(catalog, run(1, uid=7, exe="sim"))
        assert catalog.lookup(7, "sim") is not None
        assert catalog.lookup(7, "other") is None

    def test_heavier_run_replaces_reference(self):
        catalog = ApplicationCatalog()
        fold(catalog, run(1, nbytes=SIG))
        entry = fold(catalog, run(2, nbytes=4 * SIG))
        assert entry.weight == pytest.approx(4 * SIG + entry.result.metadata_total, rel=0.1)
        assert entry.result.job_id == 2

    def test_lighter_run_keeps_reference(self):
        catalog = ApplicationCatalog()
        fold(catalog, run(1, nbytes=4 * SIG))
        entry = fold(catalog, run(2, nbytes=SIG))
        assert entry.result.job_id == 1
        assert entry.n_runs == 2

    def test_stability_tracks_agreement(self):
        catalog = ApplicationCatalog()
        fold(catalog, run(1))
        fold(catalog, run(2))          # same behaviour
        entry = fold(catalog, run(3, nbytes=10))  # deviant tiny run
        assert entry.n_runs == 3
        assert entry.n_agreeing == 2
        assert entry.stability == pytest.approx(2 / 3)

    def test_matches_batch_pipeline(self, small_fleet):
        """Folding every valid run must converge to the batch result."""
        catalog = ApplicationCatalog()
        for trace in small_fleet.traces:
            if validate_trace(trace).valid:
                fold(catalog, trace)

        batch = preprocess_corpus(small_fleet.traces)
        assert len(catalog) == batch.n_selected
        assert catalog.n_ingested == batch.n_valid
        assert catalog.run_weights() == [
            batch.runs_per_app[k] for k in sorted(batch.runs_per_app)
        ]
        # the reference job per app is the heaviest — identical to batch
        batch_jobs = {t.meta.app_key: t.meta.job_id for t in batch.selected}
        for entry in catalog.entries():
            key = entry.result.app_key
            assert entry.result.job_id == batch_jobs[key]

    def test_results_consumable_by_analysis(self, small_fleet):
        from repro.analysis import category_shares

        catalog = ApplicationCatalog()
        for trace in small_fleet.traces:
            if validate_trace(trace).valid:
                fold(catalog, trace)
        shares = category_shares(catalog.results(), catalog.run_weights())
        assert shares.n_apps == len(catalog)


class TestFold:
    """``fold`` takes results that are already computed (the server path)."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=2.0, seed=7))
        return run_pipeline(fleet.traces[:6])

    def test_fold_already_computed_results(self, pipeline):
        catalog = ApplicationCatalog()
        for result in pipeline.results:
            catalog.fold(result, result_weight(result))
        assert catalog.n_ingested == len(pipeline.results)
        for result in pipeline.results:
            assert catalog.lookup(*result.app_key) is not None

    def test_refold_increments_runs(self, pipeline):
        result = pipeline.results[0]
        catalog = ApplicationCatalog()
        catalog.fold(result, 10.0)
        entry = catalog.fold(result, 10.0)
        assert entry.n_runs == 2
        assert entry.stability == 1.0

    def test_stats_snapshot_keys(self, pipeline):
        catalog = ApplicationCatalog()
        for result in pipeline.results:
            catalog.fold(result, result_weight(result))
        stats = catalog.stats()
        assert stats["n_apps"] == len(catalog)
        assert stats["n_ingested"] == len(pipeline.results)
        assert set(stats) == {"n_apps", "n_ingested", "n_degraded"}
