"""Tests for the incremental application catalog."""

import pytest

from repro.core import preprocess_corpus, run_pipeline
from repro.core.stream import ApplicationCatalog
from repro.service import result_weight
from repro.synth import FleetConfig, generate_fleet

from tests.conftest import make_record, make_trace

SIG = 500 * 1024 * 1024


def run(job_id, uid=1, exe="a", nbytes=SIG):
    return make_trace(
        [make_record(1, 0, read=(0.0, 30.0, nbytes))],
        job_id=job_id, uid=uid, exe=exe,
    )


def corrupted(job_id):
    t = make_trace([], job_id=job_id)
    t.meta.end_time = t.meta.start_time - 1.0
    return t


class TestApplicationCatalog:
    def test_first_run_creates_entry(self):
        catalog = ApplicationCatalog()
        entry = catalog.ingest(run(1))
        assert entry is not None
        assert len(catalog) == 1
        assert entry.n_runs == 1

    def test_lookup(self):
        catalog = ApplicationCatalog()
        catalog.ingest(run(1, uid=7, exe="sim"))
        assert catalog.lookup(7, "sim") is not None
        assert catalog.lookup(7, "other") is None

    def test_heavier_run_replaces_reference(self):
        catalog = ApplicationCatalog()
        catalog.ingest(run(1, nbytes=SIG))
        entry = catalog.ingest(run(2, nbytes=4 * SIG))
        assert entry.weight == pytest.approx(4 * SIG + entry.result.metadata_total, rel=0.1)
        assert entry.result.job_id == 2

    def test_lighter_run_keeps_reference(self):
        catalog = ApplicationCatalog()
        catalog.ingest(run(1, nbytes=4 * SIG))
        entry = catalog.ingest(run(2, nbytes=SIG))
        assert entry.result.job_id == 1
        assert entry.n_runs == 2

    def test_corrupted_traces_rejected_not_raised(self):
        catalog = ApplicationCatalog()
        assert catalog.ingest(corrupted(1)) is None
        assert catalog.n_rejected == 1
        assert len(catalog) == 0

    def test_stability_tracks_agreement(self):
        catalog = ApplicationCatalog()
        catalog.ingest(run(1))
        catalog.ingest(run(2))          # same behaviour
        entry = catalog.ingest(run(3, nbytes=10))  # deviant tiny run
        assert entry.n_runs == 3
        assert entry.n_agreeing == 2
        assert entry.stability == pytest.approx(2 / 3)

    def test_matches_batch_pipeline(self, small_fleet):
        """Streaming ingestion must converge to the batch result."""
        catalog = ApplicationCatalog()
        for trace in small_fleet.traces:
            catalog.ingest(trace)

        batch = preprocess_corpus(small_fleet.traces)
        assert len(catalog) == batch.n_selected
        assert catalog.n_rejected == batch.n_corrupted
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
            catalog.ingest(trace)
        shares = category_shares(catalog.results(), catalog.run_weights())
        assert shares.n_apps == len(catalog)


class TestCatalogFaultIsolation:
    @pytest.fixture
    def broken_categorizer(self, monkeypatch):
        import repro.core.stream as stream_mod

        def boom(trace, config):
            raise RuntimeError("categorizer bug")

        monkeypatch.setattr(stream_mod, "categorize_trace", boom)

    def test_failing_categorization_dropped_not_raised(self, broken_categorizer):
        catalog = ApplicationCatalog()
        assert catalog.ingest(run(1)) is None
        assert catalog.n_failed == 1
        assert len(catalog) == 0

    def test_repeat_offender_quarantined(self, broken_categorizer):
        catalog = ApplicationCatalog(max_app_failures=2)
        catalog.ingest(run(1))
        catalog.ingest(run(2))
        assert catalog.n_quarantined == 1
        assert catalog.quarantined_apps() == [(1, "a")]
        # quarantined app is rejected at the door from now on
        rejected_before = catalog.n_rejected
        assert catalog.ingest(run(3)) is None
        assert catalog.n_rejected == rejected_before + 1
        assert catalog.n_failed == 2  # door rejection is not a new failure

    def test_failure_on_recategorize_keeps_reference(self, monkeypatch):
        import repro.core.stream as stream_mod

        catalog = ApplicationCatalog()
        entry = catalog.ingest(run(1))
        assert entry is not None
        reference = entry.result

        def boom(trace, config):
            raise RuntimeError("categorizer bug")

        monkeypatch.setattr(stream_mod, "categorize_trace", boom)
        # a heavier run fails: the catalog keeps serving the old answer
        again = catalog.ingest(run(2, nbytes=2 * SIG))
        assert again is entry
        assert entry.result is reference
        assert catalog.n_failed == 1


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
        assert set(stats) == {
            "n_apps", "n_ingested", "n_rejected", "n_failed", "n_degraded",
            "n_quarantined",
        }
