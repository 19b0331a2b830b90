"""Pass ① of a compiled store runs once per attachment.

``run_pipeline_store`` keeps the store's :class:`SelectionPlan` on the
attached :class:`CorpusStore`, so it shares the attach cache's
invalidation: a recompiled store is a new attachment with a fresh scan,
and ``detach_all`` drops every memo.  Each run still owns its plan's
mutable containers, and a repair mismatch is still refused.
"""

import pytest

import repro.columnar.scan as scan_module
from repro.columnar import compile_corpus, detach_all
from repro.core import run_pipeline_store
from repro.darshan import InMemorySource
from repro.synth import FleetConfig, generate_fleet


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetConfig(n_apps=24, mean_runs=2.0, seed=29))


@pytest.fixture
def store(tmp_path, fleet):
    path = tmp_path / "fleet.mosc"
    compile_corpus(InMemorySource(fleet.traces), path)
    detach_all()
    yield path
    detach_all()


@pytest.fixture
def scans(monkeypatch):
    """Count the calls ``run_pipeline_store`` makes to ``scan_store``."""
    calls = []
    real = scan_module.scan_store

    def counting(store, **kwargs):
        calls.append(store.path)
        return real(store, **kwargs)

    monkeypatch.setattr(scan_module, "scan_store", counting)
    return calls


def _lines(run):
    return [r.json_line() for r in run.results]


def test_second_job_on_one_attachment_does_not_rescan(store, scans):
    first = run_pipeline_store(store)
    second = run_pipeline_store(store)
    assert len(scans) == 1
    assert _lines(second) == _lines(first)
    assert second.preprocess == first.preprocess
    assert second.metrics["traces_scanned"] == first.metrics["traces_scanned"]


def test_recompiled_store_gets_a_fresh_plan(store, scans, fleet):
    before = run_pipeline_store(store)
    compile_corpus(InMemorySource(fleet.traces[: len(fleet.traces) // 2]), store)
    after = run_pipeline_store(store)
    assert len(scans) == 2
    assert after.preprocess.n_input < before.preprocess.n_input
    detach_all()
    assert _lines(run_pipeline_store(store)) == _lines(after)


def test_repair_mismatch_still_raises_on_a_memo_hit(store, scans):
    run_pipeline_store(store)
    with pytest.raises(ValueError, match="repair"):
        run_pipeline_store(store, repair=True)
    assert len(scans) == 2


def test_each_run_owns_its_plan_containers(store):
    first = run_pipeline_store(store)
    runs_per_app = dict(first.preprocess.runs_per_app)
    histogram = dict(first.preprocess.corruption_histogram)
    first.preprocess.runs_per_app.clear()
    first.preprocess.corruption_histogram["bogus"] += 7
    second = run_pipeline_store(store)
    assert second.preprocess.runs_per_app == runs_per_app
    assert dict(second.preprocess.corruption_histogram) == histogram


def test_detach_all_drops_the_memo(store, scans):
    run_pipeline_store(store)
    run_pipeline_store(store)
    detach_all()
    run_pipeline_store(store)
    assert len(scans) == 2
