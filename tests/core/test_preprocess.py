"""Unit tests for corpus pre-processing (paper §III-B1, Fig. 3)."""

import pytest

from repro.core import preprocess_corpus, scan_corpus
from repro.darshan import InMemorySource, Violation

from tests.conftest import make_record, make_trace


def run(job_id, uid, exe, nbytes, run_time=1000.0):
    return make_trace(
        [make_record(1, 0, read=(0.0, 10.0, nbytes))],
        job_id=job_id,
        uid=uid,
        exe=exe,
        run_time=run_time,
    )


def corrupted(job_id):
    trace = make_trace([], job_id=job_id)
    trace.meta.end_time = trace.meta.start_time - 1.0
    return trace


class TestValidityFiltering:
    def test_corrupted_traces_evicted(self):
        traces = [run(1, 1, "a", 100), corrupted(2), corrupted(3)]
        pre = preprocess_corpus(traces)
        assert pre.n_input == 3
        assert pre.n_corrupted == 2
        assert pre.n_valid == 1
        assert pre.corrupted_fraction == pytest.approx(2 / 3)

    def test_corruption_histogram(self):
        pre = preprocess_corpus([corrupted(1), corrupted(2)])
        assert pre.corruption_histogram[Violation.NEGATIVE_RUNTIME] == 2


class TestDeduplication:
    def test_keeps_heaviest_run_per_app(self):
        traces = [run(1, 7, "sim", 100), run(2, 7, "sim", 9999), run(3, 7, "sim", 50)]
        pre = preprocess_corpus(traces)
        assert pre.n_selected == 1
        assert pre.selected[0].meta.job_id == 2
        assert pre.runs_per_app[(7, "sim")] == 3

    def test_different_users_not_merged(self):
        traces = [run(1, 7, "sim", 100), run(2, 8, "sim", 100)]
        assert preprocess_corpus(traces).n_selected == 2

    def test_different_exes_not_merged(self):
        traces = [run(1, 7, "a", 100), run(2, 7, "b", 100)]
        assert preprocess_corpus(traces).n_selected == 2

    def test_tie_breaks_deterministically(self):
        traces = [run(5, 7, "sim", 100), run(2, 7, "sim", 100)]
        pre = preprocess_corpus(traces)
        assert pre.selected[0].meta.job_id == 2

    def test_unique_fraction(self):
        traces = [run(i, 7, "sim", 100) for i in range(1, 11)]
        pre = preprocess_corpus(traces)
        assert pre.unique_fraction == pytest.approx(0.1)

    def test_selected_sorted_by_job_id(self):
        traces = [run(9, 1, "c", 1), run(3, 2, "b", 1), run(5, 3, "a", 1)]
        ids = [t.meta.job_id for t in preprocess_corpus(traces).selected]
        assert ids == sorted(ids)


class TestFunnel:
    def test_funnel_stages(self):
        traces = [run(1, 7, "sim", 100), run(2, 7, "sim", 200), corrupted(3)]
        pre = preprocess_corpus(traces)
        stages = dict(pre.funnel())
        assert stages == {
            "input_traces": 3,
            "valid_traces": 2,
            "selected_for_categorization": 1,
        }

    def test_empty_corpus(self):
        pre = preprocess_corpus([])
        assert pre.n_input == 0
        assert pre.corrupted_fraction == 0.0
        assert pre.unique_fraction == 0.0


class TestScanOutsideTheRecordLayout:
    """Values the MOSD record layout cannot hold take the scalar route,
    and weights whose int64 sum would wrap are summed exactly."""

    def test_counter_beyond_int64_is_weighed_exactly(self):
        big = run(1, 1, "a", 2**70)
        small = run(2, 1, "a", 100)
        pre = preprocess_corpus([small, big])
        assert pre.n_corrupted == 0
        assert [t.meta.job_id for t in pre.selected] == [1]

    def test_nprocs_beyond_int64_is_valid(self):
        trace = run(1, 1, "a", 100)
        trace.meta.nprocs = 2**70
        assert preprocess_corpus([trace]).n_corrupted == 0

    def test_fractional_counter_is_not_truncated(self):
        # 0.5 opens without an open/close window is a violation; a
        # truncating cast to 0 would hide it
        trace = run(1, 1, "a", 100)
        trace.records[0].open_start = trace.records[0].close_end = -1.0
        trace.records[0].opens = 0.5
        pre = preprocess_corpus([trace])
        assert pre.corruption_histogram == {Violation.OPENS_WITHOUT_CLOSE_WINDOW: 1}

    def test_total_past_int64_does_not_wrap(self):
        def heavy(job_id, per_record):
            return make_trace(
                [
                    make_record(i, 0, read=(0.0, 10.0, per_record))
                    for i in range(1, 3)
                ],
                job_id=job_id,
                uid=1,
                exe="a",
            )

        # each record fits int64, the per-trace total (2**63) does not
        wide = heavy(1, 2**62)
        narrow = heavy(2, 2**61)
        pre = preprocess_corpus([narrow, wide])
        assert [t.meta.job_id for t in pre.selected] == [1]
        plan = scan_corpus(InMemorySource([narrow, wide]))
        assert plan.refs[0].io_weight == wide.io_weight()


def _sequential_plan(traces):
    """Pass ① as one loop over traces: the rule ``scan_corpus`` folds
    per batch, applied run by run."""
    from collections import Counter

    from repro.darshan.validate import validate_trace

    best, runs, corruption = {}, {}, Counter()
    for position, trace in enumerate(traces):
        report = validate_trace(trace)
        if not report.valid:
            corruption.update(report.categories())
            continue
        key, job_id, weight = trace.meta.app_key, trace.meta.job_id, trace.io_weight()
        runs[key] = runs.get(key, 0) + 1
        current = best.get(key)
        if (
            current is None
            or weight > current[2]
            or (weight == current[2] and job_id < current[1])
        ):
            best[key] = (position, job_id, weight)
    refs = sorted(best.items(), key=lambda item: item[1][1])
    return [(key, *entry) for key, entry in refs], list(runs.items()), corruption


def _nan_seeks(job_id, uid, exe):
    trace = run(job_id, uid, exe, 100)
    trace.records[0].seeks = float("nan")  # weighs NaN, still valid
    return trace


class TestBatchFold:
    """``scan_corpus`` ranks each batch's runs with one sort; the plan
    must be the one a run-by-run loop gives, across batch boundaries."""

    @pytest.mark.parametrize("budget", [300, 1500, 1 << 20])
    def test_matches_a_run_by_run_loop(self, budget, monkeypatch):
        import random

        import repro.darshan.source as source_module

        rng = random.Random(budget)
        traces = []
        for job_id in range(1, 400):
            uid = rng.randrange(3)
            exe = rng.choice(["a", "b", "c", "é"])
            kind = rng.random()
            if kind < 0.1:
                traces.append(corrupted(job_id))
            elif kind < 0.15:
                traces.append(_nan_seeks(job_id, uid, exe))
            elif kind < 0.2:  # beyond int64: handled as a trace
                traces.append(run(2**70 + job_id, uid, exe, rng.choice([100, 200])))
            else:  # few distinct weights and repeated job ids: ties
                traces.append(run(job_id % 50, uid, exe, rng.choice([100, 200, 300])))
        monkeypatch.setattr(source_module, "BATCH_BYTES", budget)
        plan = scan_corpus(InMemorySource(traces))
        refs, runs, corruption = _sequential_plan(traces)
        got = [(e.app_key, e.ref.key, e.job_id, e.io_weight) for e in plan.refs]
        assert [(k, p, j) for k, p, j, _ in got] == [(k, p, j) for k, p, j, _ in refs]
        assert [w for *_, w in got] == pytest.approx([w for *_, w in refs], nan_ok=True)
        assert list(plan.runs_per_app.items()) == runs
        assert plan.corruption_histogram == corruption

    @pytest.mark.parametrize("first_nan", [False, True])
    def test_nan_weight_holds_only_as_an_application_first_run(self, first_nan):
        heavy = run(5, 1, "a", 10_000)
        nan = _nan_seeks(3, 1, "a")
        traces = [nan, heavy] if first_nan else [heavy, nan]
        (entry,) = scan_corpus(InMemorySource(traces)).refs
        assert entry.job_id == (3 if first_nan else 5)
