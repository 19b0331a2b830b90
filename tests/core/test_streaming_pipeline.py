"""Integration tests for the out-of-core streaming pipeline.

The acceptance bar: a disk corpus categorized through
``run_pipeline_stream`` must (a) never hold the whole corpus in memory —
peak resident ``Trace`` count stays far below corpus size — and (b)
produce a funnel and categorization results identical to the batch
``run_pipeline`` over the same traces.
"""

import gc

import pytest

from repro.core import (
    PipelineContext,
    run_pipeline,
    run_pipeline_stream,
    scan_corpus,
)
from repro.darshan import (
    DirectorySource,
    InMemorySource,
    Trace,
    TraceSource,
    dumps_binary,
    save_binary,
    save_json,
)
from repro.darshan import source as source_module
from repro.darshan.validate import Violation
from repro.parallel import ParallelConfig
from repro.synth import FleetConfig, generate_fleet

from tests.conftest import mosd_variants


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetConfig(n_apps=40, mean_runs=3.0, seed=21))


@pytest.fixture(scope="module")
def corpus_dir(fleet, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream-corpus")
    for trace in fleet.traces:
        save_binary(trace, path / f"job{trace.meta.job_id:08d}.mosd")
    return path


@pytest.fixture(scope="module")
def batch_result(fleet):
    return run_pipeline(fleet.traces)


class ProbedSource(TraceSource):
    """Delegating source that records loads and the peak number of live
    ``Trace`` objects (above a caller-set baseline) at load time."""

    def __init__(self, inner: TraceSource):
        self.inner = inner
        self.n_loads = 0
        self.peak_live = 0
        self.baseline = 0

    @staticmethod
    def live_traces() -> int:
        return sum(1 for o in gc.get_objects() if isinstance(o, Trace))

    def refs(self):
        return self.inner.refs()

    def load(self, ref):
        self.n_loads += 1
        self.peak_live = max(self.peak_live, self.live_traces() - self.baseline)
        return self.inner.load(ref)

    @property
    def bytes_read(self):
        return self.inner.bytes_read


class TestStreamMatchesBatch:
    def test_funnel_identical(self, corpus_dir, batch_result):
        streamed = run_pipeline_stream(DirectorySource(corpus_dir))
        assert streamed.preprocess.funnel() == batch_result.preprocess.funnel()
        assert (
            streamed.preprocess.corruption_histogram
            == batch_result.preprocess.corruption_histogram
        )
        assert streamed.preprocess.runs_per_app == batch_result.preprocess.runs_per_app

    def test_results_identical(self, corpus_dir, batch_result):
        streamed = run_pipeline_stream(DirectorySource(corpus_dir))
        assert [r.job_id for r in streamed.results] == [
            r.job_id for r in batch_result.results
        ]
        for a, b in zip(streamed.results, batch_result.results):
            assert (a.app_key, a.categories) == (b.app_key, b.categories)
        assert streamed.run_weights() == batch_result.run_weights()
        assert streamed.n_failures == batch_result.n_failures == 0

    def test_repair_parity(self, corpus_dir, fleet):
        streamed = run_pipeline_stream(DirectorySource(corpus_dir), repair=True)
        batch = run_pipeline(fleet.traces, repair=True)
        assert streamed.preprocess.n_repaired == batch.preprocess.n_repaired
        assert streamed.preprocess.funnel() == batch.preprocess.funnel()
        assert [r.job_id for r in streamed.results] == [
            r.job_id for r in batch.results
        ]

    def test_pool_matches_serial(self, corpus_dir):
        serial = run_pipeline_stream(DirectorySource(corpus_dir))
        pooled = run_pipeline_stream(
            DirectorySource(corpus_dir), parallel=ParallelConfig(max_workers=2)
        )
        assert [r.job_id for r in pooled.results] == [
            r.job_id for r in serial.results
        ]
        for a, b in zip(pooled.results, serial.results):
            assert a.categories == b.categories


class TestBoundedMemory:
    def test_peak_resident_traces_below_corpus_size(self, corpus_dir, fleet):
        source = ProbedSource(DirectorySource(corpus_dir))
        gc.collect()
        source.baseline = ProbedSource.live_traces()

        result = run_pipeline_stream(source)

        assert result.results
        # the whole point: the corpus was never resident at once
        assert source.peak_live < fleet.n_input
        # serial streaming holds O(1) traces: the one being loaded plus
        # at most a couple awaiting hand-off in the generator chain
        assert source.peak_live <= 4
        assert result.metrics["peak_inflight_traces"] <= 1

    def test_two_pass_load_accounting(self, corpus_dir, fleet):
        source = ProbedSource(DirectorySource(corpus_dir))
        result = run_pipeline_stream(source)
        # pass 1 decodes every trace once; pass 2 reloads only selected
        assert source.n_loads == fleet.n_input + result.n_categorized

    def test_bytes_read_split_by_stage(self, corpus_dir):
        source = DirectorySource(corpus_dir)
        total = sum(r.size_bytes for r in source.refs())
        selected_bytes = {
            r.key: r.size_bytes for r in source.refs()
        }
        result = run_pipeline_stream(source)
        assert result.metrics["scan_bytes_read"] == total
        assert 0 < result.metrics["categorize_bytes_read"] < total
        assert source.bytes_read == (
            result.metrics["scan_bytes_read"]
            + result.metrics["categorize_bytes_read"]
        )
        assert selected_bytes  # fixture sanity


class TestUnreadablePayloads:
    @pytest.fixture()
    def dirty_dir(self, fleet, tmp_path):
        sample = fleet.traces[:12]
        for trace in sample:
            save_binary(trace, tmp_path / f"job{trace.meta.job_id:08d}.mosd")
        # three flavors of on-disk corruption, none decodable
        payload = dumps_binary(sample[0])
        (tmp_path / "zz-truncated.mosd").write_bytes(payload[: len(payload) // 2])
        (tmp_path / "zz-badmagic.mosd").write_bytes(b"NOPE" + payload[4:])
        (tmp_path / "zz-garbage.json").write_text("{not json")
        return tmp_path, sample

    def test_scan_counts_unreadable_without_crashing(self, dirty_dir):
        path, sample = dirty_dir
        plan = scan_corpus(DirectorySource(path))
        assert plan.n_input == len(sample) + 3
        assert plan.n_unreadable == 3
        assert plan.corruption_histogram[Violation.UNREADABLE] == 3
        assert plan.n_corrupted >= 3

    def test_pipeline_results_unaffected_by_unreadable_files(self, dirty_dir):
        path, sample = dirty_dir
        dirty = run_pipeline_stream(DirectorySource(path))
        clean = run_pipeline(list(sample))
        assert dirty.metrics["n_unreadable"] == 3
        assert [r.job_id for r in dirty.results] == [
            r.job_id for r in clean.results
        ]
        for a, b in zip(dirty.results, clean.results):
            assert a.categories == b.categories


class TestPipelineContext:
    def test_rejects_unknown_error_policy(self):
        with pytest.raises(ValueError, match="error_policy"):
            PipelineContext(error_policy="ignore")

    def test_custom_context_collects_metrics(self, corpus_dir):
        ctx = PipelineContext()
        result = run_pipeline_stream(DirectorySource(corpus_dir), context=ctx)
        for key in (
            "traces_scanned",
            "n_corrupted",
            "n_selected",
            "scan_bytes_read",
            "peak_inflight_traces",
            "dedup_state_size",
        ):
            assert key in result.metrics, key
        for key in ("scan_s", "categorize_s", "total_s", "preprocess_s"):
            assert key in result.timings, key
        assert ctx.counters == result.metrics

    def test_batch_wrapper_equals_in_memory_stream(self, fleet):
        """run_pipeline(traces) is a wrapper over the same machinery as
        streaming an InMemorySource — spot-check they agree."""
        batch = run_pipeline(fleet.traces)
        streamed = run_pipeline_stream(InMemorySource(fleet.traces))
        assert batch.preprocess.funnel() == streamed.preprocess.funnel()
        assert [r.job_id for r in batch.results] == [
            r.job_id for r in streamed.results
        ]


class DelegatingSource(TraceSource):
    """Exposes only ``refs``/``load`` of another source, so a scan over
    it takes the default, ``load()``-driven batch path."""

    def __init__(self, inner: TraceSource):
        self.inner = inner

    def refs(self):
        return self.inner.refs()

    def load(self, ref):
        return self.inner.load(ref)

    @property
    def bytes_read(self):
        return self.inner.bytes_read


class CountingDirectorySource(DirectorySource):
    """A directory source that counts ``load()`` calls and can delete
    one of its files right after listing the directory."""

    def __init__(self, path, delete_after_refs=None):
        super().__init__(path)
        self.n_loads = 0
        self.delete_after_refs = delete_after_refs

    def _listing(self):
        entries = super()._listing()
        if self.delete_after_refs is not None and self.delete_after_refs.exists():
            self.delete_after_refs.unlink()
        return entries

    def load(self, ref):
        self.n_loads += 1
        return super().load(ref)


class LazyDeletingSource(DirectorySource):
    """A directory source that deletes one of its files once the first
    entry of its listing has been handed out."""

    def __init__(self, path, victim):
        super().__init__(path)
        self.victim = victim

    def _listing(self):
        entries = super()._listing()
        yield entries[0]
        self.victim.unlink()
        yield from entries[1:]


class TestScanFastPath:
    """The DirectorySource batch reader against the load()-driven path."""

    @pytest.fixture()
    def mixed_dir(self, fleet, tmp_path):
        import numpy as np

        from repro.darshan import save_text
        from repro.synth import corrupt_trace

        rng = np.random.default_rng(4)
        traces = []
        for i, trace in enumerate(fleet.traces[:60]):
            if i % 4 == 1:
                trace = corrupt_trace(trace, rng)
            traces.append(trace)
            stem = tmp_path / f"job{i:04d}"
            if i % 10 == 3:
                save_json(trace, f"{stem}.json")
            elif i % 10 == 7:
                save_text(trace, f"{stem}.darshan.txt")
            else:
                save_binary(trace, f"{stem}.mosd")
        donor = max(fleet.traces, key=len)
        for name, data in mosd_variants(donor).items():
            (tmp_path / f"bad-{name}.mosd").write_bytes(data)
        (tmp_path / "bad-garbage.json").write_text("{not json")
        victim = tmp_path / "job0002.mosd"
        return tmp_path, traces, victim

    @pytest.mark.parametrize("repair", [False, True])
    def test_plan_and_bytes_match_load_path(self, mixed_dir, repair):
        path, _, victim = mixed_dir
        fast_src = CountingDirectorySource(path)
        slow_inner = DirectorySource(path)
        fast = scan_corpus(fast_src, repair=repair)
        slow = scan_corpus(DelegatingSource(slow_inner), repair=repair)
        assert fast == slow
        assert list(fast.runs_per_app) == list(slow.runs_per_app)
        assert fast.n_unreadable == 12
        assert fast_src.bytes_read == slow_inner.bytes_read > 0
        # only the .json and .darshan.txt files go through load()
        assert fast_src.n_loads == 13

    @pytest.mark.parametrize("repair", [False, True])
    def test_file_deleted_after_listing(self, mixed_dir, repair):
        path, _, victim = mixed_dir
        fast = scan_corpus(
            CountingDirectorySource(path, delete_after_refs=victim), repair=repair
        )
        assert fast.n_unreadable == 13
        assert fast.corruption_histogram[Violation.UNREADABLE] == 13

    @pytest.mark.parametrize("repair", [False, True])
    def test_file_deleted_while_refs_are_consumed(self, mixed_dir, repair):
        path, _, _ = mixed_dir
        victim = max(path.glob("*.mosd"))
        payload = victim.read_bytes()
        plans = []
        for source in (
            LazyDeletingSource(path, victim),
            DelegatingSource(LazyDeletingSource(path, victim)),
        ):
            victim.write_bytes(payload)
            plans.append(scan_corpus(source, repair=repair))
            assert not victim.exists()
        fast, slow = plans
        assert fast == slow
        assert fast.n_input == 72
        assert fast.n_unreadable == 13
        assert fast.corruption_histogram[Violation.UNREADABLE] == 13

    def test_batch_refs_equal_listed_refs(self, mixed_dir, monkeypatch):
        path, _, _ = mixed_dir
        monkeypatch.setattr(source_module, "BATCH_BYTES", 20_000)
        source = DirectorySource(path)
        batches = list(source.record_batches())
        assert len(batches) > 3
        assert [r for b in batches for r in b.refs] == list(source.refs())

    @pytest.mark.parametrize("repair", [False, True])
    def test_matches_in_memory_source(self, mixed_dir, repair):
        path, traces, _ = mixed_dir
        on_disk = scan_corpus(DirectorySource(path), repair=repair)
        in_memory = scan_corpus(InMemorySource(traces), repair=repair)
        assert on_disk.n_input == in_memory.n_input + 12
        assert on_disk.n_corrupted == in_memory.n_corrupted + 12
        assert on_disk.n_repaired == in_memory.n_repaired
        histogram = on_disk.corruption_histogram.copy()
        del histogram[Violation.UNREADABLE]
        assert histogram == in_memory.corruption_histogram
        assert list(on_disk.runs_per_app.items()) == list(in_memory.runs_per_app.items())
        # ref keys differ (paths vs positions); everything else matches
        assert [
            (s.job_id, s.app_key, s.io_weight, s.repaired) for s in on_disk.selected
        ] == [
            (s.job_id, s.app_key, s.io_weight, s.repaired) for s in in_memory.selected
        ]

    @pytest.mark.parametrize("repair", [False, True])
    def test_stream_metrics_match_load_path(self, corpus_dir, repair):
        fast = run_pipeline_stream(DirectorySource(corpus_dir), repair=repair)
        slow = run_pipeline_stream(
            DelegatingSource(DirectorySource(corpus_dir)), repair=repair
        )
        assert fast.metrics["scan_bytes_read"] == slow.metrics["scan_bytes_read"]
        assert fast.preprocess.funnel() == slow.preprocess.funnel()
        assert [r.to_dict() for r in fast.results] == [
            r.to_dict() for r in slow.results
        ]

    @pytest.mark.parametrize("repair", [False, True])
    def test_mosd_scan_makes_no_load_calls(self, corpus_dir, repair):
        source = CountingDirectorySource(corpus_dir)
        plan = scan_corpus(source, repair=repair)
        assert plan.n_input > 0
        assert source.n_loads == 0

    def test_oversized_trace_is_a_batch_of_its_own(self, fleet, tmp_path, monkeypatch):
        small = fleet.traces[:6]
        big = max(fleet.traces, key=len)
        for i, trace in enumerate(small[:3] + [big] + small[3:]):
            save_binary(trace, tmp_path / f"job{i:04d}.mosd")
        budget = len(dumps_binary(big)) - 1
        assert all(len(dumps_binary(t)) * 3 < budget for t in small)
        monkeypatch.setattr(source_module, "BATCH_BYTES", budget)
        source = DirectorySource(tmp_path)
        batches = list(source.record_batches())
        keys = [ref.key for batch in batches for ref in batch.refs]
        assert keys == [ref.key for ref in source.refs()]
        alone = [b for b in batches if str(tmp_path / "job0003.mosd") in
                 [r.key for r in b.refs]]
        assert len(alone) == 1 and len(alone[0]) == 1
        assert int(alone[0].counts[0]) == len(big)
        for batch in batches:
            payload = sum(r.size_bytes for r in batch.refs)
            assert payload <= budget or len(batch) == 1

    def test_batch_records_equal_decoded_records(self, corpus_dir, monkeypatch):
        from repro.darshan import load_binary
        from repro.darshan.io_binary import RECORD_DTYPE

        monkeypatch.setattr(source_module, "BATCH_BYTES", 20_000)
        source = DirectorySource(corpus_dir)
        for batch in source.record_batches():
            ends = batch.counts.cumsum()
            for ref, meta, end, count in zip(
                batch.refs, batch.metas, ends, batch.counts
            ):
                trace = load_binary(ref.key)
                assert meta == trace.meta
                rows = batch.records[end - count : end]
                assert rows.tolist() == [
                    tuple(getattr(r, f) for f in RECORD_DTYPE.names)
                    for r in trace.records
                ]
