"""Unit tests for the content-addressed result cache.

The cache is a performance artifact with a hard correctness rider: a
hit must serve the exact line the pipeline journaled, and *nothing*
the cache does — missing entries, torn or foreign segment bytes,
unwritable roots — may fail the categorization that consulted it.
"""

import errno
import json
import os
import shutil

import numpy as np

from repro.columnar import attach, compile_corpus
from repro.core import PipelineContext, run_pipeline_store, save_results_jsonl
from repro.core.thresholds import DEFAULT_CONFIG
from repro.darshan import InMemorySource
from repro.io import scoped_io
from repro.service import ResultCache, config_namespace
from repro.synth import FleetConfig, generate_fleet
from repro.testing import FAULT_SHORT_WRITE, StorageChaos

#: A result-cache root as a cold ``run_pipeline_store`` over the seed-5,
#: 18-application fleet of :class:`TestPipelineCache` left it under
#: ``DEFAULT_CONFIG``, before entries held verbatim ``results.jsonl``
#: lines: one namespace directory holding one segment of compact JSON.
PARENT_CACHE = os.path.join(os.path.dirname(__file__), "data", "parent_cache")


def _segments(directory):
    return sorted(str(p) for p in directory.glob("*.seg"))


def _only_segment(directory):
    (segment,) = _segments(directory)
    return segment


class TestNamespace:
    def test_deterministic(self):
        assert config_namespace(DEFAULT_CONFIG) == config_namespace(DEFAULT_CONFIG)

    def test_repair_flag_re_namespaces(self):
        assert config_namespace(DEFAULT_CONFIG, repair=False) != (
            config_namespace(DEFAULT_CONFIG, repair=True)
        )

    def test_config_change_re_namespaces(self):
        tweaked = DEFAULT_CONFIG.with_overrides(n_chunks=DEFAULT_CONFIG.n_chunks + 1)
        assert config_namespace(tweaked) != config_namespace(DEFAULT_CONFIG)

    def test_for_config_installs_namespace(self, tmp_path):
        cache = ResultCache.for_config(tmp_path, DEFAULT_CONFIG, repair=True)
        assert cache.namespace == config_namespace(DEFAULT_CONFIG, repair=True)


class TestKeying:
    def test_key_is_content_addressed(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="ns")
        assert cache.trace_key(0xDEADBEEF, 7) == cache.trace_key(0xDEADBEEF, 7)
        assert cache.trace_key(0xDEADBEEF, 7) != cache.trace_key(0xDEADBEF0, 7)

    def test_key_depends_on_namespace(self, tmp_path):
        a = ResultCache(tmp_path, namespace="a")
        b = ResultCache(tmp_path, namespace="b")
        assert a.trace_key(1, 7) != b.trace_key(1, 7)

    def test_key_depends_on_job_id(self, tmp_path):
        # regression: the key used to be the 32-bit CRC alone, so two
        # traces whose CRCs collide were served each other's result
        cache = ResultCache(tmp_path, namespace="ns")
        assert cache.trace_key(0xDEADBEEF, 1) != cache.trace_key(0xDEADBEEF, 2)

    def test_key_masks_to_32_bits(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.trace_key(0x1_0000_0001, 7) == cache.trace_key(1, 7)

    def test_entries_append_to_one_segment_per_run(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="ns")
        for job in range(3):
            cache.put(cache.trace_key(job, job), json.dumps({"job": job}))
        cache.close()
        # one directory per namespace, holding nothing but segments
        assert os.listdir(tmp_path) == ["ns"]
        assert len(os.listdir(tmp_path / "ns")) == 1
        assert len(_segments(tmp_path / "ns")) == 1
        # the next run's puts start a segment of their own
        cache.put(cache.trace_key(9, 9), json.dumps({"job": 9}))
        cache.close()
        assert len(_segments(tmp_path / "ns")) == 2


class TestGetPut:
    def test_roundtrip_is_byte_stable(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="ns")
        key = cache.trace_key(42, 7)
        line = json.dumps({"uid": 100, "exe": "app.exe", "categories": ["io"]})
        cache.put(key, line)
        first = cache.get(key)
        assert first == line
        segment = _only_segment(tmp_path / "ns")
        with open(segment, "rb") as fh:
            raw_a = fh.read()
        # the entry carries the line verbatim
        assert raw_a.endswith(b" " + line.encode() + b"\n")
        cache.put(key, line)  # idempotent re-put
        cache.close()
        with open(segment, "rb") as fh:
            raw_b = fh.read()
        assert raw_a == raw_b
        assert (cache.hits, cache.misses, cache.put_errors) == (1, 0, 0)
        # a rebuilt index serves the same line
        rebuilt = ResultCache(tmp_path, namespace="ns")
        assert rebuilt.get(key) == line
        rebuilt.close()

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(cache.trace_key(1, 7)) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_torn_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        kept, torn = cache.trace_key(9, 7), cache.trace_key(10, 7)
        cache.put(kept, json.dumps({"ok": True}))
        cache.close()
        segment = _only_segment(tmp_path / "default")
        intact = os.path.getsize(segment)
        with open(segment, "ab") as fh:
            fh.write(f'{torn} 11 00000000 {{"ok": tr'.encode())  # torn
        rebuilt = ResultCache(tmp_path)
        assert rebuilt.get(torn) is None
        assert rebuilt.get(kept) == json.dumps({"ok": True})
        assert rebuilt.misses == 1
        # the rebuild cut the torn tail off: the segment ends on an entry
        assert os.path.getsize(segment) == intact
        assert rebuilt.truncated_bytes > 0
        rebuilt.close()

    def test_zero_filled_tail_is_truncated(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.trace_key(12, 7)
        cache.put(key, json.dumps({"v": 1}))
        cache.close()
        segment = _only_segment(tmp_path / "default")
        intact = os.path.getsize(segment)
        with open(segment, "ab") as fh:
            fh.write(b"\0" * 4096)  # a power cut's unwritten extent
        rebuilt = ResultCache(tmp_path)
        assert rebuilt.get(key) == json.dumps({"v": 1})
        assert rebuilt.stats()["truncated_bytes"] == 4096
        assert os.path.getsize(segment) == intact
        rebuilt.close()

    def test_foreign_entry_degrades_to_miss_and_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.trace_key(13, 7)
        cache.put(key, json.dumps({"value": 12345}))
        cache.close()
        segment = _only_segment(tmp_path / "default")
        with open(segment, "r+b") as fh:
            at = fh.read().index(b"12345")
            fh.seek(at)
            fh.write(b"54321")  # same length, another payload
        assert cache.get(key) is None  # the CRC catches it
        assert ResultCache(tmp_path).get(key) is None  # so does a rebuild
        cache.put(key, json.dumps({"value": 12345}))  # the miss left the index
        assert cache.get(key) == json.dumps({"value": 12345})
        cache.close()

    def test_entries_around_a_bad_line_still_serve(self, tmp_path):
        # a torn append that a retry re-wrote leaves a bad line in the
        # middle of a segment; the entries around it stay valid
        cache = ResultCache(tmp_path)
        first, second = cache.trace_key(1, 1), cache.trace_key(2, 2)
        cache.put(first, json.dumps({"i": 1}))
        cache._writer.append_line("not an entry")
        cache.put(second, json.dumps({"i": 2}))
        cache.close()
        rebuilt = ResultCache(tmp_path)
        assert rebuilt.get(first) == json.dumps({"i": 1})
        assert rebuilt.get(second) == json.dumps({"i": 2})
        assert rebuilt.truncated_bytes == 0
        rebuilt.close()

    def test_unwritable_root_counts_put_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")
        cache.put(cache.trace_key(3, 7), json.dumps({"x": 1}))  # must not raise
        assert cache.put_errors == 1

    def test_miss_then_put_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.trace_key(5, 7)
        assert cache.get(key) is None
        cache.put(key, json.dumps({"healed": True}))
        assert cache.get(key) == json.dumps({"healed": True})
        assert (cache.hits, cache.misses) == (1, 1)
        cache.close()

    def test_live_index_follows_a_retried_append(self, tmp_path):
        # the second put's first write lands half a line and fails
        # transiently; the retry leaves that fragment in the segment, so
        # the offsets of it and every later entry must account for it
        chaos = StorageChaos(tmp_path, script={("write", 1): FAULT_SHORT_WRITE})
        with scoped_io(chaos):
            cache = ResultCache(tmp_path, namespace="ns")
            entries = [
                (cache.trace_key(i, i), json.dumps({"i": i, "pad": "x" * 9 * i}))
                for i in range(4)
            ]
            for key, line in entries:
                cache.put(key, line)
        assert ("write", 1, FAULT_SHORT_WRITE) in chaos.injected
        assert cache.put_errors == 0
        assert [cache.get(key) for key, _line in entries] == [
            line for _key, line in entries
        ]
        cache.close()


class TestCommit:
    def test_one_fsync_per_commit_and_none_when_idle(self, tmp_path):
        chaos = StorageChaos(tmp_path)
        with scoped_io(chaos):
            cache = ResultCache(tmp_path, namespace="ns")
            cache.commit()  # nothing put yet
            assert chaos.counts["fsync"] == 0
            for i in range(5):
                cache.put(cache.trace_key(i, i), json.dumps({"i": i}))
            assert chaos.counts["fsync"] == 0
            cache.commit()
            assert chaos.counts["fsync"] == 1
            cache.commit()  # nothing new
            cache.close()
        assert chaos.counts["fsync"] == 1
        assert chaos.counts["fsync_dir"] == 0

    def test_warm_reads_open_each_segment_once(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, namespace="ns")
        keys = [cache.trace_key(i, i) for i in range(6)]
        for key in keys:
            cache.put(key, json.dumps({"k": key}))
        cache.close()
        warm = ResultCache(tmp_path, namespace="ns")
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        served = [warm.get(key) for key in keys]
        warm.close()
        monkeypatch.undo()
        assert served == [json.dumps({"k": key}) for key in keys]
        # one open to rebuild the index, one to serve every hit
        assert len(opened) == 2

    def test_failed_commit_counts_put_error_and_abandons_segment(self, tmp_path):
        chaos = StorageChaos(tmp_path, script={("fsync", 0): errno.ENOSPC})
        with scoped_io(chaos):
            cache = ResultCache(tmp_path, namespace="ns")
            cache.put(cache.trace_key(1, 1), json.dumps({"v": 1}))
            cache.commit()  # must not raise
            assert cache.put_errors == 1
            cache.put(cache.trace_key(2, 2), json.dumps({"v": 2}))
            cache.close()
        assert len(_segments(tmp_path / "ns")) == 2


class TestObservability:
    def test_hit_rate_empty_is_zero(self, tmp_path):
        assert ResultCache(tmp_path).hit_rate == 0.0

    def test_stats_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="ns")
        key = cache.trace_key(1, 7)
        cache.get(key)
        cache.put(key, json.dumps({"v": 1}))
        cache.get(key)
        cache.close()
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
            "put_errors": 0,
            "entries": 1,
            "segments": 1,
            "bytes": os.path.getsize(_only_segment(tmp_path / "ns")),
            "truncated_bytes": 0,
            "namespace": "ns",
        }


class TestPipelineCache:
    def test_crc_collision_serves_each_row_its_own_result(self, tmp_path, monkeypatch):
        # two distinct traces whose 32-bit CRCs collide: a warm run must
        # still hand each row the result computed for it
        fleet = generate_fleet(
            FleetConfig(n_apps=18, mean_runs=1.0, corruption_fraction=0.0, seed=3)
        )
        path = tmp_path / "pair.mosc"
        compile_corpus(InMemorySource(fleet.traces[:2]), path)
        store = attach(path, verify=True)
        monkeypatch.setattr(store, "trace_crcs", np.zeros_like(store.trace_crcs))

        cache = ResultCache.for_config(tmp_path / "cache", DEFAULT_CONFIG)
        cold = run_pipeline_store(path, context=PipelineContext(result_cache=cache))
        warm = run_pipeline_store(path, context=PipelineContext(result_cache=cache))
        assert cold.n_categorized == 2
        assert cold.results[0].job_id != cold.results[1].job_id
        assert warm.metrics["n_cache_hits"] == 2
        assert [r.to_dict() for r in warm.results] == [r.to_dict() for r in cold.results]

    def test_rebuilt_index_serves_a_warm_run_byte_identically(self, tmp_path):
        fleet = generate_fleet(
            FleetConfig(n_apps=18, mean_runs=1.0, corruption_fraction=0.0, seed=5)
        )
        path = tmp_path / "fleet.mosc"
        compile_corpus(InMemorySource(fleet.traces), path)
        root = tmp_path / "cache"
        cold = run_pipeline_store(
            path,
            context=PipelineContext(
                result_cache=ResultCache.for_config(root, DEFAULT_CONFIG)
            ),
        )
        # a fresh cache object (a restarted server) rebuilds its index
        rebuilt = ResultCache.for_config(root, DEFAULT_CONFIG)
        warm = run_pipeline_store(path, context=PipelineContext(result_cache=rebuilt))
        assert warm.metrics["n_cache_hits"] == cold.n_categorized
        assert "n_cache_misses" not in warm.metrics
        assert [r.to_dict() for r in warm.results] == [r.to_dict() for r in cold.results]
        assert rebuilt.stats()["entries"] == cold.n_categorized

    def test_warm_run_writes_the_cold_run_bytes(self, tmp_path):
        # hits pass their stored line through, unparsed, to the journal
        # and to results.jsonl: both match the cold run byte for byte
        fleet = generate_fleet(
            FleetConfig(n_apps=18, mean_runs=1.0, corruption_fraction=0.0, seed=5)
        )
        path = tmp_path / "fleet.mosc"
        compile_corpus(InMemorySource(fleet.traces), path)
        cache = ResultCache.for_config(tmp_path / "cache", DEFAULT_CONFIG)
        written = []
        for name in ("cold", "warm"):
            journal = tmp_path / f"{name}.jsonl"
            run = run_pipeline_store(
                path,
                context=PipelineContext(result_cache=cache),
                journal_path=journal,
            )
            save_results_jsonl(run.results, tmp_path / f"{name}.results.jsonl")
            written.append(
                (journal.read_bytes(), (tmp_path / f"{name}.results.jsonl").read_bytes())
            )
        assert run.metrics["n_cache_hits"] == run.n_categorized
        assert written[0] == written[1]

    def test_pre_change_segment_reads_as_misses(self, tmp_path):
        # PARENT_CACHE holds the segment a cold run over this fleet left
        # when entries were compact re-encodings; its lines must never be
        # served now that hits skip re-encoding
        fleet = generate_fleet(
            FleetConfig(n_apps=18, mean_runs=1.0, corruption_fraction=0.0, seed=5)
        )
        path = tmp_path / "fleet.mosc"
        compile_corpus(InMemorySource(fleet.traces), path)
        root = tmp_path / "cache"
        shutil.copytree(PARENT_CACHE, root)
        (old_namespace,) = os.listdir(root)
        old = ResultCache(root, namespace=old_namespace)
        store = attach(path, verify=True)
        keys = [old.trace_key(int(crc), int(job)) for crc, job in zip(
            store.trace_crcs, store.index["job_id"]
        )]
        assert sum(old.get(key) is not None for key in keys) == 18
        old.close()

        fresh = run_pipeline_store(path)
        cache = ResultCache.for_config(root, DEFAULT_CONFIG)
        assert cache.namespace != old_namespace
        run = run_pipeline_store(path, context=PipelineContext(result_cache=cache))
        assert "n_cache_hits" not in run.metrics
        assert run.metrics["n_cache_misses"] == run.n_categorized == 18
        save_results_jsonl(fresh.results, tmp_path / "fresh.jsonl")
        save_results_jsonl(run.results, tmp_path / "run.jsonl")
        assert (tmp_path / "run.jsonl").read_bytes() == (
            tmp_path / "fresh.jsonl"
        ).read_bytes()
