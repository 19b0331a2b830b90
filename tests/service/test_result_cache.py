"""Unit tests for the content-addressed result cache.

The cache is a performance artifact with a hard correctness rider: a
hit must serve the exact payload the pipeline journaled, and *nothing*
the cache does — missing entries, torn JSON, unwritable roots — may
fail the categorization that consulted it.
"""

import json
import os

import numpy as np

from repro.columnar import attach, compile_corpus
from repro.core import PipelineContext, run_pipeline_store
from repro.core.thresholds import DEFAULT_CONFIG
from repro.darshan import InMemorySource
from repro.service import ResultCache, config_namespace
from repro.synth import FleetConfig, generate_fleet


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

    def test_entry_path_fans_out_by_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.trace_key(7, 7)
        path = cache.entry_path(key)
        assert path == os.path.join(str(tmp_path), key[:2], f"{key}.json")


class TestGetPut:
    def test_roundtrip_is_byte_stable(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="ns")
        key = cache.trace_key(42, 7)
        payload = {"uid": 100, "exe": "app.exe", "categories": ["interference"]}
        cache.put(key, payload)
        first = cache.get(key)
        assert first == payload
        with open(cache.entry_path(key), "rb") as fh:
            raw_a = fh.read()
        cache.put(key, payload)  # idempotent re-put
        with open(cache.entry_path(key), "rb") as fh:
            raw_b = fh.read()
        assert raw_a == raw_b
        assert (cache.hits, cache.misses, cache.put_errors) == (1, 0, 0)

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(cache.trace_key(1, 7)) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_torn_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.trace_key(9, 7)
        cache.put(key, {"ok": True})
        with open(cache.entry_path(key), "w", encoding="utf-8") as fh:
            fh.write('{"ok": tr')  # torn mid-token
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_non_dict_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.trace_key(11, 7)
        os.makedirs(os.path.dirname(cache.entry_path(key)), exist_ok=True)
        with open(cache.entry_path(key), "w", encoding="utf-8") as fh:
            json.dump([1, 2, 3], fh)
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_unwritable_root_counts_put_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")
        cache.put(cache.trace_key(3, 7), {"x": 1})  # must not raise
        assert cache.put_errors == 1

    def test_miss_then_put_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.trace_key(5, 7)
        assert cache.get(key) is None
        cache.put(key, {"healed": True})
        assert cache.get(key) == {"healed": True}
        assert (cache.hits, cache.misses) == (1, 1)


class TestObservability:
    def test_hit_rate_empty_is_zero(self, tmp_path):
        assert ResultCache(tmp_path).hit_rate == 0.0

    def test_stats_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="ns")
        key = cache.trace_key(1, 7)
        cache.get(key)
        cache.put(key, {"v": 1})
        cache.get(key)
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
            "put_errors": 0,
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
