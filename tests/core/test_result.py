"""Unit tests for the result model and its JSON-lines persistence."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core import (
    CategorizationResult,
    Category,
    categorize_trace,
    load_results_jsonl,
    save_results_jsonl,
)

from tests.conftest import make_record, make_trace

SIG = 500 * 1024 * 1024

WORKLOADS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"


def _serve_mix_oracle_lines(cache_root):
    """The ``results.jsonl`` lines of the benchmark's serve-mix oracles
    (tiny size, seed 1), built with the benchmark's own generator."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    meta = workloads.prepare(str(cache_root), "serve-mix", "tiny", 1)
    lines = []
    for corpus in meta["corpora"]:
        with open(corpus["oracle"], encoding="utf-8") as fh:
            lines.extend(fh.read().splitlines())
    return lines


@pytest.fixture
def results():
    traces = [
        make_trace([make_record(1, 0, read=(0.0, 30.0, SIG))], job_id=1, uid=1, exe="a"),
        make_trace(
            [make_record(k, 0, write=(100.0 + 600.0 * k, 110.0 + 600.0 * k, SIG // 8))
             for k in range(16)],
            run_time=10000.0,
            job_id=2,
            uid=2,
            exe="b",
        ),
    ]
    return [categorize_trace(t) for t in traces]


class TestResultModel:
    def test_has(self, results):
        assert results[0].has(Category.READ_ON_START)
        assert not results[0].has(Category.WRITE_ON_END)

    def test_dict_roundtrip_preserves_everything(self, results):
        for r in results:
            again = CategorizationResult.from_dict(r.to_dict())
            assert again.categories == r.categories
            assert again.job_id == r.job_id
            assert again.chunk_volumes == r.chunk_volumes
            assert again.weak_temporality == r.weak_temporality
            assert again.metadata_total == r.metadata_total
            assert len(again.periodic_groups.get("write", [])) == len(
                r.periodic_groups.get("write", [])
            )

    def test_periodic_group_values_survive_roundtrip(self, results):
        r = results[1]
        again = CategorizationResult.from_dict(r.to_dict())
        g0 = r.periodic_groups["write"][0]
        g1 = again.periodic_groups["write"][0]
        assert g1.period == pytest.approx(g0.period)
        assert g1.n_occurrences == g0.n_occurrences
        assert g1.busy_fraction == pytest.approx(g0.busy_fraction)


class TestJsonl:
    def test_save_and_load(self, results, tmp_path):
        path = tmp_path / "results.jsonl"
        n = save_results_jsonl(results, path)
        assert n == 2
        loaded = list(load_results_jsonl(path))
        assert [r.job_id for r in loaded] == [1, 2]
        assert loaded[0].categories == results[0].categories

    def test_blank_lines_skipped(self, results, tmp_path):
        path = tmp_path / "results.jsonl"
        save_results_jsonl(results, path)
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert len(list(load_results_jsonl(path))) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_results_jsonl([], path)
        assert list(load_results_jsonl(path)) == []


class TestCanonicalLine:
    def test_json_line_is_the_saved_line(self, results, tmp_path):
        path = tmp_path / "results.jsonl"
        save_results_jsonl(results, path)
        assert path.read_text().splitlines() == [r.json_line() for r in results]
        assert [r.json_line() for r in results] == [
            json.dumps(r.to_dict()) for r in results
        ]

    def test_from_json_line_keeps_the_given_line(self, results):
        line = results[1].json_line()
        again = CategorizationResult.from_json_line(line)
        assert again == results[1]
        assert again.json_line() is line

    def test_serve_mix_oracle_lines_round_trip(self, tmp_path):
        # rehydrating a line and encoding it afresh gives its bytes back,
        # so a cache hit or a journaled result passed through verbatim
        # writes what a re-run would
        lines = _serve_mix_oracle_lines(tmp_path)
        assert len(lines) > 20
        for line in lines:
            again = CategorizationResult.from_dict(json.loads(line))
            assert again.json_line() == line
            assert CategorizationResult.from_json_line(line).json_line() == line
