"""A cache hit folds as its line, never rehydrated.

:class:`ResultLine` reads from a verified ``results.jsonl`` line exactly
what a catalog fold and the run counters read.  For every line it must
agree with the fully rehydrated :class:`CategorizationResult`: the same
application key, categories, degradation rung and — compared with ``==``
on floats — the same keep-heaviest weight.
"""

import pytest

from repro.core import run_pipeline
from repro.core.governor import DegradationLevel, ResourceBudget
from repro.core.result import CategorizationResult
from repro.core.stream import ApplicationCatalog, ResultLine, result_weight
from repro.core.thresholds import DEFAULT_CONFIG
from repro.synth import FleetConfig, generate_fleet


@pytest.fixture(scope="module")
def lines():
    """Lines of cold results plus budget-degraded and FLAGGED ones."""
    fleet = generate_fleet(FleetConfig(n_apps=40, mean_runs=1.0, seed=17))
    cold = run_pipeline(fleet.traces).results
    governed = run_pipeline(
        fleet.traces,
        DEFAULT_CONFIG.with_overrides(
            budget=ResourceBudget(max_ops=8, coarse_factor=2.0, minimal_factor=8.0)
        ),
    ).results
    return [r.json_line() for r in cold + governed]


def test_fixture_covers_every_kind_of_line(lines):
    results = [CategorizationResult.from_json_line(line) for line in lines]
    levels = {r.degradation for r in results}
    assert DegradationLevel.FULL in levels
    assert DegradationLevel.FLAGGED in levels
    assert DegradationLevel.COARSE in levels
    assert DegradationLevel.MINIMAL in levels
    assert any(v is None for r in results for v in r.chunk_volumes.values())
    assert any(v for r in results for v in r.chunk_volumes.values())
    assert any(not r.categories for r in results)


def test_hit_record_folds_like_the_rehydrated_result(lines):
    for line in lines:
        full = CategorizationResult.from_json_line(line)
        hit = ResultLine(line)
        assert hit.json_line() == line
        assert hit.app_key == full.app_key
        assert (hit.uid, hit.exe) == (full.uid, full.exe)
        assert hit.categories == full.categories
        assert hit.degradation is full.degradation
        assert result_weight(hit) == result_weight(full)
        assert hit.to_dict() == full.to_dict()
        assert hit.result() == full


def test_equal_category_lists_share_one_set(lines):
    by_names = {}
    for line in lines:
        hit = ResultLine(line)
        names = tuple(sorted(c.value for c in hit.categories))
        assert by_names.setdefault(names, hit.categories) is hit.categories


def test_catalog_of_hits_equals_catalog_of_results(lines):
    # fold the lines twice (a warm job after a cold one): as hit records
    # into one catalog, as rehydrated results into another
    hits, full = ApplicationCatalog(), ApplicationCatalog()
    for line in lines + lines[::-1]:
        record = ResultLine(line)
        result = CategorizationResult.from_json_line(line)
        hits.fold(record, result_weight(record))
        full.fold(result, result_weight(result))
    assert hits.stats() == full.stats()
    assert [
        (e.result.json_line(), e.weight, e.n_runs, e.n_agreeing)
        for e in hits.entries()
    ] == [
        (e.result.json_line(), e.weight, e.n_runs, e.n_agreeing)
        for e in full.entries()
    ]
    assert hits.results() == full.results()
