"""Degradation-ladder tests: budget assessment, subsampling, governed
categorization at every rung, and journal round-trips of degraded
results."""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_CONFIG,
    CategorizationResult,
    DegradationLevel,
    Governor,
    ResourceBudget,
    categorize_trace,
    load_results_jsonl,
    save_results_jsonl,
    subsample_ops,
)
from repro.core.governor import LADDER, OP_WORKING_SET_BYTES
from repro.darshan import Violation
from repro.synth import FleetConfig, flood_trace, generate_fleet


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetConfig(n_apps=20, mean_runs=2.0, corruption_fraction=0.0, seed=9)
    )


@pytest.fixture(scope="module")
def valid_trace(fleet):
    return next(t for t in fleet.traces if t.meta.job_id in fleet.truth)


def _n_ops(trace):
    """The raw operation count the governor admits ``trace`` by."""
    return len(trace.operations("read")) + len(trace.operations("write"))


def _config_for_level(trace, level):
    """A config whose budget lands ``trace`` exactly on ``level``."""
    n_ops = _n_ops(trace)
    if level is DegradationLevel.FULL:
        return DEFAULT_CONFIG.with_overrides(budget=ResourceBudget(max_ops=n_ops))
    if level is DegradationLevel.COARSE:
        return DEFAULT_CONFIG.with_overrides(
            budget=ResourceBudget(max_ops=max(1, n_ops // 2))
        )
    if level is DegradationLevel.MINIMAL:
        return DEFAULT_CONFIG.with_overrides(
            budget=ResourceBudget(max_ops=max(1, n_ops // 16))
        )
    return DEFAULT_CONFIG.with_overrides(
        budget=ResourceBudget(max_ops=1, coarse_factor=1.2, minimal_factor=1.5)
    )


class TestResourceBudget:
    def test_default_is_unlimited(self):
        assert ResourceBudget().unlimited

    def test_assess_walks_the_ladder(self):
        budget = ResourceBudget(max_ops=100)
        assert budget.assess(100, 0) is DegradationLevel.FULL
        assert budget.assess(101, 0) is DegradationLevel.COARSE
        assert budget.assess(800, 0) is DegradationLevel.COARSE
        assert budget.assess(801, 0) is DegradationLevel.MINIMAL
        assert budget.assess(6400, 0) is DegradationLevel.MINIMAL
        assert budget.assess(6401, 0) is DegradationLevel.FLAGGED

    def test_byte_budget_alone_governs(self):
        budget = ResourceBudget(max_bytes=OP_WORKING_SET_BYTES)
        assert budget.assess(1, OP_WORKING_SET_BYTES) is DegradationLevel.FULL
        assert budget.assess(2, 2 * OP_WORKING_SET_BYTES) is not DegradationLevel.FULL

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBudget(max_ops=-1)
        with pytest.raises(ValueError):
            ResourceBudget(coarse_factor=0.5)
        with pytest.raises(ValueError):
            ResourceBudget(coarse_factor=8.0, minimal_factor=4.0)

    def test_level_ordering(self):
        ranks = [level.rank for level in LADDER]
        assert ranks == sorted(ranks)
        assert DegradationLevel.MINIMAL.at_least(DegradationLevel.COARSE)
        assert not DegradationLevel.FULL.at_least(DegradationLevel.COARSE)


class TestSubsampleOps:
    def test_preserves_total_volume_exactly(self, valid_trace):
        ops = valid_trace.operations("read")
        if len(ops) < 4:
            pytest.skip("trace too small to subsample")
        target = max(2, len(ops) // 2)
        small = subsample_ops(ops, target)
        assert len(small) <= target
        assert int(small.volumes.sum()) == int(ops.volumes.sum())

    def test_noop_when_under_target(self, valid_trace):
        ops = valid_trace.operations("read")
        assert subsample_ops(ops, len(ops) + 10) is ops


class TestGovernedCategorization:
    @pytest.mark.parametrize("level", list(LADDER))
    def test_schema_complete_at_every_level(self, valid_trace, level):
        cfg = _config_for_level(valid_trace, level)
        result = categorize_trace(valid_trace, cfg)
        assert result.degradation is level
        full_keys = set(
            categorize_trace(valid_trace, DEFAULT_CONFIG).to_dict().keys()
        )
        assert set(result.to_dict().keys()) == full_keys

    def test_ungoverned_run_is_full_and_violation_free(self, valid_trace):
        result = categorize_trace(valid_trace, DEFAULT_CONFIG)
        assert result.degradation is DegradationLevel.FULL
        assert result.budget_violations == ()

    def test_coarse_categories_stay_close_to_full(self, fleet):
        """Subsampling preserves total volume exactly, so the volume-based
        significance categories must match the full run's; other axes may
        coarsen but never invent activity the full run found empty."""
        from repro.core import Category

        volume_axis = {
            Category.READ_INSIGNIFICANT,
            Category.WRITE_INSIGNIFICANT,
        }
        n_checked = 0
        for trace in fleet.traces:
            if trace.meta.job_id not in fleet.truth:
                continue
            full = categorize_trace(trace, DEFAULT_CONFIG)
            cfg = _config_for_level(trace, DegradationLevel.COARSE)
            coarse = categorize_trace(trace, cfg)
            if coarse.degradation is not DegradationLevel.COARSE:
                continue  # tiny trace: nothing to subsample
            n_checked += 1
            assert coarse.categories & volume_axis == full.categories & volume_axis
            assert coarse.run_time == full.run_time
        assert n_checked >= 5

    def test_flagged_result_is_identity_only(self, valid_trace):
        cfg = _config_for_level(valid_trace, DegradationLevel.FLAGGED)
        result = categorize_trace(valid_trace, cfg)
        assert result.degradation is DegradationLevel.FLAGGED
        assert result.categories == frozenset()
        assert result.budget_violations
        assert any(
            Violation.RESOURCE_BUDGET.value in v for v in result.budget_violations
        )

    def test_flood_preserves_categories_until_governed(self, valid_trace):
        rng = np.random.default_rng(0)
        flooded = flood_trace(valid_trace, rng, factor=8)
        full = categorize_trace(valid_trace, DEFAULT_CONFIG)
        assert categorize_trace(flooded, DEFAULT_CONFIG).categories == full.categories
        n_ops = _n_ops(valid_trace)
        governed = categorize_trace(
            flooded,
            DEFAULT_CONFIG.with_overrides(budget=ResourceBudget(max_ops=n_ops)),
        )
        assert governed.degradation is not DegradationLevel.FULL


class TestGovernorDeadline:
    def test_deadline_overrun_escalates_to_minimal(self):
        gov = Governor(ResourceBudget(max_ops=10**9, stage_deadline_s=1e-9))
        gov.start_stage()
        for _ in range(1000):
            pass
        level = gov.check_deadline("merge")
        assert level is DegradationLevel.MINIMAL
        assert gov.violations

    def test_no_deadline_means_no_escalation(self):
        gov = Governor(ResourceBudget(max_ops=10**9))
        gov.start_stage()
        assert gov.check_deadline("merge") is DegradationLevel.FULL


class TestDegradedJournalRoundTrip:
    @pytest.mark.parametrize("level", list(LADDER))
    def test_dict_roundtrip_at_every_level(self, valid_trace, level):
        cfg = _config_for_level(valid_trace, level)
        result = categorize_trace(valid_trace, cfg)
        again = CategorizationResult.from_dict(result.to_dict())
        assert again == result
        assert again.degradation is level

    def test_jsonl_roundtrip_is_byte_identical(self, valid_trace, tmp_path):
        results = [
            categorize_trace(valid_trace, _config_for_level(valid_trace, level))
            for level in LADDER
        ]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_results_jsonl(results, str(first))
        save_results_jsonl(list(load_results_jsonl(str(first))), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_legacy_dict_without_ladder_fields_loads_full(self, valid_trace):
        d = categorize_trace(valid_trace, DEFAULT_CONFIG).to_dict()
        d.pop("degradation")
        d.pop("budget_violations")
        legacy = CategorizationResult.from_dict(d)
        assert legacy.degradation is DegradationLevel.FULL
        assert legacy.budget_violations == ()
