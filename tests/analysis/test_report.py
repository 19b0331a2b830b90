"""Tests for the consolidated corpus report."""

import pytest

from repro.analysis.report import build_report


@pytest.fixture(scope="module")
def report(small_pipeline):
    return build_report(small_pipeline)


class TestCorpusReport:
    def test_carries_every_artifact(self, report, small_pipeline):
        assert report.n_categorized == small_pipeline.n_categorized
        assert report.funnel.stages[0].count == small_pipeline.preprocess.n_input
        assert set(report.table3) == {
            "read_single", "read_all", "write_single", "write_all",
        }
        assert set(report.table2) == {"single_run", "all_runs"}
        assert set(report.fig4) == {"single_run", "all_runs"}

    def test_render_contains_all_sections(self, report):
        text = report.render()
        for needle in (
            "Fig. 3", "Table II", "Table III", "Fig. 4", "Fig. 5",
            "Noteworthy correlations", "read_on_start", "Run health",
        ):
            assert needle in text

    def test_funnel_lists_causes_in_report_order(self, report):
        causes = report.funnel.corruption_causes
        assert causes
        line = "  causes: " + ", ".join(f"{k}={n}" for k, n in causes.items())
        funnel = report.render().split("\n\n")[0]
        assert funnel.splitlines()[-1] == line

    def test_run_health_counters(self, report, small_pipeline):
        assert report.run_health["n_failures"] == small_pipeline.n_failures
        assert report.run_health["n_degraded"] == (
            small_pipeline.metrics.get("n_degraded", 0)
        )
        assert report.run_health["n_quarantined"] == (
            small_pipeline.metrics.get("n_quarantined", 0)
        )
        text = report.render()
        assert "degraded:" in text
        assert "quarantined:" in text

    def test_values_consistent_with_direct_calls(self, report, small_pipeline):
        from repro.analysis import periodicity_table

        direct = periodicity_table(
            small_pipeline.results, small_pipeline.run_weights(), "write"
        )
        assert report.table2 == direct
