"""One-call corpus report: everything §IV prints, as text and data.

``build_report`` bundles the funnel, Tables II/III, Fig. 4, the Fig. 5
Jaccard pairs and the §IV-D correlations into one structure with a
``render()`` method: the text ``mosaic report`` prints, and the object
examples/notebooks want to work with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.pipeline import PipelineResult
from .correlations import CorrelationReport, paper_correlations
from .funnel import FunnelReport, funnel_report
from .jaccard import JaccardMatrix, jaccard_matrix
from .stats import metadata_table, periodicity_table, temporality_table

__all__ = ["CorpusReport", "build_report"]


@dataclass(slots=True, frozen=True)
class CorpusReport:
    """All §IV artifacts of one pipeline run."""

    funnel: FunnelReport
    table2: dict[str, dict[str, float]]
    table3: dict[str, dict[str, float]]
    fig4: dict[str, dict[str, float]]
    jaccard: JaccardMatrix
    correlations: CorrelationReport
    n_categorized: int
    #: Run-health counters (degradation ladder and fault quarantine):
    #: ``n_failures``, ``n_degraded`` plus one ``n_degraded_<level>``
    #: per non-FULL rung hit, and ``n_quarantined``.  A paper-faithful
    #: share table is only trustworthy when this says how much of the
    #: corpus was categorized at reduced fidelity or not at all.
    run_health: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable text form of the whole report."""
        from ..viz.heatmap import render_jaccard
        from ..viz.tables import render_shares_table

        parts = ["== Pre-processing funnel (Fig. 3) =="]
        for stage in self.funnel.stages:
            parts.append(
                f"  {stage.name:>30}: {stage.count:>8} ({stage.retention:.0%} kept)"
            )
        parts.append(
            f"  corrupted: {self.funnel.corrupted_fraction:.0%}  "
            f"unique: {self.funnel.unique_fraction:.0%}  "
            f"repaired: {self.funnel.n_repaired}"
        )
        if self.funnel.corruption_causes:
            causes = self.funnel.corruption_causes.items()
            parts.append("  causes: " + ", ".join(f"{k}={n}" for k, n in causes))
        parts.append("\n== Periodic writes (Table II) ==")
        parts.append(render_shares_table(self.table2))
        parts.append("\n== Temporality (Table III) ==")
        parts.append(render_shares_table(self.table3))
        parts.append("\n== Metadata categories (Fig. 4) ==")
        parts.append(render_shares_table(self.fig4))
        parts.append("\n== Jaccard pairs (Fig. 5) ==")
        parts.append(render_jaccard(self.jaccard))
        c = self.correlations
        parts.append("\n== Noteworthy correlations (SIV-D) ==")
        parts.append(
            f"  P(write insig | read insig)      = {c.insig_read_implies_insig_write:.0%}"
        )
        parts.append(
            f"  P(write on end | read on start)  = {c.read_start_implies_write_end:.0%}"
        )
        parts.append(
            f"  periodic writers < 25% busy      = {c.periodic_writes_low_busy:.0%}"
        )
        parts.append(
            f"  P(start/end | dense metadata)    = {c.dense_metadata_reads_start_or_writes_end:.0%}"
        )
        parts.append("\n== Run health ==")
        h = self.run_health
        parts.append(f"  categorized: {self.n_categorized}")
        parts.append(f"  failures:    {h.get('n_failures', 0)}")
        parts.append(f"  quarantined: {h.get('n_quarantined', 0)}")
        n_degraded = h.get("n_degraded", 0)
        parts.append(f"  degraded:    {n_degraded}")
        for key in sorted(h):
            if key.startswith("n_degraded_"):
                parts.append(
                    f"    {key[len('n_degraded_'):]:>10}: {h[key]}"
                )
        return "\n".join(parts)


def build_report(pipeline: PipelineResult) -> CorpusReport:
    """Assemble the full §IV report from a pipeline result."""
    weights = pipeline.run_weights()
    return CorpusReport(
        funnel=funnel_report(pipeline.preprocess),
        table2=periodicity_table(pipeline.results, weights, "write"),
        table3=temporality_table(pipeline.results, weights),
        fig4=metadata_table(pipeline.results, weights),
        jaccard=jaccard_matrix(pipeline.results),
        correlations=paper_correlations(pipeline.results),
        n_categorized=pipeline.n_categorized,
        run_health={
            "n_failures": pipeline.n_failures,
            "n_degraded": pipeline.metrics.get("n_degraded", 0),
            "n_quarantined": pipeline.metrics.get("n_quarantined", 0),
            **{
                k: v
                for k, v in pipeline.metrics.items()
                if k.startswith("n_degraded_")
            },
        },
    )
