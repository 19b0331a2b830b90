"""FIG3 — pre-processing funnel (paper Fig. 3).

Paper: 462,502 input traces → 32% corrupted and evicted → 8% of valid
traces are unique executions → 24,606 retained.  The bench times the
validity + dedup stage over the calibrated corpus and checks both stage
proportions.
"""

import pytest

from repro.analysis import funnel_report
from repro.core import preprocess_corpus
from repro.viz import rows_to_csv, write_csv

from _paper import PAPER, report


@pytest.mark.benchmark(group="fig3-preprocessing")
def test_fig3_preprocessing_funnel(benchmark, corpus, results_dir):
    pre = benchmark.pedantic(
        preprocess_corpus, args=(corpus.traces,), rounds=3, iterations=1
    )
    rep = funnel_report(pre)

    rows = [
        ("input_traces", pre.n_input),
        ("valid_traces", pre.n_valid),
        ("selected_for_categorization", pre.n_selected),
    ]
    write_csv(
        rows_to_csv(["stage", "count"], [list(r) for r in rows]),
        results_dir / "fig3_funnel.csv",
    )
    report(
        "Fig. 3 pre-processing funnel",
        [f"{name}: {count}" for name, count in rows]
        + [
            f"corrupted fraction: measured {rep.corrupted_fraction:.1%} "
            f"(paper {PAPER['corrupted_fraction']:.0%})",
            f"unique fraction:    measured {rep.unique_fraction:.1%} "
            f"(paper {PAPER['unique_fraction']:.0%})",
            "corruption causes: "
            + ", ".join(f"{k}={v}" for k, v in rep.corruption_causes.items()),
        ],
    )

    assert rep.corrupted_fraction == pytest.approx(
        PAPER["corrupted_fraction"], abs=0.03
    )
    assert rep.unique_fraction == pytest.approx(
        PAPER["unique_fraction"], abs=0.015
    )
    # every corruption cause in the taxonomy is exercised
    assert len(rep.corruption_causes) >= 4


@pytest.mark.benchmark(group="fig3-preprocessing")
def test_fig3_repair_extension(benchmark, corpus, results_dir):
    """Extension: how much of the 32% eviction is mechanically
    recoverable by the conservative repair heuristics?

    MOSAIC chose eviction (a repaired record is a guess); this measures
    what that choice costs in corpus coverage.
    """
    from repro.darshan import is_valid
    from repro.testing import repair_trace

    bad = [t for t in corpus.traces if not is_valid(t)][:400]

    def run_repair():
        outcomes = [repair_trace(t) for t in bad]
        return sum(o.repaired for o in outcomes)

    n_recovered = benchmark.pedantic(run_repair, rounds=1, iterations=1)
    rate = n_recovered / len(bad)
    write_csv(
        rows_to_csv(
            ["metric", "value"],
            [["n_corrupted_sampled", len(bad)],
             ["n_recovered", n_recovered],
             ["recovery_rate", rate]],
        ),
        results_dir / "fig3_repair.csv",
    )
    report(
        "Fig. 3 extension: corruption repair",
        [f"recovered {n_recovered}/{len(bad)} corrupted traces ({rate:.0%}); "
         "header-level corruption stays unrepairable"],
    )
    # most corruption classes are recoverable; header corruption is not
    assert 0.5 < rate < 1.0
