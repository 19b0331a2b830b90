"""Pre-processing funnel analysis (Fig. 3).

The paper's funnel over 2019 Blue Waters data: 462,502 input traces →
32% corrupted/evicted → 8% of the valid traces are unique executions →
24,606 retained for categorization.  This module turns a
:class:`~repro.core.preprocess.SelectionPlan` into the same staged
view, with the corruption-cause histogram as supplementary detail.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.preprocess import SelectionPlan

__all__ = ["FunnelStage", "FunnelReport", "funnel_report", "PAPER_FUNNEL"]


@dataclass(slots=True, frozen=True)
class FunnelStage:
    name: str
    count: int
    #: Fraction relative to the previous stage (1.0 for the first).
    retention: float


@dataclass(slots=True, frozen=True)
class FunnelReport:
    stages: tuple[FunnelStage, ...]
    corrupted_fraction: float
    unique_fraction: float
    corruption_causes: dict[str, int]
    #: Invalid traces salvaged by ``repair=True`` (0 without repair).
    n_repaired: int

    def counts(self) -> list[int]:
        return [s.count for s in self.stages]


#: The paper's Fig. 3 reference values.
PAPER_FUNNEL = {
    "input_traces": 462_502,
    "corrupted_fraction": 0.32,
    "unique_fraction": 0.08,
    "selected_for_categorization": 24_606,
}


def funnel_report(pre: SelectionPlan) -> FunnelReport:
    """Build the Fig. 3 funnel from a pass-① plan."""
    stages = []
    prev = None
    for name, count in pre.funnel():
        retention = 1.0 if prev in (None, 0) else count / prev
        stages.append(FunnelStage(name=name, count=count, retention=retention))
        prev = count
    return FunnelReport(
        stages=tuple(stages),
        corrupted_fraction=pre.corrupted_fraction,
        unique_fraction=pre.unique_fraction,
        corruption_causes={
            v.value: n for v, n in pre.corruption_histogram.most_common()
        },
        n_repaired=pre.n_repaired,
    )
