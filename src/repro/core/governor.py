"""Per-trace resource governance: the soft half of input hardening.

The hard decode caps (:mod:`repro.darshan.limits`) reject payloads that
*lie* about their size; this module governs traces that are honest but
enormous.  Dropping them would bias the corpus statistics (the heaviest
applications are exactly the ones the paper cares about), so instead of
an eviction the pipeline walks a **degradation ladder**:

``FULL``
    The trace fits the budget; every axis runs at paper fidelity.
``COARSE``
    Operation count moderately over budget: operations are
    deterministically stride-subsampled down to ``max_ops`` before event
    fusion (total volume preserved), so temporality is exact and
    periodicity runs on a coarse but unbiased sketch.
``MINIMAL``
    Grossly over budget, or a stage deadline expired: periodicity — the
    super-linear axis — is skipped entirely; temporality and metadata
    (both linear, single-pass) still run.
``FLAGGED``
    Beyond even the minimal multiplier: no axis runs.  The trace yields
    a partial, schema-complete result carrying only identity fields and
    a :attr:`~repro.darshan.validate.Violation.RESOURCE_BUDGET` flag.

Every rung still produces a :class:`~repro.core.result.CategorizationResult`
with its :class:`DegradationLevel` recorded, so downstream aggregation can
filter, weight, or audit degraded entries; nothing silently vanishes.

The default :class:`ResourceBudget` is unlimited (all zeros): governance
is opt-in, and the paper-faithful pipeline is byte-identical to the
ungoverned one unless a budget is set.

See docs/ROBUSTNESS.md ("Input hardening & degradation ladder").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..darshan.trace import OperationArray

__all__ = [
    "DegradationLevel",
    "ResourceBudget",
    "Governor",
    "subsample_ops",
]

#: Estimated per-operation working set across the kernel pipeline
#: (start/end/volume float64 columns plus merge/segmentation temporaries).
#: Deliberately generous — the budget is a governance knob, not an
#: allocator accounting ledger.
OP_WORKING_SET_BYTES = 192


class DegradationLevel(str, Enum):
    """How much fidelity a trace's categorization retained.

    Ordered from no degradation to total: ``FULL`` < ``COARSE`` <
    ``MINIMAL`` < ``FLAGGED``.  :meth:`rank` gives the ordering.
    """

    FULL = "full"
    COARSE = "coarse"
    MINIMAL = "minimal"
    FLAGGED = "flagged"

    @property
    def rank(self) -> int:
        return _LEVEL_RANK[self]

    def at_least(self, other: "DegradationLevel") -> bool:
        """True when this level is ``other`` or worse."""
        return self.rank >= other.rank


_LEVEL_RANK = {
    DegradationLevel.FULL: 0,
    DegradationLevel.COARSE: 1,
    DegradationLevel.MINIMAL: 2,
    DegradationLevel.FLAGGED: 3,
}

#: The ladder in escalation order.
LADDER: tuple[DegradationLevel, ...] = (
    DegradationLevel.FULL,
    DegradationLevel.COARSE,
    DegradationLevel.MINIMAL,
    DegradationLevel.FLAGGED,
)


@dataclass(slots=True, frozen=True)
class ResourceBudget:
    """Soft per-trace resource budget enforced by the :class:`Governor`.

    ``0`` means *unlimited* for every field — unlike the hard
    :class:`~repro.darshan.limits.DecodeLimits`, this is governance, not
    a DoS guard, and the default is to govern nothing.
    """

    #: Merged-operation count (per trace, both directions summed) the
    #: full-fidelity pipeline will accept; 0 disables.
    max_ops: int = 0
    #: Estimated working-set bytes the full-fidelity pipeline will
    #: accept; 0 disables.
    max_bytes: int = 0
    #: Soft wall-clock deadline per pipeline stage in seconds; a stage
    #: overrunning it escalates the ladder one rung.  0 disables.
    stage_deadline_s: float = 0.0
    #: Budget-overrun ratio up to which the answer is COARSE
    #: (subsample) rather than MINIMAL (skip periodicity).
    coarse_factor: float = 8.0
    #: Overrun ratio up to which the answer is MINIMAL rather than
    #: FLAGGED (no axis runs at all).
    minimal_factor: float = 64.0

    def __post_init__(self) -> None:
        if self.max_ops < 0:
            raise ValueError("max_ops must be >= 0 (0 disables)")
        if self.max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (0 disables)")
        if self.stage_deadline_s < 0:
            raise ValueError("stage_deadline_s must be >= 0 (0 disables)")
        if self.coarse_factor <= 1.0:
            raise ValueError("coarse_factor must be > 1")
        if self.minimal_factor <= self.coarse_factor:
            raise ValueError("minimal_factor must exceed coarse_factor")

    @property
    def unlimited(self) -> bool:
        """True when no governed quantity is bounded."""
        return (
            self.max_ops == 0
            and self.max_bytes == 0
            and self.stage_deadline_s == 0
        )

    def overrun_ratio(self, n_ops: int, est_bytes: int) -> float:
        """How far past budget a trace sits (1.0 = exactly at budget)."""
        ratio = 0.0
        if self.max_ops > 0:
            ratio = max(ratio, n_ops / self.max_ops)
        if self.max_bytes > 0:
            ratio = max(ratio, est_bytes / self.max_bytes)
        return ratio

    def assess(self, n_ops: int, est_bytes: int) -> DegradationLevel:
        """Place a trace of the given estimated cost on the ladder."""
        ratio = self.overrun_ratio(n_ops, est_bytes)
        if ratio <= 1.0:
            return DegradationLevel.FULL
        if ratio <= self.coarse_factor:
            return DegradationLevel.COARSE
        if ratio <= self.minimal_factor:
            return DegradationLevel.MINIMAL
        return DegradationLevel.FLAGGED


def subsample_ops(ops: OperationArray, target: int) -> OperationArray:
    """Deterministic stride subsample of an operation array.

    Keeps ``target`` operations at evenly spaced ranks (always including
    the first and last, preserving the activity span) and rescales the
    kept volumes so the **total volume is preserved exactly** — the
    significance rule and temporality chunk sums stay unbiased.  A
    no-op when the array already fits.
    """
    n = len(ops)
    if target <= 0 or n <= target:
        return ops
    idx = np.unique(np.linspace(0, n - 1, num=target).round().astype(np.intp))
    total = ops.volumes.sum()
    kept = ops.volumes[idx]
    kept_total = kept.sum()
    if kept_total > 0:
        volumes = kept * (total / kept_total)
    else:  # all-zero volumes: spread nothing evenly
        volumes = kept
    return OperationArray(ops.starts[idx], ops.ends[idx], volumes)


class Governor:
    """Walks one trace down the degradation ladder.

    Created per trace by the categorizer; tracks the current level, the
    reasons for every escalation (surfaced as ``budget_violations`` on
    the result), and a monotonic-clock stage deadline.
    """

    __slots__ = ("budget", "level", "violations", "_stage_started")

    def __init__(self, budget: ResourceBudget) -> None:
        self.budget = budget
        self.level = DegradationLevel.FULL
        self.violations: list[str] = []
        self._stage_started = time.monotonic()

    # -- admission ------------------------------------------------------
    def admit_cost(self, n_ops: int) -> DegradationLevel:
        """Set the starting level from the trace's raw operation count.

        ``n_ops`` sums both directions; the working set is estimated at
        :data:`OP_WORKING_SET_BYTES` per operation.  Both come from
        counts alone, charged before the kernels allocate anything.
        """
        if self.budget.unlimited:
            return self.level
        est_bytes = n_ops * OP_WORKING_SET_BYTES
        level = self.budget.assess(n_ops, est_bytes)
        if level is not DegradationLevel.FULL:
            ratio = self.budget.overrun_ratio(n_ops, est_bytes)
            self._escalate_to(
                level,
                f"estimated cost {n_ops} ops / {est_bytes} bytes is "
                f"{ratio:.1f}x the budget",
            )
        return self.level

    # -- stage deadline -------------------------------------------------
    def start_stage(self) -> None:
        """Reset the stage clock (call when a pipeline stage begins)."""
        self._stage_started = time.monotonic()

    def check_deadline(self, stage: str) -> DegradationLevel:
        """Escalate one rung if the current stage overran its deadline.

        Polled *between* stages — the governor never interrupts a kernel
        mid-flight; it stops scheduling expensive work after the clock
        shows the trace is slow.
        """
        deadline = self.budget.stage_deadline_s
        if deadline > 0:
            elapsed = time.monotonic() - self._stage_started
            if elapsed > deadline:
                # time is the scarce resource here, so jump straight to
                # skipping the super-linear axis; never to FLAGGED — the
                # trace already paid for its cheap axes, keep the answers
                self._escalate_to(
                    DegradationLevel.MINIMAL,
                    f"stage {stage!r} ran {elapsed:.2f}s past the "
                    f"{deadline:.2f}s deadline",
                )
        self.start_stage()
        return self.level

    # -- queries --------------------------------------------------------
    def allows_periodicity(self) -> bool:
        return self.level.rank < DegradationLevel.MINIMAL.rank

    def allows_axes(self) -> bool:
        return self.level is not DegradationLevel.FLAGGED

    def ops_cap(self) -> int:
        """Per-direction operation cap at the current level (0 = none).

        Applies from COARSE onward: every degraded rung bounds the
        working set the kernels see, not just the axes they run.
        """
        if (
            self.level.at_least(DegradationLevel.COARSE)
            and self.budget.max_ops > 0
        ):
            return self.budget.max_ops
        return 0

    # -- internals ------------------------------------------------------
    def _escalate_to(self, level: DegradationLevel, reason: str) -> None:
        if level.rank > self.level.rank:
            self.level = level
        self.violations.append(reason)
