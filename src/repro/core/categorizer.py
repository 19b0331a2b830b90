"""Per-trace categorization: merging ② + categorization ③ + output ④.

``categorize_trace`` is the unit of work the parallel engine distributes
across the corpus; it is also the single-application entry point the
paper envisions for feeding a job scheduler.

When :attr:`MosaicConfig.budget` is set, a :class:`~repro.core.governor.Governor`
walks the trace down the degradation ladder (docs/ROBUSTNESS.md):
oversized traces are subsampled (COARSE), slow or grossly oversized ones
skip periodicity (MINIMAL), and ungovernably large ones yield a partial,
schema-complete result (FLAGGED) rather than crashing the worker or
being dropped.  The default budget is unlimited, making the governed
pipeline byte-identical to the ungoverned one.
"""

from __future__ import annotations

from typing import get_args

from ..darshan.trace import Direction, Trace
from ..merge.pipeline import preprocess_operations
from .governor import Governor, subsample_ops
from .metadata import MetadataDetection, classify_metadata
from .periodicity import PeriodicityDetection, detect_periodicity
from .result import CategorizationResult
from .temporality import TemporalityDetection, classify_temporality
from .thresholds import DEFAULT_CONFIG, MosaicConfig

__all__ = ["categorize_trace"]

_DIRECTIONS: tuple[Direction, ...] = get_args(Direction)


def categorize_trace(
    trace: Trace, config: MosaicConfig = DEFAULT_CONFIG
) -> CategorizationResult:
    """Run the full MOSAIC per-trace workflow.

    Read and write streams are handled independently (§III-B2): each is
    fused, chunked for temporality, and segmented for periodicity.  An
    insignificant direction (< 100 MB) is excluded from periodicity
    detection, mirroring the paper's use of the insignificant categories
    to keep non-I/O-intensive activity out of the characterization.
    Metadata impact is evaluated on the whole trace.
    """
    run_time = trace.meta.run_time
    governor = Governor(config.budget)
    governor.admit(trace)
    if not governor.allows_axes():
        return CategorizationResult.flagged(
            job_id=trace.meta.job_id,
            uid=trace.meta.uid,
            exe=trace.meta.exe,
            nprocs=trace.meta.nprocs,
            run_time=run_time,
            violations=governor.violations,
        )

    temporality: list[TemporalityDetection] = []
    periodicity: list[PeriodicityDetection] = []

    governor.start_stage()
    for direction in _DIRECTIONS:
        raw = trace.operations(direction)
        cap = governor.ops_cap()
        if cap > 0:
            raw = subsample_ops(raw, cap)
        merged = preprocess_operations(raw, run_time, config.merge).ops
        governor.check_deadline("merge")
        temp = classify_temporality(merged, run_time, direction, config)
        temporality.append(temp)
        governor.check_deadline("temporality")
        significant = merged.total_volume >= config.insignificant_bytes
        if significant and governor.allows_periodicity():
            periodicity.append(
                detect_periodicity(merged, run_time, direction, config)
            )
        else:
            periodicity.append(
                PeriodicityDetection(
                    direction=direction, groups=(), n_segments=0
                )
            )
        governor.check_deadline("periodicity")

    metadata: MetadataDetection = classify_metadata(trace, config)
    governor.check_deadline("metadata")

    return CategorizationResult.build(
        job_id=trace.meta.job_id,
        uid=trace.meta.uid,
        exe=trace.meta.exe,
        nprocs=trace.meta.nprocs,
        run_time=run_time,
        temporality=temporality,
        periodicity=periodicity,
        metadata=metadata,
        config=config,
        degradation=governor.level,
        budget_violations=tuple(governor.violations),
    )
