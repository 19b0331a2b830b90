"""ASCII timeline rendering of a single trace (Fig. 2 substitute).

Shows, per direction, the raw operations, the operations after merging,
the detected periodicity, the four temporality chunks, and the metadata
request rate — the panels of the paper's trace-processing example.
"""

from __future__ import annotations

import numpy as np

from ..core.categorizer import categorize_trace
from ..core.metadata import metadata_rate
from ..core.thresholds import DEFAULT_CONFIG, MosaicConfig
from ..darshan.trace import OperationArray, Trace
from ..merge.pipeline import preprocess_operations
from ..segment.chunks import chunk_volumes
from .tables import format_bytes

__all__ = ["render_ops_lane", "render_trace_anatomy"]


def render_ops_lane(
    ops: OperationArray, run_time: float, width: int = 80, label: str = ""
) -> str:
    """One text lane: '#' where operations are active, '.' elsewhere."""
    if run_time <= 0.0:
        return f"{label:>18} |{'.' * width}| {len(ops)} ops"
    lane = np.zeros(width, dtype=bool)
    for s, e, _ in ops:
        lo = int(np.clip(s / run_time * width, 0, width - 1))
        hi = int(np.clip(np.ceil(e / run_time * width), lo + 1, width))
        lane[lo:hi] = True
    body = "".join("#" if x else "." for x in lane)
    return f"{label:>18} |{body}| {len(ops)} ops"


def _sparkline(values: np.ndarray, width: int = 80) -> str:
    """Compress a series into a width-wide block sparkline."""
    glyphs = " _.-=+*#%@"
    if len(values) == 0:
        return " " * width
    idx = np.linspace(0, len(values), width + 1).astype(int)
    pooled = np.array(
        [values[a:b].max() if b > a else 0.0 for a, b in zip(idx[:-1], idx[1:])]
    )
    vmax = pooled.max() if pooled.max() > 0 else 1.0
    return "".join(
        glyphs[min(int(v / vmax * (len(glyphs) - 1)), len(glyphs) - 1)]
        for v in pooled
    )


def render_trace_anatomy(
    trace: Trace, config: MosaicConfig = DEFAULT_CONFIG, width: int = 80
) -> str:
    """Render the full Fig. 2-style processing view of one trace."""
    run_time = trace.meta.run_time
    lines: list[str] = [
        f"trace job={trace.meta.job_id} exe={trace.meta.exe} "
        f"nprocs={trace.meta.nprocs} runtime={run_time:.0f}s",
        f"{'':>18}  0%{'execution time':^{width - 8}}100%",
    ]
    result = categorize_trace(trace, config)

    for direction in ("read", "write"):
        raw = trace.operations(direction)  # type: ignore[arg-type]
        merged = preprocess_operations(raw, run_time, config.merge)
        lines.append(render_ops_lane(raw, run_time, width, f"{direction} raw"))
        lines.append(
            render_ops_lane(merged.ops, run_time, width, f"{direction} merged")
        )
        if not merged.ops.is_empty():
            profile = chunk_volumes(merged.ops, run_time, config.n_chunks)
            chunk_cells = " ".join(
                f"[{format_bytes(v)}]" for v in profile.volumes
            )
            lines.append(f"{direction + ' chunks':>18} {chunk_cells}")
        groups = result.periodic_groups.get(direction, [])  # type: ignore[arg-type]
        for g in groups:
            lines.append(
                f"{'periodic':>18} {direction}: period={g.period:.0f}s "
                f"x{g.n_occurrences} vol={format_bytes(g.mean_volume)} "
                f"busy={g.busy_fraction:.0%}"
            )

    rate = metadata_rate(trace, 1.0)
    lines.append(f"{'metadata req/s':>18} |{_sparkline(rate, width)}|")
    lines.append(
        f"{'':>18} peak={result.metadata_peak_rate:.0f}/s "
        f"mean={result.metadata_mean_rate:.1f}/s spikes={result.metadata_n_spikes}"
    )
    lines.append(
        "categories: " + ", ".join(sorted(c.value for c in result.categories))
    )
    return "\n".join(lines)
