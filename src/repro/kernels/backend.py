"""The kernel bundle the pipeline runs on.

A :class:`KernelBackend` bundles one implementation of every hot
per-trace kernel.  The runtime has exactly one bundle, :data:`RUNTIME`,
and :func:`get_backend` returns it.  The merge, segmentation, clustering
and signal-processing layers look the bundle up at call time instead of
importing kernel functions: that lookup is the seam through which the
tests swap in the pure-Python oracle
(:func:`repro.testing.reference.reference_kernels`) and through which
the benchmark's per-layer tracer wraps the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import batched, vectorized

__all__ = ["KernelBackend", "RUNTIME", "get_backend"]

#: ``(starts, ends, volumes, offsets, abs_gaps, op_fraction)
#: -> (s, e, v, offsets, changed)``
NeighborPass = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float],
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool],
]


@dataclass(slots=True, frozen=True)
class KernelBackend:
    """One implementation of every hot per-trace kernel.

    The merge kernels take segment ``offsets`` (``offsets[k]:offsets[k+1]``
    is one trace), so one call merges a whole batch of traces.
    """

    name: str
    neighbor_pass: NeighborPass
    overlap_groups: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    coalesce_groups: Callable[
        [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        tuple[np.ndarray, np.ndarray, np.ndarray],
    ]
    segment: Callable[
        [np.ndarray, np.ndarray, np.ndarray, float],
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ]
    shift_step: Callable[[np.ndarray, np.ndarray, float, str], np.ndarray]
    acf_peak_scan: Callable[[np.ndarray, int, float], int]
    dft_comb_scores: Callable[
        [np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray]
    ]
    bin_activity: Callable[
        [np.ndarray, np.ndarray, np.ndarray, float, int], np.ndarray
    ]


#: The runtime kernels: the merge kernels are the segmented kernels the
#: categorizer batches across traces, and segmentation is a
#: single-segment call of its segmented kernel.
RUNTIME = KernelBackend(
    name="runtime",
    neighbor_pass=batched.neighbor_pass_segmented,
    overlap_groups=batched.overlap_groups_segmented,
    coalesce_groups=vectorized.coalesce_groups,
    segment=batched.segment,
    shift_step=vectorized.shift_step,
    acf_peak_scan=vectorized.acf_peak_scan,
    dft_comb_scores=vectorized.dft_comb_scores,
    bin_activity=vectorized.bin_activity,
)

#: The bundle :func:`get_backend` returns; only the test oracle's
#: ``reference_kernels()`` swaps it, and restores it on exit.
_active = RUNTIME


def get_backend(name: None = None) -> KernelBackend:
    """The kernel bundle in use: :data:`RUNTIME` unless a test swapped it."""
    # The benchmark tracer re-binds this function and forwards its
    # caller's argument, so the parameter stays; no name selects a bundle.
    if name is not None:
        raise ValueError(
            f"unknown kernel backend {name!r}: there is one kernel set"
        )
    return _active
