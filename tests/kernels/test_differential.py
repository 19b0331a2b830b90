"""Differential oracle: every runtime kernel ≡ the pure-Python reference.

Each kernel pair is hammered with seeded adversarial cases drawn from
the profile families in :mod:`repro.testing.differential`
(zero-duration bursts, overlapping and contained operations,
heavy-tailed volumes, constant/zero/pulse-train signals, ...).  The
``segmented_*`` kernels additionally hold one batched dispatch over
many concatenated traces equal to a per-trace reference loop — segment
walls must be hard.  The distance kernel is held bit-equal to
``cdist``, and every clustering routine built on it to its own output
with ``cdist`` swapped in.  Any divergence is a bug in one of the twins — the
report carries the seed and profile so the case replays exactly.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest
from scipy.spatial.distance import cdist

from repro.kernels import KernelBackend, batched, get_backend, vectorized
from repro.testing import run_differential
from repro.testing.differential import (
    DISTANCE_USERS,
    KERNEL_PAIRS,
    cdist_distances,
)

SRC = Path(__file__).resolve().parents[2] / "src"

N_CASES = 1000
#: The segmented checks run a per-trace reference loop over up to six
#: traces per case, so they get a smaller (still multi-hundred) sweep.
N_CASES_SEGMENTED = 300
#: The closed-form metadata binning replaced event expansion on both
#: routes; its adversarial records get the full sweep, at least 112
#: cases for each of its ten record families.
N_CASES_METADATA = 1120
#: Each distance-consumer case fits Mean Shift, k-means, a bandwidth and
#: a silhouette twice: 50 cases for each of the seven point families.
N_CASES_CONSUMERS = 350
SEED = 20260806

#: The ``KernelBackend`` field, ``repro.kernels.batched`` export or
#: ``repro.kernels.vectorized`` function each differential entry checks.
COVERED = {
    "neighbor_merge": "neighbor_pass",
    "concurrent_fusion": "overlap_groups",  # + coalesce_groups
    "segmentation": "segment",
    "meanshift_step": "shift_step",
    "acf_peak_scan": "acf_peak_scan",
    "dft_comb_scan": "dft_comb_scores",
    "activity_binning": "bin_activity",
    # cross-trace (segmented) kernels of repro.kernels.batched
    "segmented_neighbor_merge": "neighbor_pass_segmented",
    "segmented_concurrent_fusion": "overlap_groups_segmented",
    "segmented_segmentation": "segment_segmented",
    "segmented_event_binning": "bin_events_segmented",
    # the distance kernel every clustering routine uses
    "pairwise_distances": "pairwise_distances",
    "distance_consumers": "pairwise_distances",
}


def _case(kernel):
    """The kernel's case, its id suffixed with the runtime module it checks."""
    name = COVERED[kernel]
    fn = (
        getattr(get_backend(), name, None)
        or getattr(batched, name, None)
        or getattr(vectorized, name)
    )
    return pytest.param(kernel, id=f"{kernel}-{fn.__module__.rsplit('.', 1)[1]}")


def _explain(report):
    lines = [report.summary()]
    for div in report.divergences[:5]:
        lines.append(
            f"  case={div.case} seed={div.seed} profile={div.profile}:"
            f" {div.message}"
        )
    return "\n".join(lines)


@pytest.mark.parametrize("kernel", [_case(k) for k in sorted(KERNEL_PAIRS)])
def test_candidate_matches_reference(kernel):
    if kernel.startswith("segmented_"):
        n_cases = (
            N_CASES_METADATA
            if kernel == "segmented_event_binning"
            else N_CASES_SEGMENTED
        )
    elif kernel == "distance_consumers":
        n_cases = N_CASES_CONSUMERS
    else:
        n_cases = N_CASES
    report = run_differential(kernel, n_cases=n_cases, seed=SEED)
    assert report.n_cases >= n_cases
    assert report.ok, _explain(report)


def test_every_kernel_pair_is_covered():
    # The oracle must track the kernel bundle: a kernel added to it
    # without a differential checker would ship unverified.
    backend_fields = {
        f.name for f in dataclasses.fields(KernelBackend) if f.name != "name"
    }
    assert set(COVERED) == set(KERNEL_PAIRS)
    assert backend_fields <= set(COVERED.values()) | {"coalesce_groups"}

    # ... and every segmented kernel exported by the batched module must
    # have a segmented differential entry.
    segmented_exports = {
        n for n in batched.__all__ if n.endswith("_segmented")
    }
    assert segmented_exports == {
        COVERED[k] for k in KERNEL_PAIRS if k.startswith("segmented_")
    }


def test_cdist_swap_reaches_every_distance_user():
    # A call site the swap missed would run the kernel on both sides of
    # ``distance_consumers`` and compare it with itself.
    callers = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if "pairwise_distances(" in path.read_text()
    }
    assert callers - {"repro.testing.differential"} == set(DISTANCE_USERS)
    modules = [importlib.import_module(name) for name in DISTANCE_USERS]
    with cdist_distances():
        assert all(m.pairwise_distances is cdist for m in modules)
    assert all(m.pairwise_distances is vectorized.pairwise_distances for m in modules)


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="no_such_kernel"):
        run_differential("no_such_kernel", n_cases=1)

