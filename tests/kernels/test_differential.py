"""Differential oracle: every runtime kernel ≡ the pure-Python reference.

Each kernel pair is hammered with seeded adversarial cases drawn from
the profile families in :mod:`repro.testing.differential`
(zero-duration bursts, overlapping and contained operations,
heavy-tailed volumes, constant/zero/pulse-train signals, ...).  The
``segmented_*`` kernels additionally hold one batched dispatch over
many concatenated traces equal to a per-trace reference loop — segment
walls must be hard.  Any divergence is a bug in one of the twins — the
report carries the seed and profile so the case replays exactly.
"""

import dataclasses

import pytest

from repro.kernels import KernelBackend, batched, get_backend
from repro.testing import run_differential
from repro.testing.differential import KERNEL_PAIRS

N_CASES = 1000
#: The segmented checks run a per-trace reference loop over up to six
#: traces per case, so they get a smaller (still multi-hundred) sweep.
N_CASES_SEGMENTED = 300
#: The closed-form metadata binning replaced event expansion on both
#: routes; its adversarial records get the full sweep, at least 112
#: cases for each of its ten record families.
N_CASES_METADATA = 1120
SEED = 20260806

#: The ``KernelBackend`` field or ``repro.kernels.batched`` export each
#: differential entry checks.
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
}


def _case(kernel):
    """The kernel's case, its id suffixed with the runtime module it checks."""
    fn = getattr(get_backend(), COVERED[kernel], None) or getattr(
        batched, COVERED[kernel]
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


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="no_such_kernel"):
        run_differential("no_such_kernel", n_cases=1)

