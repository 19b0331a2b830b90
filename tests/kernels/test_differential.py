"""Differential oracle: every candidate backend ≡ the pure-Python reference.

Each kernel pair is hammered with seeded adversarial cases drawn from
the profile families in :mod:`repro.testing.differential`
(zero-duration bursts, overlapping and contained operations,
heavy-tailed volumes, constant/zero/pulse-train signals, ...), once per
candidate backend (``vectorized`` and the segmented ``batched`` twins).
The ``segmented_*`` kernels additionally hold one batched dispatch over
many concatenated traces equal to a per-trace reference loop — segment
walls must be hard.  Any divergence is a bug in one of the twins — the
report carries the seed and profile so the case replays exactly.
"""

import pytest

from repro.testing import run_differential
from repro.testing.differential import CANDIDATE_BACKENDS, KERNEL_PAIRS

N_CASES = 1000
#: The segmented checks run a per-trace reference loop over up to six
#: traces per case, so they get a smaller (still multi-hundred) sweep.
N_CASES_SEGMENTED = 300
#: The closed-form metadata binning replaced event expansion on both
#: routes; its adversarial records get the full sweep.
N_CASES_METADATA = 1000
SEED = 20260806


def _explain(report):
    lines = [report.summary()]
    for div in report.divergences[:5]:
        lines.append(
            f"  case={div.case} seed={div.seed} profile={div.profile}"
            f" backend={div.backend}: {div.message}"
        )
    return "\n".join(lines)


@pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
@pytest.mark.parametrize("kernel", sorted(KERNEL_PAIRS))
def test_candidate_matches_reference(kernel, backend):
    if kernel.startswith("segmented_"):
        if backend != "batched":
            pytest.skip("segmented checks always exercise the batched twins")
        n_cases = (
            N_CASES_METADATA
            if kernel == "segmented_event_binning"
            else N_CASES_SEGMENTED
        )
    else:
        n_cases = N_CASES
    report = run_differential(kernel, n_cases=n_cases, seed=SEED, backend=backend)
    assert report.n_cases >= n_cases
    assert report.backend == backend
    assert report.ok, _explain(report)


def test_every_kernel_pair_is_covered():
    # The oracle must track the backend registry: a kernel added to the
    # backends without a differential checker would ship unverified.
    from repro.kernels import available_backends, get_backend

    assert set(CANDIDATE_BACKENDS) == set(available_backends()) - {"reference"}

    backend_fields = {
        name
        for name in get_backend("reference").__dataclass_fields__
        if name != "name"
    }
    covered = {
        "neighbor_merge": "neighbor_pass",
        "concurrent_fusion": "overlap_groups",  # + coalesce_groups
        "segmentation": "segment",
        "meanshift_step": "shift_step",
        "acf_peak_scan": "acf_peak_scan",
        "dft_comb_scan": "dft_comb_scores",
        "activity_binning": "bin_activity",
        # cross-trace (segmented) twins of repro.kernels.batched
        "segmented_neighbor_merge": "neighbor_pass_segmented",
        "segmented_concurrent_fusion": "overlap_groups_segmented",
        "segmented_segmentation": "segment_segmented",
        "segmented_event_binning": "bin_events_segmented",
    }
    assert set(covered) == set(KERNEL_PAIRS)
    assert backend_fields <= set(covered.values()) | {"coalesce_groups"}

    # ... and every segmented kernel exported by the batched module must
    # have a segmented differential entry.
    from repro.kernels import batched

    segmented_exports = {
        n for n in batched.__all__ if n.endswith("_segmented")
    }
    assert segmented_exports == {
        covered[k] for k in KERNEL_PAIRS if k.startswith("segmented_")
    }


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="no_such_kernel"):
        run_differential("no_such_kernel", n_cases=1)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="no_such_backend"):
        run_differential("neighbor_merge", n_cases=1, backend="no_such_backend")
