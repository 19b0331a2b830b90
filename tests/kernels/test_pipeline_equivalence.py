"""End-to-end backend equivalence on the synthetic fleet.

The differential oracle holds each kernel pair equivalent in isolation;
this suite closes the loop at the system level: categorizing the same
synthetic corpus on the runtime kernels and inside
``reference_kernels()`` (the pure-Python oracle swapped in) must produce
identical categories for every trace, under the paper's Mean Shift
method and under both signal-processing baselines (which exercise the
activity-binning and peak-scan kernels).
"""

import dataclasses

import pytest

from repro.core import DEFAULT_CONFIG, categorize_trace
from repro.darshan import is_valid
from repro.synth import FleetConfig, generate_fleet
from repro.testing import reference_kernels


@pytest.fixture(scope="module")
def fleet_traces():
    fleet = generate_fleet(FleetConfig(n_apps=36, mean_runs=2.0, seed=20260806))
    traces = [t for t in fleet.traces if is_valid(t)]
    assert len(traces) >= 30
    return traces


def _categories(traces, config):
    return [
        (trace.meta.job_id, sorted(c.value for c in categorize_trace(trace, config).categories))
        for trace in traces
    ]


@pytest.mark.parametrize("method", ["meanshift", "dft", "autocorr", "hybrid"])
def test_categories_identical_across_backends(fleet_traces, method):
    config = dataclasses.replace(DEFAULT_CONFIG, periodicity_method=method)
    with reference_kernels():
        got_ref = _categories(fleet_traces, config)
    got_vec = _categories(fleet_traces, config)
    assert got_ref == got_vec


def test_periods_identical_across_backends(fleet_traces):
    # Stronger than category equality: the detected period groups of the
    # Mean Shift path must agree per direction in count and numerically
    # on the period estimates.
    for trace in fleet_traces:
        with reference_kernels():
            res_ref = categorize_trace(trace, DEFAULT_CONFIG)
        res_vec = categorize_trace(trace, DEFAULT_CONFIG)
        assert set(res_ref.periodic_groups) == set(res_vec.periodic_groups)
        for direction, groups_ref in res_ref.periodic_groups.items():
            groups_vec = res_vec.periodic_groups[direction]
            assert len(groups_ref) == len(groups_vec)
            for g_ref, g_vec in zip(groups_ref, groups_vec):
                assert g_ref.period == pytest.approx(g_vec.period, rel=1e-9, abs=1e-12)
