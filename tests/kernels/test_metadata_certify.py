"""The metadata kernel's certified crossing estimates and their fallback.

``bin_events_segmented`` takes ``ceil(x_j)`` as a spanned bin's first
event index only when ``x_j`` is provably far enough from an integer;
the rest go to the exact ``_first_past_edge``.  These tests pin the
check itself, and require the ``near_tie`` profile of the differential
oracle to drive real rows through the fallback while staying equal to
the event-expansion oracle.
"""

import numpy as np
import pytest

from repro.kernels import batched
from repro.testing.differential import KERNEL_PAIRS, METADATA_PROFILES

CHECK, _ = KERNEL_PAIRS["segmented_event_binning"]
N_CASES = 30
SEED = 20261018


def test_certify_rounds_up_and_rejects_near_integers():
    x = np.array([2.5, 2.0, 2.0 + 2e-9, 3.0 - 2e-9, 7.25, np.nan, 1.5])
    tol = np.array([0.1, 1e-9, 1e-8, 1e-8, 0.2, 1e-9, np.nan])
    up, sure = batched._certify(x.copy(), tol)
    assert np.array_equal(up, [3, 2, 3, 3, 8, np.nan, 2], equal_nan=True)
    assert sure.tolist() == [True, False, False, False, True, False, False]


@pytest.fixture
def fallback_rows(monkeypatch):
    """Rows handed to the exact fallback and rows checked, per profile run."""
    seen = {"fallback": 0, "rows": 0}
    first_past_edge, certify = batched._first_past_edge, batched._certify

    def counting_fallback(edge, *args):
        seen["fallback"] += len(edge)
        return first_past_edge(edge, *args)

    def counting_certify(x, tol):
        seen["rows"] += len(x)
        return certify(x, tol)

    monkeypatch.setattr(batched, "_first_past_edge", counting_fallback)
    monkeypatch.setattr(batched, "_certify", counting_certify)
    return seen


def _sweep(profile):
    for case in range(N_CASES):
        message = CHECK(np.random.default_rng(SEED + case), profile)
        assert message is None, f"{profile} case {case}: {message}"


def test_near_tie_profile_exercises_the_fallback(fallback_rows):
    assert "near_tie" in METADATA_PROFILES
    _sweep("near_tie")
    assert fallback_rows["fallback"] > 0
    # most near-tie edges are within the bound, not just a stray few
    assert fallback_rows["fallback"] > fallback_rows["rows"] // 10


def test_ordinary_crossings_are_certified(fallback_rows):
    _sweep("huge_k")
    assert fallback_rows["rows"] > 10_000
    assert fallback_rows["fallback"] <= fallback_rows["rows"] // 1000
