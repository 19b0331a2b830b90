"""Unit tests for the interval-grouping kernels ``merge_concurrent`` runs."""

import numpy as np

from repro.kernels import get_backend

from tests.conftest import ops


def overlap_groups(starts, ends):
    return get_backend().overlap_groups(starts, ends, np.array([0, len(starts)]))


class TestOverlapGroups:
    def test_disjoint_intervals_get_distinct_groups(self):
        arr = ops((0.0, 1.0, 1.0), (2.0, 3.0, 1.0), (4.0, 5.0, 1.0))
        assert overlap_groups(arr.starts, arr.ends).tolist() == [0, 1, 2]

    def test_overlapping_chain_is_one_group(self):
        arr = ops((0.0, 2.0, 1.0), (1.0, 4.0, 1.0), (3.0, 5.0, 1.0))
        assert overlap_groups(arr.starts, arr.ends).tolist() == [0, 0, 0]

    def test_touching_intervals_merge(self):
        arr = ops((0.0, 1.0, 1.0), (1.0, 2.0, 1.0))
        assert overlap_groups(arr.starts, arr.ends).tolist() == [0, 0]

    def test_containment(self):
        arr = ops((0.0, 10.0, 1.0), (2.0, 3.0, 1.0), (12.0, 13.0, 1.0))
        assert overlap_groups(arr.starts, arr.ends).tolist() == [0, 0, 1]

    def test_empty(self):
        assert len(overlap_groups(np.empty(0), np.empty(0))) == 0


class TestCoalesce:
    def test_merged_span_and_volume(self):
        arr = ops((0.0, 2.0, 10.0), (1.0, 5.0, 20.0))
        starts, ends, volumes = get_backend().coalesce_groups(
            arr.starts, arr.ends, arr.volumes, np.array([0, 0])
        )
        assert starts[0] == 0.0
        assert ends[0] == 5.0
        assert volumes[0] == 30.0
