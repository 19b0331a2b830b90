"""Property-based tests on the fusion invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan.trace import OperationArray
from repro.merge import merge_concurrent, merge_neighbors


def union_length(arr: OperationArray) -> float:
    """Length of the union of the windows, by a sweep over sorted starts."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in zip(arr.starts.tolist(), arr.ends.tolist()):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


@st.composite
def op_arrays(draw, max_ops: int = 30):
    n = draw(st.integers(min_value=0, max_value=max_ops))
    rows = []
    for _ in range(n):
        s = draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
        d = draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
        v = draw(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
        rows.append((s, s + d, v))
    return OperationArray.from_tuples(rows)


class TestConcurrentMergeProperties:
    @given(op_arrays())
    @settings(max_examples=80, deadline=None)
    def test_volume_conserved(self, arr):
        merged = merge_concurrent(arr).ops
        assert merged.total_volume == pytest.approx(arr.total_volume, rel=1e-9)

    @given(op_arrays())
    @settings(max_examples=80, deadline=None)
    def test_output_strictly_disjoint(self, arr):
        merged = merge_concurrent(arr).ops
        assert np.all(merged.starts[1:] > merged.ends[:-1])

    @given(op_arrays())
    @settings(max_examples=80, deadline=None)
    def test_union_length_preserved(self, arr):
        # merging must not change the set of covered instants
        merged = merge_concurrent(arr).ops
        assert union_length(merged) == pytest.approx(union_length(arr), rel=1e-9, abs=1e-9)

    @given(op_arrays())
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, arr):
        once = merge_concurrent(arr).ops
        twice = merge_concurrent(once).ops
        assert len(twice) == len(once)
        assert np.allclose(twice.starts, once.starts)
        assert np.allclose(twice.volumes, once.volumes)

    @given(op_arrays())
    @settings(max_examples=80, deadline=None)
    def test_never_increases_count(self, arr):
        assert merge_concurrent(arr).n_output <= len(arr)


class TestNeighborMergeProperties:
    @given(op_arrays(), st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_volume_conserved(self, arr, run_time):
        disjoint = merge_concurrent(arr).ops
        merged = merge_neighbors(disjoint, run_time).ops
        assert merged.total_volume == pytest.approx(arr.total_volume, rel=1e-9)

    @given(op_arrays(), st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_fixpoint_reached(self, arr, run_time):
        disjoint = merge_concurrent(arr).ops
        once = merge_neighbors(disjoint, run_time)
        twice = merge_neighbors(once.ops, run_time)
        assert twice.n_output == once.n_output

    @given(op_arrays(), st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_span_never_shrinks(self, arr, run_time):
        disjoint = merge_concurrent(arr).ops
        merged = merge_neighbors(disjoint, run_time).ops
        if len(disjoint):
            assert merged.starts[0] == pytest.approx(disjoint.starts[0])
            assert merged.ends[-1] == pytest.approx(float(np.max(disjoint.ends)))
