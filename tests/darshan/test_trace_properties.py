"""Property-based tests (hypothesis) on the trace substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan import FileRecord, dumps_binary, loads, loads_binary, dumps
from repro.darshan.trace import OperationArray

from tests.conftest import make_trace

finite_time = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
volume = st.floats(min_value=0.0, max_value=1e15, allow_nan=False)


@st.composite
def op_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    rows = []
    for _ in range(n):
        s = draw(finite_time)
        d = draw(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
        v = draw(volume)
        rows.append((s, s + d, v))
    return OperationArray.from_tuples(rows)


@st.composite
def records(draw):
    rec = FileRecord(
        file_id=draw(st.integers(min_value=0, max_value=2**40)),
        file_name=draw(st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"), max_size=20)),
        rank=draw(st.integers(min_value=-1, max_value=1 << 20)),
        opens=draw(st.integers(min_value=0, max_value=1000)),
        closes=draw(st.integers(min_value=0, max_value=1000)),
        seeks=draw(st.integers(min_value=0, max_value=1000)),
        reads=draw(st.integers(min_value=0, max_value=10_000)),
        writes=draw(st.integers(min_value=0, max_value=10_000)),
        bytes_read=draw(st.integers(min_value=0, max_value=1 << 50)),
        bytes_written=draw(st.integers(min_value=0, max_value=1 << 50)),
    )
    s = draw(finite_time)
    rec.read_start, rec.read_end = s, s + draw(st.floats(0, 100, allow_nan=False))
    rec.open_start, rec.close_end = s, rec.read_end
    return rec


class TestOperationArrayProperties:
    @given(op_arrays())
    @settings(max_examples=60, deadline=None)
    def test_always_sorted(self, arr):
        assert np.all(np.diff(arr.starts) >= 0)

    @given(op_arrays())
    @settings(max_examples=60, deadline=None)
    def test_ends_never_before_starts(self, arr):
        assert np.all(arr.ends >= arr.starts)


class TestCodecProperties:
    @given(st.lists(records(), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_binary_roundtrip_identity(self, recs):
        trace = make_trace(recs)
        again = loads_binary(dumps_binary(trace))
        assert again.records == trace.records
        assert again.meta == trace.meta

    @given(st.lists(records(), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_json_roundtrip_identity(self, recs):
        trace = make_trace(recs)
        again = loads(dumps(trace))
        assert again.records == trace.records
