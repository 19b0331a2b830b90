"""Differential tests: ``violation_matrix`` against ``validate_trace``.

The batch validator must flag, for every trace of a batch, exactly the
categories the scalar validator reports, including its NaN behaviour
(Python's ``max(a, b)`` keeps ``a`` unless ``b > a``), the ``continue``
structure of the window checks and the ``run_time > 0.0`` gate on all
record checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan import FileRecord, InMemorySource, dumps_binary
from repro.darshan import source as source_module
from repro.darshan.io_binary import RECORD_DTYPE, parse_binary
from repro.darshan.records import JobMeta
from repro.darshan.trace import Trace
from repro.darshan.validate import (
    VIOLATION_COLUMNS,
    validate_trace,
    violation_matrix,
)
from repro.synth import CORRUPTION_KINDS, FleetConfig, corrupt_trace, generate_fleet
from repro.synth.corruption import adversarial_payload

NAN = float("nan")
INF = float("inf")

timestamp = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 1e-9, 5.0, 99.0, 100.0, 101.0, 1e12, NAN, INF, -INF]),
    st.floats(min_value=-2.0, max_value=200.0),
)
counter = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 2**62]),
    st.integers(min_value=-3, max_value=1000),
)
run_time = st.sampled_from([NAN, -INF, -5.0, -0.0, 0.0, 1e-9, 1.0, 100.0, 1e9, INF])
nprocs = st.sampled_from([-(2**40), -1, 0, 1, 64, 2**40])


@st.composite
def records(draw):
    values = {
        name: draw(counter)
        for name in (
            "opens", "closes", "seeks", "stats", "reads", "writes",
            "bytes_read", "bytes_written",
        )
    }
    for name in (
        "open_start", "close_end", "read_start", "read_end",
        "write_start", "write_end",
    ):
        values[name] = draw(timestamp)
    return FileRecord(
        file_id=draw(st.integers(min_value=0, max_value=2**40)),
        file_name="",
        rank=draw(st.integers(min_value=-1, max_value=64)),
        **values,
    )


@st.composite
def traces(draw):
    rt = draw(run_time)
    start = 1000.0
    end = start + rt
    if math.isnan(rt) or math.isinf(rt):
        start, end = 0.0, rt
    meta = JobMeta(
        job_id=draw(st.integers(min_value=1, max_value=10**6)),
        uid=1,
        exe="app",
        nprocs=draw(nprocs),
        start_time=start,
        end_time=end,
    )
    return Trace(meta=meta, records=draw(st.lists(records(), max_size=6)))


def flagged(row: np.ndarray) -> set:
    return {VIOLATION_COLUMNS[i] for i in np.flatnonzero(row)}


def matrix_of(batch_traces: list[Trace]) -> np.ndarray:
    """``violation_matrix`` over the traces laid out back to back."""
    rows = [
        tuple(getattr(rec, name) for name in RECORD_DTYPE.names)
        for trace in batch_traces
        for rec in trace.records
    ]
    return violation_matrix(
        np.array(rows, dtype=RECORD_DTYPE),
        np.array([t.meta.run_time for t in batch_traces], dtype=np.float64),
        np.array([t.meta.nprocs for t in batch_traces], dtype=np.int64),
        np.array([len(t.records) for t in batch_traces], dtype=np.int64),
    )


def assert_matches_oracle(batch_traces: list[Trace], matrix: np.ndarray) -> None:
    assert matrix.shape == (len(batch_traces), len(VIOLATION_COLUMNS))
    for trace, row in zip(batch_traces, matrix):
        assert flagged(row) == validate_trace(trace).categories(), trace


class TestAgainstValidateTrace:
    @given(traces())
    @settings(max_examples=200, deadline=None)
    def test_batch_of_one(self, trace):
        assert_matches_oracle([trace], matrix_of([trace]))

    @given(st.lists(traces(), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_batch_of_many(self, batch_traces):
        assert_matches_oracle(batch_traces, matrix_of(batch_traces))

    @given(st.lists(traces(), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_source_batches(self, batch_traces):
        # the same check through the scan's own batch layout, in
        # batches of a few traces
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(source_module, "BATCH_BYTES", 600)
            batches = list(InMemorySource(batch_traces).record_batches())
        seen = 0
        for batch in batches:
            matrix = violation_matrix(
                batch.records, batch.run_time, batch.nprocs, batch.counts
            )
            assert_matches_oracle(batch_traces[seen : seen + len(batch)], matrix)
            seen += len(batch)
        assert seen == len(batch_traces)

    def test_empty_batch(self):
        matrix = violation_matrix(
            np.empty(0, dtype=RECORD_DTYPE),
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert matrix.shape == (0, len(VIOLATION_COLUMNS))

    def test_nan_order_of_python_max(self):
        # max(nan, 5.0) is nan, max(5.0, nan) is 5.0: only the second
        # flags the close at 1.0 as a dealloc before the activity end
        first = FileRecord(1, "", 0, read_end=NAN, write_start=0.0, write_end=5.0,
                           open_start=0.0, close_end=1.0)
        second = FileRecord(2, "", 0, read_start=0.0, read_end=5.0, write_end=NAN,
                            open_start=0.0, close_end=1.0)
        batch = [
            Trace(JobMeta(1, 1, "a", 4, 0.0, 100.0), [first]),
            Trace(JobMeta(2, 1, "a", 4, 0.0, 100.0), [second]),
        ]
        assert_matches_oracle(batch, matrix_of(batch))


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetConfig(n_apps=30, mean_runs=2.0, seed=5))


class TestCorruptionClasses:
    @pytest.mark.parametrize("kind", sorted(CORRUPTION_KINDS))
    def test_every_injected_class(self, fleet, kind):
        rng = np.random.default_rng(11)
        corrupted = [corrupt_trace(t, rng, kind) for t in fleet.traces[:40]]
        assert any(validate_trace(t).categories() for t in corrupted)
        assert_matches_oracle(corrupted, matrix_of(corrupted))

    def test_random_mix_through_mosd(self, fleet):
        rng = np.random.default_rng(3)
        mixed = [
            corrupt_trace(t, rng) if i % 2 else t
            for i, t in enumerate(fleet.traces)
        ]
        sections = [parse_binary(dumps_binary(t)) for t in mixed]
        matrix = violation_matrix(
            np.concatenate([s.records for s in sections]),
            np.array([s.meta.run_time for s in sections]),
            np.array([s.meta.nprocs for s in sections]),
            np.array([len(s.records) for s in sections]),
        )
        assert_matches_oracle(mixed, matrix)

    def test_bit_rot_that_still_decodes(self, fleet):
        from repro.darshan import loads_binary
        from repro.darshan.errors import TraceFormatError

        rng = np.random.default_rng(8)
        checked = 0
        for trace in fleet.traces:
            payload = adversarial_payload(dumps_binary(trace), rng, "bit_rot")
            try:
                decoded = loads_binary(payload)
            except TraceFormatError:
                continue
            checked += 1
            assert_matches_oracle([decoded], matrix_of([decoded]))
        assert checked
