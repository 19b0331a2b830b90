"""Pass ② of the stream route categorizes a unit of traces in one batch.

``run_pipeline_stream`` packs the selected refs into units (at most
``BATCH_BYTES`` of them by size and ``MAX_SLICE_TRACES`` in number), the
worker reads each unit through the scan's batch reader and categorizes
it with one ``categorize_batch`` call.  None of that may show in the
output: every result line equals the one ``categorize_trace`` gives for
the trace the source loads (repaired by the per-``Trace`` oracle when
pass ① selected its repaired form), whatever the input format, repair
mode, budget or unit boundary.
"""

import numpy as np
import pytest

from repro.core import DEFAULT_CONFIG, ResourceBudget, run_pipeline_stream, scan_corpus
from repro.core.categorizer import MAX_SLICE_TRACES, categorize_trace
from repro.core.preprocess import read_selected
from repro.darshan import (
    DirectorySource,
    InMemorySource,
    save_binary,
    save_json,
    save_text,
)
from repro.darshan import source as source_module
from repro.parallel import ParallelConfig
from repro.synth import FleetConfig, corrupt_trace, generate_fleet
from repro.testing import repair_trace

from tests.columnar.test_store_pipeline_equivalence import BUDGETS
from tests.conftest import make_record, make_trace

_SAVERS = {"mosd": save_binary, "json": save_json, "txt": save_text}
_SUFFIXES = {"mosd": ".mosd", "json": ".json", "txt": ".darshan.txt"}


@pytest.fixture(scope="module")
def traces():
    """A fleet plus, among its runs, three applications whose one run is
    corrupted but repairable (with ``repair`` the scan selects them in
    their repaired form) and one whose operations take no time."""
    traces = list(generate_fleet(FleetConfig(n_apps=30, mean_runs=2.0, seed=11)).traces)
    rng = np.random.default_rng(4)
    for k, at in enumerate((5, 20, 40)):
        run = make_trace(
            [make_record(1, 0, read=(0.0, 50.0, 9_000_000 + k))],
            job_id=90_000 + k,
            exe=f"fix{k}.exe",
        )
        traces.insert(at, corrupt_trace(run, rng, "inverted_window"))
    # periodic instantaneous writes: each ends MIN_OP_DURATION after it
    # starts, which the busy fraction shows
    instant = [make_record(i, write=(10.0 * i, 10.0 * i, 60_000_000)) for i in range(1, 40)]
    traces.insert(30, make_trace(instant, job_id=90_010, exe="instant.exe"))
    return traces


@pytest.fixture(scope="module")
def corpora(traces, tmp_path_factory):
    """The traces written once per input format, in list order."""
    dirs = {}
    for fmt, save in _SAVERS.items():
        path = tmp_path_factory.mktemp(f"pass2-{fmt}")
        for i, trace in enumerate(traces):
            save(trace, path / f"{i:05d}{_SUFFIXES[fmt]}")
        dirs[fmt] = path
    return dirs


def _source(fmt, corpora, traces):
    if fmt == "memory":
        return InMemorySource(traces)
    return DirectorySource(corpora[fmt])


def _reload(source, entry):
    trace = source.load(entry.ref)
    return repair_trace(trace).trace if entry.repaired else trace


def _per_trace(source, *, repair=False, config=DEFAULT_CONFIG):
    """The oracle: each selected trace reloaded and categorized alone."""
    plan = scan_corpus(source, repair=repair)
    return [categorize_trace(_reload(source, entry), config).json_line() for entry in plan.refs]


def _batched(source, *, repair=False, config=DEFAULT_CONFIG, workers=0):
    result = run_pipeline_stream(
        source, config, ParallelConfig(max_workers=workers), repair=repair
    )
    assert result.n_failures == 0
    return [r.json_line() for r in result.results]


class RecordingSource(DirectorySource):
    """A directory source recording the refs of each pass-② read."""

    def __init__(self, path):
        super().__init__(path)
        self.units = []

    def read_batches(self, refs):
        self.units.append([ref.key for ref in refs])
        return super().read_batches(refs)


@pytest.mark.parametrize("repair", [False, True], ids=["plain", "repair"])
@pytest.mark.parametrize("fmt", ["mosd", "json", "txt", "memory"])
def test_lines_equal_per_trace_categorization(corpora, traces, fmt, repair):
    source = _source(fmt, corpora, traces)
    assert _batched(source, repair=repair) == _per_trace(source, repair=repair)


def test_repaired_members_are_batched_with_the_rest(corpora, traces):
    source = _source("mosd", corpora, traces)
    plan = scan_corpus(source, repair=True)
    repaired = sum(entry.repaired for entry in plan.refs)
    # the unit mixes rows read in one buffer and rows repaired one by one
    assert 0 < repaired < plan.n_selected
    assert _batched(source, repair=True, workers=2) == _per_trace(source, repair=True)


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: "-".join(map(str, b.items())))
def test_lines_equal_per_trace_under_budget(corpora, traces, budget):
    config = DEFAULT_CONFIG.with_overrides(budget=ResourceBudget(**budget))
    source = _source("mosd", corpora, traces)
    assert _batched(source, config=config) == _per_trace(source, config=config)


def _tiny(job_id, exe):
    record = make_record(job_id, read=(1.0, 2.0 + job_id % 7, 4096 * (1 + job_id % 5)))
    return make_trace([record], job_id=job_id, exe=exe)


def test_one_member_unit(tmp_path):
    save_binary(_tiny(1, "solo.exe"), tmp_path / "solo.mosd")
    source = RecordingSource(tmp_path)
    assert _batched(source) == _per_trace(source)
    assert source.units == [[str(tmp_path / "solo.mosd")]]


def test_cap_plus_one_members_make_two_units():
    traces = [_tiny(i + 1, f"app{i}.exe") for i in range(MAX_SLICE_TRACES + 1)]
    units = []

    class Recording(InMemorySource):
        def read_batches(self, refs):
            units.append(len(refs))
            return super().read_batches(refs)

    source = Recording(traces)
    lines = _batched(source)
    assert units == [MAX_SLICE_TRACES, 1]
    assert lines == _per_trace(source)


def test_member_larger_than_the_budget_is_a_unit_alone(tmp_path):
    save_binary(_tiny(1, "a.exe"), tmp_path / "a.mosd")
    n_records = source_module.BATCH_BYTES // 128
    big = make_trace(
        [
            make_record(i, read=(float(i % 50), float(i % 50) + 2.0, 1 << 20))
            for i in range(n_records)
        ],
        job_id=2,
        exe="b.exe",
    )
    save_binary(big, tmp_path / "b.mosd")
    save_binary(_tiny(3, "c.exe"), tmp_path / "c.mosd")
    assert (tmp_path / "b.mosd").stat().st_size > source_module.BATCH_BYTES

    source = RecordingSource(tmp_path)
    assert _batched(source) == _per_trace(source)
    assert source.units == [[str(tmp_path / f"{name}.mosd")] for name in "abc"]


def test_repaired_member_rewritten_valid_is_read_as_is(tmp_path):
    """A member selected in its repaired form whose file turns valid
    before pass ② reads as the file holds it, as the per-trace oracle
    reads it: repair runs only on rows validation flags."""
    path = tmp_path / "a.mosd"
    inverted = make_record(1, read=(50.0, 10.0, 4096))
    save_binary(make_trace([inverted], job_id=1, exe="a.exe"), path)
    source = DirectorySource(tmp_path)
    plan = scan_corpus(source, repair=True)
    assert [entry.repaired for entry in plan.refs] == [True]
    # valid, but a half-open metadata window that repair would rebuild
    half_open = make_record(1, read=(10.0, 50.0, 4096))
    half_open.close_end = -1.0
    save_binary(make_trace([half_open], job_id=1, exe="a.exe"), path)
    assert _batched(source, repair=True) == _per_trace(source, repair=True)
    (batch,) = read_selected(source, plan.refs)
    assert batch.trace(0) == source.load(plan.refs[0].ref)
