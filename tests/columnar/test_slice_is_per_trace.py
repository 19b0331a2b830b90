"""One categorizer: a store slice of N traces is N batches of one.

``categorize_slice`` hands a whole slice to the categorizer core, whose
merge and metadata stages run over every trace at once;
``categorize_trace`` hands it one trace.  Segment walls must make the
two indistinguishable, result line for result line, with and without a
budget.
"""

import pytest

from repro.columnar import StoreSlice, attach, categorize_slice, compile_corpus
from repro.core import DEFAULT_CONFIG, ResourceBudget, categorize_trace
from repro.darshan import DirectorySource, is_valid, save_binary
from repro.merge import NeighborMergeConfig
from repro.synth import FleetConfig, generate_fleet

from tests.columnar.test_store_pipeline_equivalence import BUDGETS

#: Unbudgeted, then with a gap threshold wide enough that each trace's
#: own run time decides its neighbor merges (a batch that mixed up the
#: traces' anchors shows here, not at the paper's 0.1%), then under
#: every budget of the store equivalence suite.
CONFIGS = [
    DEFAULT_CONFIG,
    DEFAULT_CONFIG.with_overrides(
        merge=NeighborMergeConfig(runtime_fraction=0.05, op_fraction=0.0)
    ),
] + [DEFAULT_CONFIG.with_overrides(budget=ResourceBudget(**budget)) for budget in BUDGETS]
IDS = ["unbudgeted", "wide_gap", *map(str, BUDGETS)]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The store equivalence corpus, its valid rows and their traces."""
    base = tmp_path_factory.mktemp("per_trace")
    fleet = generate_fleet(FleetConfig(n_apps=30, mean_runs=2.0, seed=11))
    trace_dir = base / "traces"
    trace_dir.mkdir()
    for trace in fleet.traces:
        save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
    store_path = str(base / "corpus.mosc")
    compile_corpus(DirectorySource(trace_dir), store_path)
    by_job = {t.meta.job_id: t for t in fleet.traces if is_valid(t)}
    store = attach(store_path)
    rows = [row for row in range(len(store)) if store.is_valid(row)]
    traces = [by_job[int(store.index["job_id"][row])] for row in rows]
    assert len(rows) == len(by_job) >= 40
    return store_path, rows, traces


@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
def test_one_slice_equals_one_trace_at_a_time(corpus, config):
    store_path, rows, traces = corpus
    batch = categorize_slice(StoreSlice(path=store_path, rows=tuple(rows)), config)
    assert [r.json_line() for r in batch] == [
        categorize_trace(trace, config).json_line() for trace in traces
    ]
