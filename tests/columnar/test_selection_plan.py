"""Pass ① has one record on every route, and the store weighs rows in
closed form.

``scan_store`` weighs each valid row as ``float(total_bytes) +
float(total_meta_ops)`` over the index's int64 totals.  That must be the
``io_weight`` column ``compile_corpus`` wrote, bit for bit, on repaired
rows and on totals no float64 holds exactly.  And the
:class:`~repro.core.preprocess.SelectionPlan` of one corpus compares
equal whichever route built it, corruption causes listed in one order:
the stream scan serial and on two workers, the store scan and the batch
API, with and without repair, on an empty corpus and on one junk file.
"""

import os

import numpy as np
import pytest

from repro.columnar import attach, compile_corpus, detach_all
from repro.columnar.scan import scan_store
from repro.core import preprocess_corpus, run_pipeline_store, run_pipeline_stream
from repro.darshan import DirectorySource, save_binary
from repro.parallel import ParallelConfig
from repro.synth import FleetConfig, corrupt_trace, generate_fleet

from tests.conftest import make_record, make_trace

BIG = 2**53


def _run(job_id, exe, nbytes, *, uid=1):
    return make_trace(
        [make_record(1, 0, read=(0.0, 50.0, nbytes))], job_id=job_id, uid=uid, exe=exe
    )


def _tie_traces():
    """Runs whose weights tie, in the order the corpus lists them."""
    rng = np.random.default_rng(4)
    return [
        # equal weights: the lower job id wins though seen second
        _run(905, "tie", 1_000_000),
        _run(903, "tie", 1_000_000),
        # equal weights and job ids: the first seen wins
        _run(907, "dup", 2_000_000),
        _run(907, "dup", 2_000_000),
        # another winner with job id 907: the plan keeps first-seen order
        _run(907, "other", 3_000_000, uid=2),
        # totals above 2**53 that tie only as floats: with 2 metadata ops,
        # 2**53 + 4 bytes and 2**53 + 3 bytes both weigh 2**53 + 6
        _run(912, "big", BIG + 4),
        _run(911, "big", BIG + 3),
        # repairable, and the heaviest run of its app once repaired
        _run(920, "fix", 4_000_000),
        corrupt_trace(_run(921, "fix", 9_000_000), rng, "inverted_window"),
        # never repairable
        corrupt_trace(_run(930, "lost", 5_000_000), rng, "negative_runtime"),
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small fleet plus the tie runs, as MOSD files listed in order."""
    fleet = generate_fleet(FleetConfig(n_apps=20, mean_runs=2.0, seed=5))
    traces = _tie_traces() + list(fleet.traces)
    trace_dir = tmp_path_factory.mktemp("plan") / "traces"
    trace_dir.mkdir()
    for i, trace in enumerate(traces):
        save_binary(trace, trace_dir / f"{i:05d}.mosd")
    return trace_dir, traces


@pytest.fixture(scope="module")
def stores(corpus, tmp_path_factory):
    trace_dir, _ = corpus
    base = tmp_path_factory.mktemp("stores")
    paths = {}
    for repair in (False, True):
        paths[repair] = base / f"repair{int(repair)}.mosc"
        compile_corpus(DirectorySource(trace_dir), paths[repair], repair=repair)
    yield paths
    detach_all()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("repair", [False, True])
def test_closed_form_weight_is_the_stored_column(stores, repair):
    store = attach(stores[repair])
    idx = store.index
    closed = idx["total_bytes"].astype(float) + idx["total_meta_ops"].astype(float)
    np.testing.assert_array_equal(_bits(closed), _bits(idx["io_weight"]))
    assert (idx["total_bytes"] > BIG).sum() == 2
    assert idx["repaired"].any() == repair
    plan = scan_store(store, repair=repair)
    rows = [entry.ref.key for entry in plan.refs]
    assert _bits([entry.io_weight for entry in plan.refs]).tolist() == (
        _bits(idx["io_weight"][rows]).tolist()
    )


@pytest.mark.parametrize("repair", [False, True])
def test_every_route_returns_an_equal_plan(corpus, stores, repair):
    trace_dir, traces = corpus
    serial = run_pipeline_stream(DirectorySource(trace_dir), repair=repair)
    two = run_pipeline_stream(
        DirectorySource(trace_dir), ParallelConfig(max_workers=2), repair=repair
    )
    store = run_pipeline_store(stores[repair], repair=repair)
    batch = preprocess_corpus(traces, repair=repair)
    plans = [serial.preprocess, two.preprocess, store.preprocess, batch]
    assert all(plan == plans[0] for plan in plans)
    # one fold lists the causes in one order on every route
    causes = [list(plan.corruption_histogram.items()) for plan in plans]
    assert all(c == causes[0] for c in causes)
    assert len(causes[0]) >= (1 if repair else 2)
    assert (plans[0].n_repaired > 0) == repair

    # equality ignores where each route keeps a trace; every ref names
    # the same corpus position (MOSD file, store row, list index)
    names = sorted(os.listdir(trace_dir))
    positions = [
        [names.index(os.path.basename(e.ref.key)) for e in serial.preprocess.refs],
        [names.index(os.path.basename(e.ref.key)) for e in two.preprocess.refs],
        [e.ref.key for e in store.preprocess.refs],
        [e.ref.key for e in batch.refs],
    ]
    assert all(p == positions[0] for p in positions)
    assert [t.meta.job_id for t in batch.selected] == [e.job_id for e in batch.refs]

    winners = {e.app_key: (e.job_id, positions[0][i]) for i, e in enumerate(batch.refs)}
    assert winners[(1, "tie")] == (903, 1)
    assert winners[(1, "dup")] == (907, 2)
    assert winners[(1, "big")] == (911, 6)
    assert winners[(1, "fix")] == ((921, 8) if repair else (920, 7))
    assert (1, "lost") not in winners
    job_907 = [e.app_key for e in batch.refs if e.job_id == 907]
    assert job_907 == [(1, "dup"), (2, "other")]


@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("files", [{}, {"junk.mosd": b"not a trace"}], ids=["empty", "junk"])
def test_a_corpus_with_nothing_valid_has_one_plan(tmp_path, files, repair):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    for name, payload in files.items():
        (trace_dir / name).write_bytes(payload)
    store_path = tmp_path / "corpus.mosc"
    compile_corpus(DirectorySource(trace_dir), store_path, repair=repair)
    try:
        plans = [
            run_pipeline_stream(DirectorySource(trace_dir), repair=repair).preprocess,
            run_pipeline_stream(
                DirectorySource(trace_dir), ParallelConfig(max_workers=2), repair=repair
            ).preprocess,
            run_pipeline_store(store_path, repair=repair).preprocess,
        ]
    finally:
        detach_all()
    if not files:
        plans.append(preprocess_corpus([], repair=repair))
    assert all(plan == plans[0] for plan in plans)
    causes = [list(plan.corruption_histogram.items()) for plan in plans]
    assert all(c == causes[0] for c in causes)
    assert (plans[0].n_input, plans[0].n_unreadable, plans[0].n_selected) == (
        len(files),
        len(files),
        0,
    )
