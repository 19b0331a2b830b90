"""One numeric rule for every input format.

A counter, id or rank count that its int64 column cannot hold exactly
(a fraction, NaN, a value past int64) makes the trace unreadable, from
whichever format it was read: MOSD cannot encode it, and the JSON,
text and in-memory routes count it under ``Violation.UNREADABLE`` on
the streaming scan and in ``n_unreadable`` on the store, so the two
routes still agree byte for byte.
"""

import dataclasses
from collections import Counter

import pytest

from repro.columnar import compile_corpus
from repro.core import run_pipeline_store, run_pipeline_stream, save_results_jsonl
from repro.core.preprocess import scan_corpus
from repro.darshan import (
    DirectorySource,
    InMemorySource,
    TraceWriteError,
    Violation,
    is_valid,
    save_binary,
    save_json,
    save_text,
)
from repro.parallel import ParallelConfig
from repro.synth import FleetConfig, generate_fleet

SERIAL = ParallelConfig(max_workers=0)
SAVERS = {"json": (save_json, ".json"), "text": (save_text, ".darshan.txt")}


def _with_record(trace, **changes):
    records = [dataclasses.replace(trace.records[0], **changes), *trace.records[1:]]
    return dataclasses.replace(trace, records=records)


def _with_meta(trace, **changes):
    return dataclasses.replace(trace, meta=dataclasses.replace(trace.meta, **changes))


#: name → how it puts a value no int64 column holds into a trace.
MISFITS = {
    "fractional_counter": lambda t: _with_record(t, opens=t.records[0].opens + 0.5),
    "nan_counter": lambda t: _with_record(t, seeks=float("nan")),
    "counter_past_int64": lambda t: _with_record(t, bytes_read=2**64),
    "nprocs_past_int64": lambda t: _with_meta(t, nprocs=2**63),
    "job_id_past_int64": lambda t: _with_meta(t, job_id=2**64 + 7),
}


@pytest.fixture(scope="module")
def fleet():
    traces = generate_fleet(FleetConfig(n_apps=20, mean_runs=1.5, seed=5)).traces
    return [t for t in traces if t.records][:16]


def _source(fmt, traces, directory):
    if fmt == "memory":
        return lambda: InMemorySource(traces)
    directory.mkdir()
    save, suffix = SAVERS[fmt]
    for i, trace in enumerate(traces):
        save(trace, directory / f"t{i:03d}{suffix}")
    return lambda: DirectorySource(directory)


def _results_bytes(results, path):
    save_results_jsonl(results, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("misfit", list(MISFITS))
def test_mosd_cannot_encode_it(fleet, tmp_path, misfit):
    with pytest.raises(TraceWriteError):
        save_binary(MISFITS[misfit](fleet[0]), tmp_path / "t.mosd")


@pytest.mark.parametrize("fmt", ["json", "text", "memory"])
@pytest.mark.parametrize("misfit", list(MISFITS))
def test_it_is_unreadable_on_both_routes(fleet, tmp_path, fmt, misfit):
    k = next(i for i, trace in enumerate(fleet) if is_valid(trace))
    traces = list(fleet)
    traces[k] = MISFITS[misfit](traces[k])
    make_source = _source(fmt, traces, tmp_path / "traces")

    plan = scan_corpus(make_source())
    clean = scan_corpus(InMemorySource(fleet))
    assert plan.corruption_histogram == clean.corruption_histogram + Counter(
        {Violation.UNREADABLE: 1}
    )
    assert (plan.n_input, plan.n_unreadable) == (len(traces), 1)
    assert plan.n_corrupted == clean.n_corrupted + 1

    report = compile_corpus(make_source(), tmp_path / "corpus.mosc")
    assert (report.n_traces, report.n_unreadable) == (len(traces) - 1, 1)

    stream = run_pipeline_stream(make_source(), parallel=SERIAL)
    store = run_pipeline_store(tmp_path / "corpus.mosc", parallel=SERIAL)
    assert stream.preprocess == store.preprocess == plan
    assert stream.preprocess.funnel() == store.preprocess.funnel()
    assert _results_bytes(stream.results, tmp_path / "a.jsonl") == _results_bytes(
        store.results, tmp_path / "b.jsonl"
    )
    assert len(stream.results) == plan.n_selected > 0


def test_an_integral_float_reaches_every_route_as_its_int(tmp_path):
    fleet = list(generate_fleet(FleetConfig(n_apps=20, mean_runs=1.0, seed=5)).traces)
    k = scan_corpus(InMemorySource(fleet)).refs[0].ref.key
    records = [dataclasses.replace(r, opens=float(r.opens)) for r in fleet[k].records]
    fleet[k] = _with_meta(dataclasses.replace(fleet[k], records=records), nprocs=128.0)
    compile_corpus(InMemorySource(fleet), tmp_path / "corpus.mosc")

    runs = [
        run_pipeline_stream(InMemorySource(fleet), parallel=SERIAL),
        run_pipeline_stream(InMemorySource(fleet), parallel=ParallelConfig(max_workers=2)),
        run_pipeline_store(tmp_path / "corpus.mosc", parallel=SERIAL),
    ]
    lines = [
        next(r.json_line() for r in run.results if r.job_id == fleet[k].meta.job_id)
        for run in runs
    ]
    assert lines[0] == lines[1] == lines[2]
    assert '"nprocs": 128,' in lines[0]
