"""Self-tests of the benchmark at tiny input sizes.

Run from the repository root: ``python3 -m pytest perfbench/``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = run.WORKLOADS


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end(workload: str) -> None:
    out = _result(_bench(workload, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == list(run.END_TO_END)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_sum_to_wall(workload: str) -> None:
    out = _result(_bench(workload, 1))
    values = {name: m["value"] for name, m in out["metrics"].items()}
    assert list(values) == list(run.PER_LAYER)
    wall = values["trace.wall_s"]
    layers = sum(values[m] for m in run.SELF_METRICS.values())
    assert wall > 0
    assert layers + values["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    if workload != "serve-mix":
        # one thread: nested spans never cover more than the wall
        assert values["trace.unattributed_s"] >= -1e-6


def test_metric_names_are_well_formed() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == run.END_TO_END
    assert layers == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in [*declared, *layers]:
        assert NAME.fullmatch(name), name


def test_bare_checkout_fails_without_result(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"),
    )
    proc = _bench("paper-stream", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans() -> None:
    tracer = Tracer()

    def leaf() -> None:
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def parent() -> None:
        traced_leaf()
        time.sleep(0.01)

    t0 = time.perf_counter()
    tracer.wrap("parent", parent)()
    wall = time.perf_counter() - t0
    spans = tracer.snapshot()["self_s"]
    assert spans["leaf"] >= 0.02
    assert 0.01 <= spans["parent"] < 0.02
    assert spans["leaf"] + spans["parent"] <= wall


def test_tail_is_highest_percentile_with_ten_beyond() -> None:
    values = [float(i) for i in range(1, 41)]
    value, label = run.tail(values)
    assert value == 30.0 and sum(v > value for v in values) == 10
    assert label.startswith("p75.0")
    # fewer than 44 samples: a quarter of them beyond
    assert run.tail(values[:20])[0] == 15.0
    assert run.tail([1.0, 3.0, 2.0])[0] == 3.0


def test_unit_speed_is_mean_slowdown_of_its_two_probes() -> None:
    ref = run.PROBE_REF_S
    # probes at the reference, then twice, then four times as slow
    cpu = [[ref, ref], [2 * ref, 2 * ref], [4 * ref]]
    assert run.unit_speeds(cpu) == pytest.approx([2 / 3, 1 / 3])
    # fsync twice as slow as its reference, weighted by its share
    fsync = [[2 * run.FSYNC_PROBE_REF_S]] * 3
    speeds = run.unit_speeds(cpu, fsync, 0.5)
    assert speeds == pytest.approx([1 / (0.5 * 1.5 + 0.5 * 2), 1 / (0.5 * 3 + 0.5 * 2)])
