"""The test oracles stay out of the runtime.

The pure-Python reference kernels and the per-``Trace`` repair oracle
live in ``repro.testing``; importing the pipeline, the store, the
service, the kernels or the trace substrate must not pull any of
``repro.testing`` in, no reference kernel module may remain under
``repro.kernels``, and the runtime's repair module keeps no per-trace
``repair_trace``.

The runtime depends on NumPy alone: ``import repro`` and the ``mosaic``
CLI module load no ``scipy`` (the third-party distance oracle of the
differential tests), no ``repro.testing``, no lint engine and no
synthetic-fleet generator (``repro.synth``: ``from repro import
FleetConfig, generate_fleet`` loads it on first use).  The file
needs no pytest, so an environment with only NumPy installed can run it
directly: ``PYTHONPATH=src python tests/kernels/test_import_boundary.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import importlib.util
import sys

import repro.core, repro.columnar, repro.service, repro.kernels

print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "testing"]))
print(importlib.util.find_spec("repro.kernels.reference") is None)
"""

CLI_PROBE = """
import sys

import repro, repro.core, repro.cli.main

print(sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy"
    or m.split(".")[:2] in (["repro", "testing"], ["repro", "synth"])
    or m == "repro.lint.engine"
))

from repro import FleetConfig, generate_fleet

print(FleetConfig.__module__, generate_fleet.__module__)
"""


SUBSTRATE_PROBE = """
import sys

import repro.darshan, repro.core, repro.columnar

print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "testing"]))
"""

REPAIR_PROBE = """
import repro.darshan.repair as repair

print(hasattr(repair, "repair_trace"), hasattr(repair, "repair_rows"))
"""


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()


def test_runtime_imports_no_test_oracle():
    assert _run("-c", PROBE) == ["[]", "True"]


def test_trace_substrate_imports_no_test_oracle():
    assert _run("-c", SUBSTRATE_PROBE) == ["[]"]


def test_runtime_repair_is_columnar_only():
    assert _run("-c", REPAIR_PROBE) == ["False True"]


def test_cli_imports_no_scipy_oracle_or_lint_engine():
    assert _run("-c", CLI_PROBE) == ["[]", "repro.synth.fleet repro.synth.fleet"]


def test_cli_help_still_runs():
    assert _run("-m", "repro.cli", "--help")
    assert _run("-m", "repro.cli", "lint", "--help")


if __name__ == "__main__":
    test_runtime_imports_no_test_oracle()
    test_trace_substrate_imports_no_test_oracle()
    test_runtime_repair_is_columnar_only()
    test_cli_imports_no_scipy_oracle_or_lint_engine()
    test_cli_help_still_runs()
    print("import boundary: ok")
