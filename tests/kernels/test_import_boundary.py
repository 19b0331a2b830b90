"""The test oracles stay out of the runtime.

The pure-Python reference kernels live in ``repro.testing``; importing
the pipeline, the store, the service or the kernels must not pull any of
``repro.testing`` in, and no reference kernel module may remain under
``repro.kernels``.
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


def test_runtime_imports_no_test_oracle():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out == ["[]", "True"]
