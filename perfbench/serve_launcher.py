"""Traced ``mosaic serve``: the CLI entry point behind the span wrappers.

Usage (``worker.py`` starts it from the repository root with
``PYTHONPATH=src``)::

    python3 perfbench/serve_launcher.py SPANS_JSON serve [flags...]

Installs :mod:`tracer`'s wrappers and the timing VFS, then calls
``repro.cli.main.main`` with the remaining arguments.  When the server
returns (SIGTERM starts its graceful drain), the aggregated spans are
written to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys

from repro.cli.main import main as cli_main
from repro.io import set_io

from tracer import TimingIO, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    set_io(TimingIO(tracer))
    try:
        code = cli_main(argv)
    finally:
        set_io(None)
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
