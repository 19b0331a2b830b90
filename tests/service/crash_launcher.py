"""``mosaic serve`` that dies at a scripted journal settle.

Usage (from a test, with ``PYTHONPATH`` naming ``src``)::

    python tests/service/crash_launcher.py N serve [flags...]

Installs a :class:`repro.io.FaultableIO` that ends the process with
``os._exit(137)`` — the exit status of a ``kill -9`` — right after the
Nth journal settle line is flushed, before the commit of the unit that
line belongs to, then calls ``repro.cli.main.main`` with the remaining
arguments.  The kill point is an exact operation, not a wall-clock
race: exactly N outcome lines survive, none of them committed by the
dying incarnation.
"""

from __future__ import annotations

import os
import sys

from repro.cli.main import main as cli_main
from repro.io import FaultableIO, set_io

#: Prefixes of journal settle lines (``JournalWriter`` writes compact
#: JSON with ``kind`` first).
_SETTLE_PREFIXES = ('{"kind":"result"', '{"kind":"failure"')


class ExitAfterSettles(FaultableIO):
    """The default VFS, plus ``os._exit(137)`` after the Nth settle."""

    def __init__(self, n_settles: int) -> None:
        self.n_settles = n_settles
        self.settled = 0
        self._settle_written = False

    def write(self, fh, data):
        n = super().write(fh, data)
        if str(getattr(fh, "name", "")).endswith("journal.jsonl") and str(
            data
        ).startswith(_SETTLE_PREFIXES):
            self._settle_written = True
        return n

    def flush(self, fh):
        super().flush(fh)
        if self._settle_written:
            self._settle_written = False
            self.settled += 1
            if self.settled >= self.n_settles:
                os._exit(137)


def main() -> int:
    n_settles, argv = int(sys.argv[1]), sys.argv[2:]
    set_io(ExitAfterSettles(n_settles))
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
