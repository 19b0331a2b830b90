"""``mosaic serve`` with a scripted fault point at a journal settle.

Usage (from a test, with ``PYTHONPATH`` naming ``src``)::

    python tests/service/fault_launcher.py exit N serve [flags...]
    python tests/service/fault_launcher.py hold MARKER serve [flags...]

Installs a :class:`repro.io.FaultableIO` that acts right after a
journal settle line is flushed, before the commit of the unit that line
belongs to, then calls ``repro.cli.main.main`` with the remaining
arguments:

* ``exit N`` ends the process with ``os._exit(137)`` — the exit status
  of a ``kill -9`` — at the Nth settle: exactly N outcome lines
  survive, none of them committed by the dying incarnation;
* ``hold MARKER`` stops the job thread at the first settle, creates the
  file ``MARKER`` and waits for a line on stdin before it goes on.  The
  test drains, signals or kills the server while the job is held.

The fault point is an exact operation, not a wall-clock race.  The
in-process tests install the same classes with
:func:`repro.io.scoped_io`.
"""

from __future__ import annotations

import os
import sys
import threading

from repro.cli.main import main as cli_main
from repro.io import FaultableIO, set_io

#: Prefixes of journal settle lines (``JournalWriter`` writes compact
#: JSON with ``kind`` first).
_SETTLE_PREFIXES = ('{"kind":"result"', '{"kind":"failure"')


class SettleFaultIO(FaultableIO):
    """The default VFS, calling :meth:`at_settle` with the running count
    right after each journal settle line is flushed."""

    def __init__(self) -> None:
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
            self.at_settle(self.settled)

    def at_settle(self, n: int) -> None:
        raise NotImplementedError


class ExitAfterSettles(SettleFaultIO):
    """``os._exit(137)`` after the Nth settle."""

    def __init__(self, n_settles: int) -> None:
        super().__init__()
        self.n_settles = n_settles

    def at_settle(self, n: int) -> None:
        if n >= self.n_settles:
            os._exit(137)


class HoldAtFirstSettle(SettleFaultIO):
    """Hold the job thread at the first settle until :meth:`release`.

    :attr:`held` is set once the thread is parked there.  No commit has
    run yet, so no settle of the job has been published.
    """

    def __init__(self) -> None:
        super().__init__()
        self.held = threading.Event()
        self._released = threading.Event()

    def at_settle(self, n: int) -> None:
        if n == 1:
            self.held.set()
            self._released.wait()

    def release(self) -> None:
        self._released.set()


class HoldUntilStdin(SettleFaultIO):
    """:class:`HoldAtFirstSettle` for a subprocess: announces the hold by
    creating ``marker`` and is released by a line on stdin."""

    def __init__(self, marker: str) -> None:
        super().__init__()
        self.marker = marker

    def at_settle(self, n: int) -> None:
        if n == 1:
            with open(self.marker, "w", encoding="utf-8"):
                pass
            sys.stdin.readline()


def main() -> int:
    mode, arg, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "exit":
        set_io(ExitAfterSettles(int(arg)))
    elif mode == "hold":
        set_io(HoldUntilStdin(arg))
    else:
        raise SystemExit(f"unknown fault point {mode!r} (exit | hold)")
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
