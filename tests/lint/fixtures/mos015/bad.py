"""Fixture: mmap handle captured by a pool worker (MOS015).

The mmap is created in the parent process and bound into the worker
partial; after fork/spawn each worker inherits (or fails to inherit) a
kernel object that was never meant to cross the process boundary.
"""

import functools
import mmap

from repro.parallel.resilient import resilient_imap


def _worker(handle: mmap.mmap, row: int) -> int:
    return handle[row]


def _run(path: str, rows: list[int]) -> list[int]:
    fh = open(path, "rb")
    mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    fn = functools.partial(_worker, mm)
    return list(resilient_imap(fn, rows))
