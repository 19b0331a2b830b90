"""Fixture: workers open their own handles (MOS015 clean).

Only the path — a plain picklable string — crosses the process
boundary; each worker maps the file itself and closes it before
returning.
"""

import functools
import mmap

from repro.parallel.resilient import resilient_imap


def _worker(path: str, row: int) -> int:
    with open(path, "rb") as fh:
        handle = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            return handle[row]
        finally:
            handle.close()


def _run(path: str, rows: list[int]) -> list[int]:
    fn = functools.partial(_worker, path)
    return list(resilient_imap(fn, rows))
